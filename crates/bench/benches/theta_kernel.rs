//! Benchmarks of the alienation kernel.
//!
//! `theta_mu` pits the O(P log P) Fenwick-sweep `mu_statistic` against a
//! local copy of the naive O(P^2) pairs-of-pairs loop it replaced (the
//! in-crate naive oracle is `#[cfg(test)]`-gated, so the bench carries its
//! own).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coplot::mu_statistic;

/// Deterministic pseudo-random pair vectors of length `pairs`, loosely
/// monotone with noise so the sweep sees realistic rank structure.
fn pair_vectors(pairs: usize) -> (Vec<f64>, Vec<f64>) {
    let mut s = Vec::with_capacity(pairs);
    let mut d = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let x = (i as f64 * 0.7311).sin() * 50.0 + i as f64 * 0.05;
        s.push(x);
        d.push(x * 0.8 + (i as f64 * 1.93).cos() * 20.0);
    }
    (s, d)
}

/// The pre-optimization O(P^2) Guttman mu, kept verbatim for comparison.
fn mu_statistic_naive(s: &[f64], d: &[f64]) -> f64 {
    assert_eq!(s.len(), d.len());
    let p = s.len();
    if p < 2 {
        return 1.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for a in 0..p {
        for b in (a + 1)..p {
            let ds = s[a] - s[b];
            let dd = d[a] - d[b];
            num += ds * dd;
            den += ds.abs() * dd.abs();
        }
    }
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

fn bench_theta_mu(c: &mut Criterion) {
    let mut group = c.benchmark_group("theta_mu");
    for n in [10usize, 20, 40, 64] {
        let pairs = n * (n - 1) / 2;
        let (s, d) = pair_vectors(pairs);
        group.bench_with_input(BenchmarkId::new("fast", n), &pairs, |b, _| {
            b.iter(|| mu_statistic(black_box(&s), black_box(&d)))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &pairs, |b, _| {
            b.iter(|| mu_statistic_naive(black_box(&s), black_box(&d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_theta_mu);
criterion_main!(benches);
