//! Closed-form calibration of marginals to published order statistics.
//!
//! The paper characterizes each attribute by its median and 90% interval
//! (p95 - p5). For a lognormal those two numbers determine the parameters
//! exactly:
//!
//! ```text
//! median = exp(mu)                     =>  mu = ln(median)
//! interval = median * 2 sinh(1.645 sigma)
//!                                      =>  sigma = asinh(I / 2M) / 1.645
//! ```
//!
//! Discrete attributes (degree of parallelism on partitioned machines) are
//! calibrated as weighted power-of-two atoms whose quantiles hit the
//! published median and interval.

use wl_stats::dist::{DiscreteWeighted, LogNormal};

/// z-score of the 95th percentile; the 90% interval spans +-z95 sigmas in
/// log space.
pub const Z95: f64 = 1.644_853_626_951_472_7;

/// Fit a lognormal to a published (median, 90% interval) pair.
/// (Thin alias over [`LogNormal::from_median_interval`], kept for the
/// stream generator's vocabulary.)
pub fn lognormal_from_median_interval(median: f64, interval: f64) -> LogNormal {
    LogNormal::from_median_interval(median, interval)
}

/// Calibrate a discrete parallelism distribution over the given atom sizes
/// (ascending) to a target median and 90% interval.
///
/// The returned weights make the requested `median` the 50th percentile and
/// place the 5th/95th percentiles so their difference approximates
/// `interval`. The construction is heuristic but verified: geometric decay
/// away from the median atom, with tail mass (5.5% per side) pinned on the
/// atoms nearest `median ± interval/2`-ish bounds implied by the interval.
///
/// # Panics
/// Panics when `atoms` is empty or unsorted, or when the median is outside
/// the atom range.
pub fn parallelism_distribution(atoms: &[u64], median: f64, interval: f64) -> DiscreteWeighted {
    assert!(!atoms.is_empty(), "need at least one atom");
    assert!(
        atoms.windows(2).all(|w| w[0] < w[1]),
        "atoms must be strictly ascending"
    );
    let lo = atoms[0] as f64;
    let hi = *atoms.last().unwrap() as f64;
    assert!(
        (lo..=hi).contains(&median),
        "median {median} outside atom range [{lo}, {hi}]"
    );
    if atoms.len() == 1 {
        return DiscreteWeighted::new(&[(atoms[0] as f64, 1.0)]);
    }

    // Index of the atom that should carry the median.
    let med_idx = atoms
        .iter()
        .position(|&a| a as f64 >= median)
        .unwrap_or(atoms.len() - 1);

    // Target extreme atoms: the interval is p95 - p5; for power-of-two
    // partitions the paper's intervals equal (top atom - bottom atom) of
    // the occupied range. Find atoms whose spread best matches.
    let mut best = (0, atoms.len() - 1);
    let mut best_err = f64::INFINITY;
    for i in 0..=med_idx {
        for j in med_idx..atoms.len() {
            if i == j {
                continue;
            }
            let spread = (atoms[j] - atoms[i]) as f64;
            let err = (spread - interval).abs();
            if err < best_err {
                best_err = err;
                best = (i, j);
            }
        }
    }
    let (lo_idx, hi_idx) = best;

    // Mass layout: 5.5% below-and-at the low atom, 5.5% at-and-above the
    // high atom (so p5 and p95 land on them), remainder geometrically
    // decaying around the median atom.
    let mut weights = vec![0.0; atoms.len()];
    weights[lo_idx] += 0.055;
    weights[hi_idx] += 0.055;
    let central = 0.89;
    // Geometric decay factor per step away from the median atom.
    let decay: f64 = 0.45;
    let mut total = 0.0;
    let mut raw = vec![0.0; atoms.len()];
    for (k, r) in raw.iter_mut().enumerate() {
        if k >= lo_idx && k <= hi_idx {
            *r = decay.powi((k as i32 - med_idx as i32).abs());
            total += *r;
        }
    }
    for (w, r) in weights.iter_mut().zip(&raw) {
        *w += central * r / total;
    }

    let pairs: Vec<(f64, f64)> = atoms
        .iter()
        .zip(&weights)
        .map(|(&a, &w)| (a as f64, w))
        .filter(|&(_, w)| w > 0.0)
        .collect();
    DiscreteWeighted::new(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_stats::dist::Distribution;
    use wl_stats::order::median_interval;
    use wl_stats::rng::seeded_rng;

    #[test]
    fn lognormal_calibration_closed_form() {
        for &(med, int) in &[(960.0, 57216.0), (19.0, 1168.0), (64.0, 1472.0), (45.0, 28498.0)] {
            let d = lognormal_from_median_interval(med, int);
            // Analytic check: quantiles of the fitted lognormal.
            let p95 = d.quantile(0.95);
            let p05 = d.quantile(0.05);
            assert!(
                ((p95 - p05) - int).abs() / int < 0.01,
                "interval: {} vs {int}",
                p95 - p05
            );
            assert!((d.median() - med).abs() / med < 1e-9);
        }
    }

    #[test]
    fn lognormal_calibration_empirical() {
        let d = lognormal_from_median_interval(68.0, 9064.0);
        let mut rng = seeded_rng(101);
        let xs = d.sample_n(&mut rng, 200_000);
        let (med, int) = median_interval(&xs, 0.90);
        assert!((med - 68.0).abs() / 68.0 < 0.03, "median {med}");
        assert!((int - 9064.0).abs() / 9064.0 < 0.08, "interval {int}");
    }

    #[test]
    fn parallelism_lanl_partitions() {
        // LANL CM-5: power-of-two partitions from 32; Table 1 says
        // median 64, interval 224 (= 256 - 32).
        let atoms = [32u64, 64, 128, 256, 512, 1024];
        let d = parallelism_distribution(&atoms, 64.0, 224.0);
        let mut rng = seeded_rng(102);
        let xs = d.sample_n(&mut rng, 100_000);
        let (med, int) = median_interval(&xs, 0.90);
        assert_eq!(med, 64.0);
        assert!((int - 224.0).abs() <= 32.0, "interval {int}");
    }

    #[test]
    fn parallelism_small_machine() {
        // NASA-like: median 1, interval 31 (= 32 - 1).
        let atoms = [1u64, 2, 4, 8, 16, 32, 64, 128];
        let d = parallelism_distribution(&atoms, 1.0, 31.0);
        let mut rng = seeded_rng(103);
        let xs = d.sample_n(&mut rng, 100_000);
        let (med, int) = median_interval(&xs, 0.90);
        assert_eq!(med, 1.0);
        assert!((int - 31.0).abs() <= 4.0, "interval {int}");
    }

    #[test]
    fn single_atom_distribution() {
        let d = parallelism_distribution(&[8], 8.0, 0.1);
        let mut rng = seeded_rng(104);
        assert_eq!(d.sample(&mut rng), 8.0);
    }

    #[test]
    #[should_panic(expected = "outside atom range")]
    fn median_outside_atoms_panics() {
        parallelism_distribution(&[2, 4], 16.0, 2.0);
    }

    #[test]
    fn weights_are_a_distribution() {
        let atoms = [1u64, 2, 4, 8, 16, 32, 64];
        let d = parallelism_distribution(&atoms, 4.0, 62.0);
        // All atoms present with positive probability summing to one is
        // guaranteed by DiscreteWeighted; verify sane sampling bounds.
        let mut rng = seeded_rng(105);
        for _ in 0..1000 {
            let v = d.sample(&mut rng) as u64;
            assert!(atoms.contains(&v));
        }
    }
}
