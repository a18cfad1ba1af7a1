//! The two-sample Kolmogorov-Smirnov statistic.
//!
//! Used to compare two workloads' marginals directly (a synthesized log
//! against its model, a re-fitted model against the sample it was fitted
//! to). The paper compares distributions through medians and intervals; KS
//! distances give the full-CDF view.

/// Two-sample KS statistic: the supremum distance between two empirical
/// CDFs.
///
/// Returns `None` when either sample is empty.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
    sb.sort_by(|x, y| x.partial_cmp(y).unwrap());

    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Exponential, LogNormal};
    use crate::rng::seeded_rng;

    #[test]
    fn two_sample_same_distribution_small() {
        let d = LogNormal::new(1.0, 0.8);
        let mut rng = seeded_rng(304);
        let a = d.sample_n(&mut rng, 10_000);
        let b = d.sample_n(&mut rng, 10_000);
        let ks = ks_two_sample(&a, &b).unwrap();
        assert!(ks < 0.03, "ks = {ks}");
    }

    #[test]
    fn two_sample_different_distributions_large() {
        let mut rng = seeded_rng(304);
        let a = Exponential::new(1.0).sample_n(&mut rng, 5000);
        let b = Exponential::new(3.0).sample_n(&mut rng, 5000);
        let ks = ks_two_sample(&a, &b).unwrap();
        assert!(ks > 0.2, "ks = {ks}");
    }

    #[test]
    fn two_sample_identical_vectors_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_two_sample(&a, &a), Some(0.0));
    }

    #[test]
    fn hand_computed_two_sample() {
        // a = {1, 3}, b = {2}: ECDFs differ by 0.5 at x in [1,2) and [2,3).
        let d = ks_two_sample(&[1.0, 3.0], &[2.0]).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_none() {
        assert!(ks_two_sample(&[], &[1.0]).is_none());
        assert!(ks_two_sample(&[1.0], &[]).is_none());
    }

    #[test]
    fn statistic_bounded() {
        let d = ks_two_sample(&[1.0, 2.0], &[100.0, 200.0]).unwrap();
        assert!((d - 1.0).abs() < 1e-12, "disjoint supports give D = 1");
    }
}
