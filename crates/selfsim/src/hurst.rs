//! A uniform interface over the three Hurst estimators of Table 3.

use crate::periodogram::periodogram_hurst;
use crate::rs::rs_hurst;
use crate::vartime::variance_time_hurst;

/// Which estimator to apply (the three columns per variable in Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HurstEstimator {
    /// Rescaled-range (pox plot) analysis.
    RsAnalysis,
    /// Variance-time plot.
    VarianceTime,
    /// Low-frequency periodogram slope.
    Periodogram,
}

impl HurstEstimator {
    /// All three, in Table 3 column order.
    pub const ALL: [HurstEstimator; 3] = [
        HurstEstimator::RsAnalysis,
        HurstEstimator::VarianceTime,
        HurstEstimator::Periodogram,
    ];

    /// Table 3's column labels.
    pub fn label(&self) -> &'static str {
        match self {
            HurstEstimator::RsAnalysis => "R/S",
            HurstEstimator::VarianceTime => "V-T",
            HurstEstimator::Periodogram => "Per.",
        }
    }

    /// Estimate the Hurst parameter of a series. `None` when the series is
    /// too short or degenerate for this estimator.
    pub fn estimate(&self, x: &[f64]) -> Option<f64> {
        match self {
            HurstEstimator::RsAnalysis => rs_hurst(x),
            HurstEstimator::VarianceTime => variance_time_hurst(x),
            HurstEstimator::Periodogram => periodogram_hurst(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnDaviesHarte;
    use wl_stats::rng::seeded_rng;

    /// All three estimators must recover the planted H of exact fGn within
    /// a tolerance — this is the cross-validation experiment backing the
    /// paper's Table 3 methodology.
    #[test]
    fn estimators_recover_planted_hurst() {
        let n = 16384;
        for &h in &[0.5, 0.6, 0.7, 0.8, 0.9] {
            let gen = FgnDaviesHarte::new(h, n).unwrap();
            let mut rng = seeded_rng(1000 + (h * 100.0) as u64);
            let x = gen.generate(&mut rng);
            for est in HurstEstimator::ALL {
                let got = est.estimate(&x).unwrap();
                // R/S is known to be biased toward 0.5 at strong H; allow a
                // generous but meaningful band.
                let tol = match est {
                    HurstEstimator::RsAnalysis => 0.15,
                    _ => 0.08,
                };
                assert!(
                    (got - h).abs() < tol,
                    "{} at H={h}: estimated {got}",
                    est.label()
                );
            }
        }
    }

    #[test]
    fn short_series_yield_no_estimates() {
        for est in HurstEstimator::ALL {
            assert_eq!(est.estimate(&[1.0, 2.0]), None, "{}", est.label());
        }
    }

    #[test]
    fn labels_are_table3_names() {
        assert_eq!(HurstEstimator::RsAnalysis.label(), "R/S");
        assert_eq!(HurstEstimator::VarianceTime.label(), "V-T");
        assert_eq!(HurstEstimator::Periodogram.label(), "Per.");
    }
}
