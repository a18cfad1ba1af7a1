//! Section 6's log-homogeneity test as an API.
//!
//! "Co-Plot could be used in this manner to test any new log, by dividing
//! it into several parts and mapping it with all the other workloads. This
//! should tell whether the log is homogeneous, and whether it contains
//! time intervals in which work on the logged machine had unusual
//! patterns."
//!
//! The test splits the log into `n` consecutive periods, co-plots the
//! periods together with the full log (plus any reference workloads), and
//! flags periods whose map distance from the full log exceeds an adaptive
//! threshold — exactly how the paper spotted the LANL CM-5's wild second
//! year.

use coplot::{Coplot, CoplotError, CoplotResult};
use wl_swf::{Workload, WorkloadStats};

use crate::matrix::varying_stats_matrix;

/// Verdict for one period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodVerdict {
    /// Period name ("P1", "P2", ...).
    pub name: String,
    /// Map distance from the full log.
    pub distance_from_full: f64,
    /// True when the period is flagged as an unusual interval.
    pub outlier: bool,
}

/// Overall homogeneity verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomogeneityVerdict {
    /// All periods stay near the full log: past predicts future here.
    Homogeneous,
    /// At least one period drifted far: the log has unusual intervals.
    Heterogeneous,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct HomogeneityReport {
    /// One verdict per period, in time order.
    pub periods: Vec<PeriodVerdict>,
    /// Overall verdict.
    pub verdict: HomogeneityVerdict,
    /// The underlying Co-plot result (periods + full log + references).
    pub coplot: CoplotResult,
    /// Requested variables left off the map because they take one value
    /// across the log, its periods and the references (z-scores are
    /// undefined for them), in request order.
    pub dropped: Vec<String>,
    /// The outlier threshold used (median period distance x the factor).
    pub threshold: f64,
}

/// Most periods [`test_homogeneity`] accepts (see
/// [`HomogeneityConfig::periods`]).
const MAX_PERIODS: usize = 256;

/// Configuration for the homogeneity test.
#[derive(Debug, Clone, Copy)]
pub struct HomogeneityConfig {
    /// Number of consecutive periods to split into (the paper used 4);
    /// from 2 to 256, because each period is one observation of the map
    /// and the map's pair tables grow with the square of their count.
    pub periods: usize,
    /// Relative margin above the median period distance before a period is
    /// flagged (the threshold is median + max(3*MAD, margin*median,
    /// absolute floor); the full log is a mixture of its periods, so even
    /// normal periods sit at some common distance from it — outliers are
    /// periods that exceed that common level).
    pub margin: f64,
    /// MDS seed.
    pub seed: u64,
}

impl Default for HomogeneityConfig {
    fn default() -> Self {
        HomogeneityConfig {
            periods: 4,
            margin: 0.25,
            seed: 6,
        }
    }
}

/// Run the homogeneity test on `log`, mapping its periods together with
/// the full log and any `references` (other workloads that anchor the
/// space, as the paper's Figure 3 kept all of Table 1's observations).
///
/// `codes` selects the variables; the paper's Figure 3 set was
/// `["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im"]`. Codes that take one value
/// across every mapped workload are dropped and reported, as
/// [`crate::stream`] drops them per frame.
///
/// # Errors
/// [`CoplotError::InvalidConfig`] for fewer than two or more than 256
/// periods or an unknown code, [`CoplotError::Normalization`] when fewer
/// than two codes vary, plus any error from the underlying analysis.
pub fn test_homogeneity(
    log: &Workload,
    references: &[Workload],
    codes: &[&str],
    config: &HomogeneityConfig,
) -> Result<HomogeneityReport, CoplotError> {
    if config.periods < 2 {
        return Err(CoplotError::InvalidConfig(format!(
            "need at least two periods, got {}",
            config.periods
        )));
    }
    if config.periods > MAX_PERIODS {
        return Err(CoplotError::InvalidConfig(format!(
            "at most {MAX_PERIODS} periods, got {}",
            config.periods
        )));
    }
    let parts = log.split_periods(config.periods, "P");

    let mut all: Vec<Workload> = Vec::with_capacity(parts.len() + 1 + references.len());
    all.push(log.clone());
    all.extend(parts.iter().cloned());
    all.extend(references.iter().cloned());

    let stats: Vec<WorkloadStats> = all
        .iter()
        .map(|w| WorkloadStats::compute(w).with_load_imputation())
        .collect();
    let (data, dropped) = varying_stats_matrix(&stats, codes)?;
    let result = Coplot::new().seed(config.seed).analyze(&data)?;

    let mut distances: Vec<(String, f64)> = parts
        .iter()
        .map(|p| {
            let d = result
                .map_distance(&log.name, &p.name)
                .expect("period present in the map");
            (p.name.clone(), d)
        })
        .collect();

    // Adaptive threshold: the periods of a homogeneous log share a common
    // distance from the full log (which averages them), so flag periods
    // that exceed the median distance by a robust margin.
    let ds: Vec<f64> = distances.iter().map(|(_, d)| *d).collect();
    let median = wl_stats::median(&ds);
    let deviations: Vec<f64> = ds.iter().map(|d| (d - median).abs()).collect();
    let mad = wl_stats::median(&deviations);
    let threshold = median + (3.0 * mad).max(config.margin * median).max(0.15);

    let periods: Vec<PeriodVerdict> = distances
        .drain(..)
        .map(|(name, d)| PeriodVerdict {
            name,
            distance_from_full: d,
            outlier: d > threshold,
        })
        .collect();
    let verdict = if periods.iter().any(|p| p.outlier) {
        HomogeneityVerdict::Heterogeneous
    } else {
        HomogeneityVerdict::Homogeneous
    };

    Ok(HomogeneityReport {
        periods,
        verdict,
        coplot: result,
        dropped,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_logsynth::machines::MachineId;
    use wl_logsynth::periods::{lanl_over_time, sdsc_over_time};

    const CODES: [&str; 7] = ["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im"];

    fn references() -> Vec<Workload> {
        vec![
            MachineId::Ctc.generate(2000, 3),
            MachineId::Nasa.generate(2000, 3),
            MachineId::Kth.generate(2000, 3),
            MachineId::Llnl.generate(2000, 3),
        ]
    }

    #[test]
    fn lanl_like_log_flagged_heterogeneous() {
        // The synthesized LANL two-year log has the paper's wild L3 period.
        let log = lanl_over_time(9, 2000);
        let report =
            test_homogeneity(&log, &references(), &CODES, &HomogeneityConfig::default())
                .unwrap();
        assert_eq!(report.verdict, HomogeneityVerdict::Heterogeneous);
        // The outlier is the third period.
        let p3 = report.periods.iter().find(|p| p.name == "P3").unwrap();
        assert!(p3.outlier, "P3 distance {}", p3.distance_from_full);
    }

    #[test]
    fn stable_log_is_homogeneous() {
        // A single-period-style log (one stream, stationary) splits into
        // statistically identical parts.
        let log = MachineId::Kth.generate(8000, 10);
        let report =
            test_homogeneity(&log, &references(), &CODES, &HomogeneityConfig::default())
                .unwrap();
        assert_eq!(
            report.verdict,
            HomogeneityVerdict::Homogeneous,
            "periods: {:?}",
            report.periods
        );
    }

    #[test]
    fn report_has_one_verdict_per_period() {
        let log = sdsc_over_time(11, 1500);
        let config = HomogeneityConfig {
            periods: 4,
            ..Default::default()
        };
        let report = test_homogeneity(&log, &references(), &CODES, &config).unwrap();
        assert_eq!(report.periods.len(), 4);
        assert_eq!(report.periods[0].name, "P1");
        for p in &report.periods {
            assert!(p.distance_from_full.is_finite());
        }
    }

    #[test]
    fn constant_variables_are_dropped_and_reported() {
        // CTC's median parallelism is the same in every period, so `Pm`
        // cannot be z-scored across the log and its periods.
        let log = MachineId::Ctc.generate(4000, 3);
        let codes = ["Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im"];
        let config = HomogeneityConfig::default();
        let report = test_homogeneity(&log, &[], &codes, &config).unwrap();
        let dropped = &report.dropped;
        assert!(dropped.contains(&"Pm".to_string()), "{dropped:?}");
        assert_eq!(report.periods.len(), 4);
        for d in dropped {
            assert!(report.coplot.arrow(d).is_none(), "{d} is mapped");
        }

        // With fewer than two varying codes, normalization reports it.
        let err = test_homogeneity(&log, &[], &["Pm", "Rm"], &config).unwrap_err();
        assert!(matches!(err, CoplotError::Normalization(_)), "{err}");
    }

    #[test]
    fn one_period_rejected() {
        let log = MachineId::Kth.generate(500, 1);
        let config = HomogeneityConfig {
            periods: 1,
            ..Default::default()
        };
        let err = test_homogeneity(&log, &[], &CODES, &config).unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn too_many_periods_rejected() {
        let log = MachineId::Kth.generate(500, 1);
        let config = HomogeneityConfig {
            periods: 257,
            ..Default::default()
        };
        let err = test_homogeneity(&log, &[], &CODES, &config).unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");
    }
}
