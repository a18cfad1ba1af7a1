//! The full four-stage Co-plot pipeline behind a builder API.
//!
//! [`Coplot`] is the one configuration of the pipeline. [`Coplot::analyze`]
//! builds a [`CoplotEngine`] and runs it on all variables. Callers that want
//! the paper's variable elimination ([`Selection::Eliminate`]), subset
//! sessions or per-stage instrumentation hold an engine directly (see
//! [`Coplot::engine`]).

use std::time::Instant;

use crate::arrows::Arrow;
use crate::data::{DataMatrix, Imputation};
use crate::dissimilarity::{DissimilarityMatrix, Metric};
use crate::engine::{CoplotEngine, Selection};
pub use crate::error::CoplotError;
use crate::mds::MdsConfig;
use wl_linalg::Matrix;

/// Builder for a Co-plot analysis: the stage-2 metric, the missing-cell
/// policy, the MDS seed, restarts, iteration cap and threads, and a
/// deadline. A run always tries every MDS start (the classical start plus
/// `restarts` random ones) and keeps the best.
#[derive(Debug, Clone)]
pub struct Coplot {
    pub(crate) metric: Metric,
    pub(crate) imputation: Imputation,
    pub(crate) mds: MdsConfig,
    pub(crate) deadline: Option<Instant>,
}

impl Default for Coplot {
    fn default() -> Self {
        Coplot {
            metric: Metric::CityBlock,
            // Table 1 has N/A cells; mapping them to "average" (z = 0) is
            // the least-commitment default for exploratory runs. Callers
            // reproducing the paper's exact imputations pre-fill the matrix
            // and may switch to `Forbid`.
            imputation: Imputation::ColumnMean,
            mds: MdsConfig::default(),
            deadline: None,
        }
    }
}

impl Coplot {
    /// A pipeline with the paper's defaults: city-block dissimilarity,
    /// column-mean imputation, classical init + 8 random MDS restarts.
    pub fn new() -> Self {
        Coplot::default()
    }

    /// Choose the stage-2 metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Choose the missing-cell policy.
    pub fn imputation(mut self, imputation: Imputation) -> Self {
        self.imputation = imputation;
        self
    }

    /// Seed the MDS restarts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.mds.seed = seed;
        self
    }

    /// Number of random restarts (beyond the classical-scaling start).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.mds.restarts = restarts;
        self
    }

    /// Majorization iteration cap per start.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.mds.max_iterations = iters;
        self
    }

    /// Worker threads for the MDS restarts (1 = sequential; results are
    /// bit-identical for any thread count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.mds.threads = threads;
        self
    }

    /// Refuse to start a stage past `deadline` (`None`, the default, never
    /// refuses): the run fails with [`CoplotError::DeadlineExceeded`]. A
    /// stage that has started runs to completion, so a run that finishes
    /// is bit-identical to one without a deadline (see
    /// [`crate::engine`]).
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// A [`CoplotEngine`] with this builder's configuration — the way to run
    /// the paper's variable elimination, open subset sessions and read
    /// per-stage [`StageReport`](crate::engine::StageReport)s.
    pub fn engine(&self) -> CoplotEngine {
        CoplotEngine::new(self.clone())
    }

    /// Run all four stages on a data matrix.
    ///
    /// # Errors
    /// Any stage's [`CoplotError`]: normalization failures, degenerate
    /// inputs, non-finite data, or a degenerate arrow fit.
    pub fn analyze(&self, data: &DataMatrix) -> Result<CoplotResult, CoplotError> {
        self.engine().run(data, &Selection::All)
    }
}

/// The output of a Co-plot analysis: the map, the arrows, and the two
/// goodness-of-fit layers.
#[derive(Debug, Clone)]
pub struct CoplotResult {
    /// Observation names, matching `coords` rows.
    pub observations: Vec<String>,
    /// `n x 2` map coordinates (centered, unit RMS radius).
    pub coords: Matrix,
    /// One fitted arrow per surviving variable.
    pub arrows: Vec<Arrow>,
    /// Stage-3 goodness of fit: Guttman's coefficient of alienation.
    pub alienation: f64,
    /// Kruskal stress-1 (diagnostic).
    pub stress: f64,
    /// The stage-2 dissimilarities (kept for diagnostics/rendering).
    pub dissimilarities: DissimilarityMatrix,
    /// Variables dropped by a [`Selection::Eliminate`] run, in removal
    /// order; empty for every other selection.
    pub removed: Vec<String>,
}

impl CoplotResult {
    /// Position of an observation by name.
    pub fn position(&self, name: &str) -> Option<(f64, f64)> {
        let i = self.observations.iter().position(|o| o == name)?;
        Some((self.coords[(i, 0)], self.coords[(i, 1)]))
    }

    /// Arrow for a variable by name.
    pub fn arrow(&self, name: &str) -> Option<&Arrow> {
        self.arrows.iter().find(|a| a.name == name)
    }

    /// Mean of the absolute arrow correlations (the paper's stage-4 summary
    /// statistic: "average of variable correlations").
    pub fn mean_arrow_correlation(&self) -> f64 {
        if self.arrows.is_empty() {
            return f64::NAN;
        }
        self.arrows.iter().map(|a| a.correlation.abs()).sum::<f64>() / self.arrows.len() as f64
    }

    /// Smallest absolute arrow correlation.
    pub fn min_arrow_correlation(&self) -> f64 {
        self.arrows
            .iter()
            .map(|a| a.correlation.abs())
            .fold(f64::INFINITY, f64::min)
    }

    /// Map distance between two observations by name.
    pub fn map_distance(&self, a: &str, b: &str) -> Option<f64> {
        let (ax, ay) = self.position(a)?;
        let (bx, by) = self.position(b)?;
        Some(((ax - bx).powi(2) + (ay - by).powi(2)).sqrt())
    }

    /// Projection of an observation onto a variable's arrow — proportional
    /// to how far above/below average the observation is in that variable
    /// (positive = in the arrow's direction = above average).
    pub fn projection(&self, observation: &str, variable: &str) -> Option<f64> {
        let (x, y) = self.position(observation)?;
        let a = self.arrow(variable)?;
        Some(x * a.direction[0] + y * a.direction[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small synthetic data set with clear structure: two clusters of
    /// observations and three variable groups (x-like, y-like, anti-x).
    fn structured_data() -> DataMatrix {
        DataMatrix::from_rows(
            vec![
                "lo1".into(),
                "lo2".into(),
                "lo3".into(),
                "hi1".into(),
                "hi2".into(),
                "hi3".into(),
            ],
            vec!["a".into(), "a2".into(), "anti".into(), "b".into()],
            &[
                &[1.0, 1.1, 9.0, 5.0],
                &[1.2, 1.0, 8.8, 3.0],
                &[0.9, 1.2, 9.1, 4.0],
                &[5.0, 5.2, 1.0, 4.2],
                &[5.3, 4.9, 1.2, 2.8],
                &[4.8, 5.1, 0.8, 5.1],
            ],
        )
    }

    #[test]
    fn analyze_produces_good_fit_on_structured_data() {
        let r = Coplot::new().seed(1).analyze(&structured_data()).unwrap();
        assert!(r.alienation < 0.15, "theta = {}", r.alienation);
        assert_eq!(r.observations.len(), 6);
        assert_eq!(r.arrows.len(), 4);
    }

    #[test]
    fn correlated_variables_get_parallel_arrows() {
        let r = Coplot::new().seed(2).analyze(&structured_data()).unwrap();
        let a = r.arrow("a").unwrap();
        let a2 = r.arrow("a2").unwrap();
        let anti = r.arrow("anti").unwrap();
        assert!(a.cos_angle_with(a2) > 0.95, "cos = {}", a.cos_angle_with(a2));
        assert!(
            a.cos_angle_with(anti) < -0.95,
            "cos = {}",
            a.cos_angle_with(anti)
        );
    }

    #[test]
    fn clusters_are_separated_in_the_map() {
        let r = Coplot::new().seed(3).analyze(&structured_data()).unwrap();
        // Every within-cluster distance is smaller than every
        // between-cluster distance.
        let lo = ["lo1", "lo2", "lo3"];
        let hi = ["hi1", "hi2", "hi3"];
        let mut max_within: f64 = 0.0;
        for g in [&lo, &hi] {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    max_within = max_within.max(r.map_distance(g[i], g[k]).unwrap());
                }
            }
        }
        let mut min_between = f64::INFINITY;
        for a in &lo {
            for b in &hi {
                min_between = min_between.min(r.map_distance(a, b).unwrap());
            }
        }
        assert!(
            max_within < min_between,
            "within {max_within} vs between {min_between}"
        );
    }

    #[test]
    fn projections_recover_above_below_average() {
        let r = Coplot::new().seed(4).analyze(&structured_data()).unwrap();
        // hi* observations are above average in variable "a": positive
        // projections; lo* below: negative.
        for o in ["hi1", "hi2", "hi3"] {
            assert!(r.projection(o, "a").unwrap() > 0.0, "{o}");
        }
        for o in ["lo1", "lo2", "lo3"] {
            assert!(r.projection(o, "a").unwrap() < 0.0, "{o}");
        }
    }

    #[test]
    fn elimination_drops_noise_variable() {
        // Four variables define a strong two-dimensional structure (two
        // correlated pairs); a fifth independent variable has nowhere to go
        // in the plane and must be eliminated.
        let d = DataMatrix::from_rows(
            (1..=8).map(|i| format!("o{i}")).collect(),
            vec![
                "x".into(),
                "x2".into(),
                "y".into(),
                "y2".into(),
                "noise".into(),
            ],
            &[
                &[1.0, 1.1, 8.0, 7.9, 3.0],
                &[2.0, 2.2, 1.0, 1.2, -1.0],
                &[3.0, 2.9, 6.0, 6.1, 4.0],
                &[4.0, 4.1, 2.0, 2.1, -3.0],
                &[5.0, 4.8, 7.0, 7.2, 3.5],
                &[6.0, 6.2, 3.0, 2.8, -2.0],
                &[7.0, 7.1, 5.0, 5.2, 2.0],
                &[8.0, 7.9, 4.0, 4.1, -4.0],
            ],
        );
        // With seed 5 the four structure variables fit with r >= 0.985
        // while the extra variable only reaches ~0.91: a threshold between
        // the two eliminates exactly it.
        let eliminate = Selection::Eliminate {
            min_correlation: 0.95,
        };
        let r = Coplot::new().seed(5).engine().run(&d, &eliminate).unwrap();
        assert!(
            r.removed.contains(&"noise".to_string()),
            "removed = {:?}",
            r.removed
        );
        assert!(r.arrow("x").is_some() && r.arrow("y").is_some());
        assert!(r.min_arrow_correlation() >= 0.95 || r.arrows.len() == 2);
    }

    #[test]
    fn elimination_keeps_at_least_two_variables() {
        let d = DataMatrix::from_rows(
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
            vec!["u".into(), "v".into()],
            &[&[1.0, 3.0], &[2.0, 1.0], &[3.0, 4.0], &[4.0, 2.0]],
        );
        // Absurd threshold: still returns a 2-variable result.
        let eliminate = Selection::Eliminate {
            min_correlation: 0.9999,
        };
        let r = Coplot::new().seed(6).engine().run(&d, &eliminate).unwrap();
        assert!(r.arrows.len() >= 2);
        assert!(r.removed.is_empty());
    }

    #[test]
    fn summary_statistics() {
        let r = Coplot::new().seed(7).analyze(&structured_data()).unwrap();
        let mean = r.mean_arrow_correlation();
        let min = r.min_arrow_correlation();
        assert!(min <= mean && mean <= 1.0 && min >= 0.0);
    }

    #[test]
    fn unknown_names_return_none() {
        let r = Coplot::new().analyze(&structured_data()).unwrap();
        assert!(r.position("nope").is_none());
        assert!(r.arrow("nope").is_none());
        assert!(r.map_distance("lo1", "nope").is_none());
    }

    #[test]
    fn forbid_imputation_propagates_error() {
        let d = DataMatrix::from_optional_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec!["v".into(), "w".into()],
            &[
                &[Some(1.0), Some(2.0)],
                &[None, Some(3.0)],
                &[Some(2.0), Some(4.0)],
            ],
        );
        let err = Coplot::new()
            .imputation(Imputation::Forbid)
            .analyze(&d)
            .unwrap_err();
        assert!(matches!(err, CoplotError::Normalization(_)));
    }
}
