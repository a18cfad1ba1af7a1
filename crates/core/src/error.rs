//! The workspace-wide error taxonomy for Co-plot analyses.
//!
//! Every public entry point of the pipeline returns [`CoplotError`] instead
//! of panicking on invalid input, so callers (the CLI, the reproduction
//! binaries, the analysis crate) can report *which* stage rejected the data
//! and why. Errors from the substrate crates are converted via `From`:
//! [`wl_linalg::LinalgError`] and [`wl_stats::StatsError`]. A trace that
//! does not parse is reported as `wl_trace::ParseError`, which callers
//! fold into [`CoplotError::InvalidConfig`] with the file it came from.

use std::fmt;
use wl_linalg::LinalgError;
use wl_stats::StatsError;

/// Why an analysis could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CoplotError {
    /// Stage-1 normalization failed (missing data under `Forbid`, constant
    /// variable, too few observations...).
    Normalization(String),
    /// A variable's arrow could not be fitted.
    DegenerateVariable(String),
    /// The input had no observations or no variables at all.
    EmptyInput {
        /// What was empty ("observations", "variables", "workloads"...).
        what: &'static str,
    },
    /// Fewer observations than the stage can work with.
    TooFewObservations {
        /// How many observations were supplied.
        n: usize,
        /// The minimum the stage needs.
        min: usize,
    },
    /// Two dimensions that must agree did not (ragged rows, arrow column vs
    /// configuration, embedding dimension out of range...).
    DimensionMismatch {
        /// Which stage or structure rejected the input.
        context: String,
        /// The dimension it expected.
        expected: usize,
        /// The dimension it got.
        got: usize,
    },
    /// A cell or derived quantity was NaN or infinite.
    NonFinite(String),
    /// A caller-supplied knob was out of range (subset size, period count,
    /// unknown variable code...).
    InvalidConfig(String),
    /// A deadline expired between pipeline stages (the engine's and the
    /// serving layer's stage-boundary abort; the stage named is the one
    /// that was about to run).
    DeadlineExceeded {
        /// The stage that would have run next.
        stage: &'static str,
    },
    /// A streaming consumer configured with the `reject` out-of-order policy
    /// received job records whose submit timestamps were not already sorted
    /// ascending. `inversions` counts the adjacent descending pairs seen in
    /// the original record order.
    UnsortedInput {
        /// Adjacent submit-time inversions in arrival order.
        inversions: usize,
    },
    /// A linear-algebra kernel rejected its input.
    Linalg(LinalgError),
    /// A statistics kernel rejected its input.
    Stats(StatsError),
}

impl fmt::Display for CoplotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoplotError::Normalization(msg) => write!(f, "normalization failed: {msg}"),
            CoplotError::DegenerateVariable(name) => {
                write!(f, "variable {name:?} has a degenerate arrow fit")
            }
            CoplotError::EmptyInput { what } => write!(f, "empty input: no {what}"),
            CoplotError::TooFewObservations { n, min } => {
                write!(f, "need at least {min} observations, have {n}")
            }
            CoplotError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(f, "{context}: dimension mismatch (expected {expected}, got {got})"),
            CoplotError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
            CoplotError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoplotError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded before stage {stage}")
            }
            CoplotError::UnsortedInput { inversions } => write!(
                f,
                "job records are not sorted by submit time \
                 ({inversions} adjacent inversions; use the sort policy to accept them)"
            ),
            CoplotError::Linalg(e) => write!(f, "linear algebra: {e}"),
            CoplotError::Stats(e) => write!(f, "statistics: {e}"),
        }
    }
}

impl std::error::Error for CoplotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoplotError::Linalg(e) => Some(e),
            CoplotError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoplotError {
    fn from(e: LinalgError) -> Self {
        CoplotError::Linalg(e)
    }
}

impl From<StatsError> for CoplotError {
    fn from(e: StatsError) -> Self {
        CoplotError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_errors_convert() {
        let e: CoplotError = LinalgError::NonFinite { context: "jacobi_eigen" }.into();
        assert!(matches!(e, CoplotError::Linalg(_)));
        assert!(e.to_string().contains("jacobi_eigen"));
        let e: CoplotError = StatsError::EmptyInput { context: "pearson" }.into();
        assert!(matches!(e, CoplotError::Stats(_)));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e: CoplotError = LinalgError::NonFinite { context: "x" }.into();
        assert!(e.source().is_some());
        assert!(CoplotError::InvalidConfig("x".into()).source().is_none());
    }

    #[test]
    fn display_covers_new_variants() {
        let e = CoplotError::TooFewObservations { n: 2, min: 3 };
        assert!(e.to_string().contains("at least 3"));
        let e = CoplotError::EmptyInput { what: "workloads" };
        assert!(e.to_string().contains("workloads"));
        let e = CoplotError::DeadlineExceeded { stage: "embedding" };
        assert!(e.to_string().contains("deadline"));
        assert!(e.to_string().contains("embedding"));
        let e = CoplotError::UnsortedInput { inversions: 4 };
        assert!(e.to_string().contains("4 adjacent inversions"));
    }
}
