//! The Co-plot multivariate analysis method (Talby, Feitelson, Raveh;
//! IPPS 1999).
//!
//! Co-plot maps `n` observations described by `p` variables into a single
//! two-dimensional picture that shows observations *and* variables at once.
//! It is designed for exactly the regime workload studies live in: few
//! observations (ten production logs, five models), comparatively many
//! variables, and no distributional assumptions. The method has four stages,
//! each implemented by one module here:
//!
//! 1. **Normalization** ([`data`]): each variable column is centered and
//!    scaled to z-scores so variables with different units can be related
//!    (Eq. 1 of the paper).
//! 2. **Dissimilarity** ([`dissimilarity`]): a symmetric `n x n` matrix of
//!    city-block distances between observation rows (Eq. 2).
//! 3. **Multidimensional scaling** ([`mds`]): the matrix is mapped into the
//!    plane such that the *order* of map distances matches the order of
//!    dissimilarities, scored by Guttman's coefficient of alienation
//!    ([`alienation`], Eqs. 3-4); values below 0.15 are considered good.
//! 4. **Variable arrows** ([`arrows`]): each variable is drawn as an arrow
//!    from the centroid pointing in the direction that maximizes the
//!    correlation between the variable's values and the projections of the
//!    observation points onto the arrow. Highly correlated variables point
//!    the same way; the per-variable maximal correlations are the stage-4
//!    goodness-of-fit measures, and low-correlation variables should be
//!    removed and the analysis re-run.
//!
//! The [`pipeline`] module ties the stages into the [`pipeline::Coplot`]
//! builder, including the paper's variable-elimination workflow, and
//! [`render`] draws the result as text or SVG. `Coplot` configures the one
//! engine, [`engine::CoplotEngine`]: the four stages as direct calls, the
//! normalized matrix and dissimilarity contributions computed once per run
//! or subset session and reused by every elimination round or subset,
//! parallel deterministic MDS restarts, and per-stage
//! [`engine::StageReport`] instrumentation. The engine holds no data
//! between calls. Invalid inputs are reported as [`error::CoplotError`]
//! values, never panics.
//!
//! ```
//! use coplot::{DataMatrix, Coplot};
//!
//! // Four observations, two correlated variables and one inverse one.
//! let data = DataMatrix::from_rows(
//!     vec!["a".into(), "b".into(), "c".into(), "d".into()],
//!     vec!["x".into(), "y".into(), "anti".into()],
//!     &[
//!         &[1.0, 2.0, 8.0],
//!         &[2.0, 2.5, 6.0],
//!         &[3.0, 3.5, 4.0],
//!         &[4.0, 4.0, 2.0],
//!     ],
//! );
//! let result = Coplot::new().seed(7).analyze(&data).unwrap();
//! assert!(result.alienation < 0.15, "good fit expected");
//! assert_eq!(result.arrows.len(), 3);
//! ```

pub mod alienation;
pub mod api;
pub mod arrows;
pub mod data;
pub mod dissimilarity;
pub mod engine;
pub mod error;
pub mod mds;
pub mod pipeline;
pub mod render;
pub mod runtime;

pub use alienation::{coefficient_of_alienation, mu_statistic};
pub use api::{
    AnalysisRequest, AnalysisResponse, ApiError, ApiErrorKind, ArrowOut, CoplotOut, DatasetSpec,
    Envelope, EnvelopePayload, ErrorBody, HurstOut, Operation, ShardPart, ShardRequest,
    ShardResponse, SubsetEntry, SubsetOut, API_VERSIONS,
};
pub use arrows::{fit_arrow, try_fit_arrow, Arrow};
pub use data::{DataMatrix, Imputation, NormalizedMatrix};
pub use dissimilarity::{DissimilarityMatrix, Metric};
pub use engine::{
    CoplotEngine, PairContributions, Selection, SharedSubsetSession, Stage, StageReport,
    StageReportTable,
};
pub use error::CoplotError;
pub use mds::{nonmetric_mds, nonmetric_mds_warm, restart_seed, MdsConfig, MdsSolution};
pub use pipeline::{Coplot, CoplotResult};
pub use runtime::Runtime;
