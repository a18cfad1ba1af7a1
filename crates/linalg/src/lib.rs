//! Small dense linear-algebra substrate for the Co-plot workload suite.
//!
//! The Co-plot method (and its multidimensional-scaling stage in particular)
//! needs only modest linear algebra on small matrices: the analyses in the
//! paper never exceed ~20 observations. This crate therefore implements a
//! simple, dependency-free dense [`Matrix`] type together with the handful of
//! numeric kernels the rest of the workspace needs:
//!
//! * basic matrix arithmetic and row/column access ([`matrix`]),
//! * symmetric eigendecomposition via the cyclic Jacobi method ([`eigen`]),
//! * double centering of squared-distance matrices for classical
//!   (Torgerson) scaling ([`center`]),
//! * the closed-form 2x2 solve behind the arrow fit ([`solve`]),
//! * orthogonal Procrustes alignment of 2-D configurations, used to compare
//!   MDS outputs that are only defined up to rotation/reflection
//!   ([`procrustes`]),
//! * the four-lane extrema scan of `wl-selfsim`'s R/S analysis
//!   ([`vecops`]).
//!
//! Everything is `f64`; none of the workloads analyzed here are large enough
//! to justify SIMD or blocking, so clarity wins over micro-optimization.

pub mod center;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod procrustes;
pub mod solve;
pub mod vecops;

pub use center::double_center;
pub use eigen::{jacobi_eigen, Eigen};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use procrustes::{procrustes_align, procrustes_transform, ProcrustesFit, ProcrustesTransform};
pub use solve::solve2;
