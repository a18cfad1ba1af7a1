//! Statistics substrate for the Co-plot workload suite.
//!
//! The paper's analyses lean on a small but specific statistical toolkit that
//! has no sufficiently complete off-the-shelf Rust equivalent, so this crate
//! implements it from scratch:
//!
//! * **Descriptive statistics** ([`describe`]) — mean, variance and raw
//!   moments.
//! * **Order statistics** ([`order`]) — medians, percentiles, and the paper's
//!   "90% interval" (the 95th minus the 5th percentile), which it prefers
//!   over means/CVs because workload distributions have very long tails.
//! * **Ranking and correlation** ([`rank`], [`corr`]) — Pearson and Spearman.
//! * **Regression** ([`regress`]) — the least-squares line fit behind all
//!   three Hurst estimators' log-log slopes.
//! * **Isotonic regression** ([`isotonic`]) — pool-adjacent-violators, the
//!   monotone-regression kernel inside nonmetric MDS.
//! * **Kolmogorov-Smirnov distance** ([`ks`]) — the two-sample statistic
//!   for comparing marginals.
//! * **Distributions** ([`dist`]) — exponential, uniform, log-uniform,
//!   normal, lognormal, gamma/Erlang, hyper-exponential, hyper-Erlang of
//!   common order with three-moment matching (the Jann model's engine),
//!   hyper-gamma (the Lublin model's engine), Pareto, Zipf and
//!   empirical discrete distributions.
//! * **Deterministic RNG plumbing** ([`rng`]).

pub mod corr;
pub mod describe;
pub mod dist;
pub mod error;
pub mod isotonic;
pub mod ks;
pub mod order;
pub mod rank;
pub mod regress;
pub mod rng;

pub use corr::{pearson, spearman, try_pearson};
pub use describe::{mean, std_dev, variance};
pub use dist::Distribution;
pub use error::StatsError;
pub use isotonic::{isotonic_regression, try_isotonic_regression};
pub use ks::ks_two_sample;
pub use order::{interval, median, median_interval, percentile, Percentiles};
pub use rank::ranks;
pub use regress::{linear_fit, LinearFit};
pub use rng::seeded_rng;
