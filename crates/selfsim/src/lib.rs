//! Self-similarity analysis of workload time series (paper section 9 and
//! appendix).
//!
//! A stochastic process is (second-order) self-similar when its aggregated
//! series `X^(m)` — block averages over windows of size `m` — decay in
//! variance like `m^(-beta)` with `0 < beta < 2`, equivalently when its
//! autocorrelations decay so slowly that they are non-summable (long-range
//! dependence). The Hurst parameter `H = 1 - beta/2` quantifies the effect:
//! `H = 0.5` is short-range (white-noise-like) behaviour, `H -> 1` is
//! strong self-similarity.
//!
//! The paper estimates `H` for four per-job series of every workload with
//! three classical estimators, all implemented here:
//!
//! * **R/S analysis** ([`rs`]): the rescaled adjusted range grows like
//!   `n^H` (the Hurst effect); the pox-plot slope estimates `H`.
//! * **Variance-time plots** ([`vartime`]): the slope of
//!   `log Var(X^(m))` against `log m` is `-beta`.
//! * **Periodogram analysis** ([`periodogram`]): near the origin the
//!   log-log periodogram has slope `1 - 2H`.
//!
//! Supporting substrate:
//!
//! * [`fft`] — radix-2 + Bluestein FFT (the periodogram's engine),
//! * [`aggregate`] — block aggregation and autocorrelation,
//! * [`fgn`] — exact fractional Gaussian noise generators (Davies-Harte
//!   and Hosking), used to validate the estimators against known `H` and to
//!   inject long-range dependence into synthesized logs,
//! * [`hurst`] — a uniform interface over the three estimators.

pub mod aggregate;
pub mod fft;
pub mod fgn;
pub mod hurst;
pub mod online;
pub mod periodogram;
pub mod rs;
pub mod vartime;

pub use aggregate::{aggregate_series, autocorrelation};
pub use fgn::{FgnDaviesHarte, FgnHosking};
pub use hurst::{HurstEstimate, HurstEstimator};
pub use online::OnlineHurst;
pub use periodogram::periodogram_hurst;
pub use rs::rs_hurst;
pub use vartime::variance_time_hurst;
