//! Random-variate distributions used by the workload models.
//!
//! The five synthetic models in the paper draw on a specific set of
//! distributions — log-uniform (Downey), hyper-Erlang of common order
//! (Jann), hyper-exponential and hand-tailored discrete sizes (Feitelson),
//! hyper-gamma (Lublin) — none of which exist in the minimal `rand`
//! distribution set, so they are implemented here from scratch, together
//! with the standard continuous families they build on.
//!
//! All distributions implement the object-safe [`Distribution`] trait, sample
//! through any `rand::RngCore`, and report exact analytic moments where they
//! exist (used heavily by the tests to validate the samplers).

mod empirical;
mod exponential;
mod gamma;
mod hypererlang;
mod hyperexp;
mod hypergamma;
mod normal;
mod pareto;
pub mod special;
mod uniform;
mod zipf;

pub use empirical::{DiscreteWeighted, EmpiricalQuantile};
pub use exponential::Exponential;
pub use gamma::{Erlang, Gamma};
pub use hypererlang::HyperErlang;
pub use hyperexp::HyperExponential;
pub use hypergamma::HyperGamma;
pub use normal::{normal_cdf, normal_quantile, LogNormal, Normal};
pub use pareto::Pareto;
pub use uniform::{LogUniform, Uniform};
pub use zipf::Zipf;

use rand::RngCore;

/// An object-safe random-variate distribution over `f64`.
///
/// `mean`/`variance` return the analytic values (or `f64::NAN` / infinity
/// when undefined), which the test-suite uses to validate samplers against
/// their specification.
pub trait Distribution {
    /// Draw one variate.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Analytic mean (NaN if undefined).
    fn mean(&self) -> f64;

    /// Analytic variance (NaN if undefined, `inf` for heavy tails).
    fn variance(&self) -> f64;

    /// Draw `n` variates into a fresh vector.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A uniform draw in the open interval `(0, 1)` — never exactly 0 or 1, so
/// it is safe inside logs and inverse CDFs.
pub(crate) fn open01(rng: &mut dyn RngCore) -> f64 {
    // 53 random mantissa bits; shift into (0,1) by centering in the cell.
    let bits = rng.next_u64() >> 11;
    (bits as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::Distribution;
    use crate::rng::seeded_rng;

    /// Sample-moment check used by every distribution's tests: draws `n`
    /// variates and asserts the sample mean/variance land within
    /// `tol_sigmas` standard errors of the analytic values.
    pub fn check_moments(dist: &dyn Distribution, n: usize, seed: u64, tol_sigmas: f64) {
        let mut rng = seeded_rng(seed);
        let xs = dist.sample_n(&mut rng, n);
        let mean = crate::describe::mean(&xs);
        let var = crate::describe::variance(&xs);
        let m = dist.mean();
        let v = dist.variance();
        if m.is_finite() {
            // Std error of the mean.
            let se = (v / n as f64).sqrt();
            assert!(
                (mean - m).abs() <= tol_sigmas * se.max(1e-12 * m.abs().max(1.0)),
                "sample mean {mean} vs analytic {m} (se {se})"
            );
        }
        if v.is_finite() && v > 0.0 {
            // Loose relative check on the variance (its sampling error
            // depends on the 4th moment, which we don't require).
            assert!(
                (var - v).abs() / v < 0.25,
                "sample var {var} vs analytic {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn open01_stays_open() {
        let mut rng = seeded_rng(9);
        for _ in 0..10_000 {
            let u = open01(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn open01_is_roughly_uniform() {
        let mut rng = seeded_rng(10);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| open01(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn sample_n_length() {
        let d = Exponential::new(1.0);
        let mut rng = seeded_rng(1);
        assert_eq!(d.sample_n(&mut rng, 17).len(), 17);
    }
}
