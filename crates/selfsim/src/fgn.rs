//! Exact fractional Gaussian noise (fGn) generators.
//!
//! fGn is *the* reference self-similar process: a stationary Gaussian series
//! with autocovariance
//!
//! ```text
//! gamma(k) = 0.5 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})
//! ```
//!
//! whose aggregated variance decays exactly like `m^{2H-2}`. Two exact
//! generators are provided:
//!
//! * [`FgnDaviesHarte`] — circulant embedding + FFT, O(n log n), the
//!   workhorse for long series;
//! * [`FgnHosking`] — the Durbin-Levinson / Hosking recursion, O(n^2) but
//!   streaming and embedding-free, used to cross-validate Davies-Harte and
//!   for short series.
//!
//! The log synthesizer uses fGn to give production-log stand-ins the
//! long-range dependence the paper measures in Table 3, and the estimator
//! tests use it as ground truth.
//!
//! A Davies-Harte generator's circulant amplitudes depend only on `H` and
//! the embedding size, and every synthesis of a named dataset asks for
//! the same few pairs. So [`FgnDaviesHarte::new`] keeps them in an 8 MiB
//! process-wide table of the same type as [`fft::plan`]'s, counted as
//! `fgn.amps.{hit,miss,evictions,bytes}`. A computed amplitude takes one
//! `powf` per lag; its bits equal those of the three-`powf`
//! [`fgn_autocovariance`] form.

use crate::fft::{self, FftPlan};
use crate::table::Table;
use rand::RngCore;
use std::sync::{Arc, LazyLock};
use wl_stats::dist::Normal;

/// Bytes of amplitudes the process-wide table keeps: enough for one
/// `table1` load at 40,000 jobs, whose 20 distinct `(H, m)` keys take
/// 8,126,624 bytes (at 1024 jobs they take about 127 KB). A budget that
/// keeps less recomputes them on every load: 40 such hurst requests then
/// compute 920 amplitude vectors instead of 20, and their median takes
/// 16% longer.
const AMP_TABLE_BYTES: usize = 8 << 20;

/// The fGn autocovariance `gamma(k)` for unit-variance noise.
///
/// # Panics
/// Panics unless `0 < h < 1`.
pub fn fgn_autocovariance(h: f64, k: usize) -> f64 {
    assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");
    if k == 0 {
        return 1.0;
    }
    let k = k as f64;
    let two_h = 2.0 * h;
    0.5 * ((k + 1.0).powf(two_h) - 2.0 * k.powf(two_h) + (k - 1.0).powf(two_h))
}

/// Davies-Harte exact fGn generator: precomputes the circulant-embedding
/// eigenvalues for a fixed length, then generates independent sample paths.
#[derive(Debug, Clone)]
pub struct FgnDaviesHarte {
    h: f64,
    n: usize,
    /// sqrt(lambda_j / m) for j = 0..=m/2, the per-bin amplitudes
    /// `generate` reads; shared through the process-wide amplitude table.
    amps: Arc<[f64]>,
    /// Embedding size (power of two, >= 2n).
    m: usize,
    /// Shared FFT plan for the embedding size; every generated path reuses
    /// its precomputed tables.
    plan: Arc<FftPlan>,
}

impl FgnDaviesHarte {
    /// Prepare a generator for paths of length `n` with Hurst parameter
    /// `h` in `(0, 1)`.
    ///
    /// The amplitudes depend only on `h` and the embedding size, so they
    /// come from a byte-budgeted process-wide table when another generator
    /// already computed them (`fgn.amps.*`); either way they are
    /// bit-identical.
    ///
    /// Returns an error when the circulant embedding has (numerically)
    /// negative eigenvalues — which does not happen for fGn's covariance,
    /// but the check guards the math.
    ///
    /// # Panics
    /// Panics for `n == 0` or `h` outside `(0, 1)`.
    pub fn new(h: f64, n: usize) -> Result<Self, String> {
        static AMPS: LazyLock<Table<(u64, usize), [f64]>> =
            LazyLock::new(|| Table::new("fgn.amps", AMP_TABLE_BYTES, size_of_val));
        assert!(n > 0, "path length must be positive");
        assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");

        // Power-of-two embedding size m >= 2n keeps the FFT radix-2.
        let m = (2 * n).next_power_of_two();
        let plan = fft::plan(m);
        let amps = AMPS.get((h.to_bits(), m), || circulant_amplitudes(h, &plan))?;
        Ok(FgnDaviesHarte { h, n, amps, m, plan })
    }

    /// The Hurst parameter.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The path length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the configured length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Generate one exact fGn path of length `n` (unit variance, zero mean).
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let m = self.m;
        let half = m / 2;
        let mut re = vec![0.0; m];
        let mut im = vec![0.0; m];

        // Hermitian-symmetric complex Gaussian spectrum.
        re[0] = self.amps[0] * Normal::sample_standard(rng) * (2.0f64).sqrt();
        re[half] = self.amps[half] * Normal::sample_standard(rng) * (2.0f64).sqrt();
        for j in 1..half {
            let zr = Normal::sample_standard(rng);
            let zi = Normal::sample_standard(rng);
            re[j] = self.amps[j] * zr;
            im[j] = self.amps[j] * zi;
            re[m - j] = re[j];
            im[m - j] = -im[j];
        }

        self.plan.process_pow2(&mut re, &mut im, false);
        // Real part of the first n entries, scaled: the construction above
        // makes Var = 2 per sample (both halves contribute), so divide by
        // sqrt(2).
        let scale = 1.0 / (2.0f64).sqrt();
        re.truncate(self.n);
        for v in &mut re {
            *v *= scale;
        }
        re
    }
}

/// `sqrt(lambda_j / m)` for `j = 0..=m/2`, where `lambda` are the
/// eigenvalues of the circulant embedding of fGn's covariance and
/// `m = plan.len()`. Only that half is returned because `generate` reads
/// only it; the negative-eigenvalue check still scans all `m` bins.
fn circulant_amplitudes(h: f64, plan: &FftPlan) -> Result<Arc<[f64]>, String> {
    let m = plan.len();
    let half = m / 2;
    // One powf per lag: gamma(k) then combines three neighbours in
    // fgn_autocovariance's operation order, on the same powf inputs, so
    // every bit matches it.
    let two_h = 2.0 * h;
    let pow: Vec<f64> = (0..=half + 1).map(|j| (j as f64).powf(two_h)).collect();
    // Circulant first row: gamma(0..=half), then mirrored.
    let mut re = vec![0.0; m];
    re[0] = 1.0;
    for k in 1..=half {
        re[k] = 0.5 * (pow[k + 1] - 2.0 * pow[k] + pow[k - 1]);
    }
    for k in 1..half {
        re[m - k] = re[k];
    }
    // Eigenvalues = FFT of the first row (real by symmetry).
    let mut im = vec![0.0; m];
    plan.process_pow2(&mut re, &mut im, false);
    if let Some((j, lambda)) = re.iter().enumerate().find(|&(_, &l)| l < -1e-8) {
        return Err(format!(
            "negative circulant eigenvalue {lambda} at bin {j} (H = {h})"
        ));
    }
    Ok(re[..=half]
        .iter()
        .map(|&lambda| (lambda.max(0.0) / m as f64).sqrt())
        .collect())
}

/// Hosking's exact sequential fGn generator (Durbin-Levinson recursion).
#[derive(Debug, Clone, Copy)]
pub struct FgnHosking {
    h: f64,
}

impl FgnHosking {
    /// Create for a Hurst parameter in `(0, 1)`.
    ///
    /// # Panics
    /// Panics for `h` outside `(0, 1)`.
    pub fn new(h: f64) -> Self {
        assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");
        FgnHosking { h }
    }

    /// The Hurst parameter.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// Generate an exact path of length `n` (unit variance, zero mean).
    /// O(n^2) time, O(n) space.
    pub fn generate(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let gamma: Vec<f64> = (0..n).map(|k| fgn_autocovariance(self.h, k)).collect();

        let mut x = Vec::with_capacity(n);
        x.push(Normal::sample_standard(rng)); // gamma(0) = 1

        // Durbin-Levinson state.
        let mut phi: Vec<f64> = Vec::new(); // phi_{t,k}, k = 1..=t
        let mut v = 1.0; // prediction error variance

        for t in 1..n {
            // New reflection coefficient phi_{t,t}.
            let mut acc = gamma[t];
            for (k, &p) in phi.iter().enumerate() {
                acc -= p * gamma[t - 1 - k];
            }
            let kappa = acc / v;
            // Update the coefficient vector: phi'_k = phi_k - kappa *
            // phi_{t-1-k} (reversed), then append kappa.
            let prev = phi.clone();
            for (k, p) in phi.iter_mut().enumerate() {
                *p -= kappa * prev[prev.len() - 1 - k];
            }
            phi.push(kappa);
            v *= 1.0 - kappa * kappa;
            debug_assert!(v > 0.0, "prediction variance must stay positive");

            // Conditional mean of X_t given the past.
            let mean: f64 = phi
                .iter()
                .enumerate()
                .map(|(k, &p)| p * x[t - 1 - k])
                .sum();
            x.push(mean + v.max(0.0).sqrt() * Normal::sample_standard(rng));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wl_stats::rng::seeded_rng;

    /// The constructor as it was before amplitudes were shared: three
    /// `powf` per lag through [`fgn_autocovariance`], all `m` amplitudes,
    /// no table.
    fn oracle_new(h: f64, n: usize) -> Result<FgnDaviesHarte, String> {
        assert!(n > 0, "path length must be positive");
        assert!(h > 0.0 && h < 1.0, "H must be in (0,1), got {h}");

        let m = (2 * n).next_power_of_two();
        let half = m / 2;
        let mut c = vec![0.0; m];
        for (k, slot) in c.iter_mut().enumerate().take(half + 1) {
            *slot = fgn_autocovariance(h, k);
        }
        for k in 1..half {
            c[m - k] = c[k];
        }
        let plan = fft::plan(m);
        let mut re = c;
        let mut im = vec![0.0; m];
        plan.process_pow2(&mut re, &mut im, false);
        let mut amps = Vec::with_capacity(m);
        for (j, &lambda) in re.iter().enumerate() {
            if lambda < -1e-8 {
                return Err(format!(
                    "negative circulant eigenvalue {lambda} at bin {j} (H = {h})"
                ));
            }
            amps.push((lambda.max(0.0) / m as f64).sqrt());
        }
        Ok(FgnDaviesHarte {
            h,
            n,
            amps: amps.into(),
            m,
            plan,
        })
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn shared_amplitudes_match_the_oracle_bit_for_bit(
            h in prop_oneof![Just(0.05f64), Just(0.95f64), 0.05f64..0.95],
            n in prop_oneof![Just(1usize), 1usize..=5000],
            seed in 0u64..1000,
        ) {
            // Twice: the first call may compute, the second normally hits.
            for _ in 0..2 {
                let gen = FgnDaviesHarte::new(h, n).unwrap();
                let oracle = oracle_new(h, n).unwrap();
                prop_assert_eq!(gen.m, oracle.m);
                prop_assert_eq!(bits(&gen.amps), bits(&oracle.amps[..=oracle.m / 2]));
                prop_assert_eq!(
                    bits(&gen.generate(&mut seeded_rng(seed))),
                    bits(&oracle.generate(&mut seeded_rng(seed)))
                );
            }
        }
    }

    fn sample_autocov(x: &[f64], k: usize) -> f64 {
        let n = x.len();
        let mean = x.iter().sum::<f64>() / n as f64;
        (0..n - k)
            .map(|i| (x[i] - mean) * (x[i + k] - mean))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn autocovariance_h_half_is_white() {
        assert!((fgn_autocovariance(0.5, 0) - 1.0).abs() < 1e-12);
        for k in 1..10 {
            assert!(fgn_autocovariance(0.5, k).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn autocovariance_positive_and_decaying_for_persistent_h() {
        let h = 0.8;
        let mut prev = fgn_autocovariance(h, 1);
        assert!(prev > 0.0);
        for k in 2..50 {
            let g = fgn_autocovariance(h, k);
            assert!(g > 0.0 && g < prev, "k = {k}");
            prev = g;
        }
    }

    #[test]
    fn autocovariance_negative_for_antipersistent_h() {
        assert!(fgn_autocovariance(0.2, 1) < 0.0);
    }

    #[test]
    fn davies_harte_matches_target_autocovariance() {
        let gen = FgnDaviesHarte::new(0.8, 16384).unwrap();
        let mut rng = seeded_rng(31);
        let x = gen.generate(&mut rng);
        assert_eq!(x.len(), 16384);
        // Variance near 1.
        let var = sample_autocov(&x, 0);
        assert!((var - 1.0).abs() < 0.15, "var = {var}");
        // Lag-1 and lag-4 autocovariances near theory.
        for k in [1usize, 4] {
            let got = sample_autocov(&x, k) / var;
            let want = fgn_autocovariance(0.8, k);
            assert!(
                (got - want).abs() < 0.08,
                "lag {k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn hosking_matches_target_autocovariance() {
        let gen = FgnHosking::new(0.75);
        let mut rng = seeded_rng(32);
        let x = gen.generate(&mut rng, 4096);
        let var = sample_autocov(&x, 0);
        assert!((var - 1.0).abs() < 0.2, "var = {var}");
        let got = sample_autocov(&x, 1) / var;
        let want = fgn_autocovariance(0.75, 1);
        assert!((got - want).abs() < 0.1, "{got} vs {want}");
    }

    #[test]
    fn h_half_paths_look_iid() {
        let gen = FgnDaviesHarte::new(0.5, 8192).unwrap();
        let mut rng = seeded_rng(33);
        let x = gen.generate(&mut rng);
        let var = sample_autocov(&x, 0);
        let r1 = sample_autocov(&x, 1) / var;
        assert!(r1.abs() < 0.05, "lag-1 corr = {r1}");
    }

    #[test]
    fn generators_agree_statistically() {
        // Same H: aggregated variances should decay identically.
        let h = 0.7;
        let mut rng = seeded_rng(34);
        let dh = FgnDaviesHarte::new(h, 8192).unwrap().generate(&mut rng);
        let hos = FgnHosking::new(h).generate(&mut rng, 2048);
        let ratio = |x: &[f64]| {
            let v1 = sample_autocov(x, 0);
            let agg = crate::aggregate::aggregate_series(x, 16);
            let v16 = {
                let m = agg.iter().sum::<f64>() / agg.len() as f64;
                agg.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / agg.len() as f64
            };
            v16 / v1
        };
        // Theory: Var(X^(m))/Var(X) = m^{2H-2} = 16^{-0.6} ~ 0.189.
        let want = 16.0f64.powf(2.0 * h - 2.0);
        let r1 = ratio(&dh);
        let r2 = ratio(&hos);
        assert!((r1 - want).abs() / want < 0.45, "DH ratio {r1} vs {want}");
        assert!((r2 - want).abs() / want < 0.45, "Hosking ratio {r2} vs {want}");
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = FgnDaviesHarte::new(0.6, 256).unwrap();
        let a = gen.generate(&mut seeded_rng(35));
        let b = gen.generate(&mut seeded_rng(35));
        assert_eq!(a, b);
    }

    #[test]
    fn hosking_empty_path() {
        assert!(FgnHosking::new(0.7)
            .generate(&mut seeded_rng(36), 0)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "H must be in (0,1)")]
    fn invalid_h_panics() {
        FgnHosking::new(1.0);
    }
}
