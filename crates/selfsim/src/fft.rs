//! Fast Fourier transform: iterative radix-2 plus Bluestein's algorithm for
//! arbitrary lengths.
//!
//! The periodogram estimator needs the DFT of job series whose lengths are
//! whatever the log happened to contain, so a power-of-two-only FFT is not
//! enough; Bluestein's chirp-z trick reduces any length to a power-of-two
//! convolution. The Davies-Harte fGn generator also runs on these kernels.
//!
//! Transforms of one length recur constantly, so [`FftPlan`] precomputes a
//! length's tables once and [`plan`] keeps plans in a 64 MiB process-wide
//! table. A plan holds only what its callers read: one twiddle set per
//! radix-2 size, read conjugated for the inverse, and forward Bluestein
//! tables. Planned transforms are **bit-identical** to the planless
//! [`fft_pow2`]/[`fft_any`] paths, whose recurrences and chirp they store.

use crate::table::Table;
use std::convert::Infallible;
use std::f64::consts::PI;
use std::sync::{Arc, LazyLock};

/// In-place radix-2 FFT over split real/imaginary arrays.
///
/// `inverse` applies the conjugate transform *without* the 1/n scaling
/// (callers scale when they need a round trip).
///
/// # Panics
/// Panics unless the length is a power of two (and equal for both arrays).
pub fn fft_pow2(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    assert_eq!(n, im.len(), "re/im length mismatch");
    assert!(n.is_power_of_two(), "fft_pow2 requires power-of-two length");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }

    // Danielson-Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0, 0.0);
            for k in 0..len / 2 {
                let a = start + k;
                let b = a + len / 2;
                let tr = re[b] * cr - im[b] * ci;
                let ti = re[b] * ci + im[b] * cr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
        }
        len <<= 1;
    }
}

/// DFT of arbitrary length via Bluestein's algorithm (falls back to the
/// radix-2 kernel directly for power-of-two lengths).
///
/// Returns `(re, im)` of the transform; `inverse` applies the conjugate
/// transform without scaling.
pub fn fft_any(re_in: &[f64], im_in: &[f64], inverse: bool) -> (Vec<f64>, Vec<f64>) {
    let n = re_in.len();
    assert_eq!(n, im_in.len(), "re/im length mismatch");
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    if n.is_power_of_two() {
        let mut re = re_in.to_vec();
        let mut im = im_in.to_vec();
        fft_pow2(&mut re, &mut im, inverse);
        return (re, im);
    }

    let m = (2 * n - 1).next_power_of_two();
    let (chirp, mut bre, mut bim) = chirp_and_b(n, m, if inverse { 1.0 } else { -1.0 });
    fft_pow2(&mut bre, &mut bim, false);
    chirp_convolve(re_in, im_in, &chirp, &bre, &bim, fft_pow2)
}

/// Bluestein: `x_k * chirp_k` convolved with the conjugate chirp, whose
/// spectrum `(bre, bim)` is given, through `fft` at the convolution size;
/// then the final chirp product. The DFT of `x` for the chirp's sign.
fn chirp_convolve(
    re_in: &[f64],
    im_in: &[f64],
    chirp: &[(f64, f64)],
    bre: &[f64],
    bim: &[f64],
    fft: impl Fn(&mut [f64], &mut [f64], bool),
) -> (Vec<f64>, Vec<f64>) {
    let (n, m) = (chirp.len(), bre.len());
    let mut are = vec![0.0; m];
    let mut aim = vec![0.0; m];
    for k in 0..n {
        let (cr, ci) = chirp[k];
        are[k] = re_in[k] * cr - im_in[k] * ci;
        aim[k] = re_in[k] * ci + im_in[k] * cr;
    }
    fft(&mut are, &mut aim, false);
    // Pointwise product.
    for i in 0..m {
        let r = are[i] * bre[i] - aim[i] * bim[i];
        let im_ = are[i] * bim[i] + aim[i] * bre[i];
        are[i] = r;
        aim[i] = im_;
    }
    fft(&mut are, &mut aim, true);
    // Unscaled inverse: divide by m, then multiply by chirp again.
    let scale = 1.0 / m as f64;
    let mut out_re = Vec::with_capacity(n);
    let mut out_im = Vec::with_capacity(n);
    for k in 0..n {
        let (cr, ci) = chirp[k];
        let r = are[k] * scale;
        let i = aim[k] * scale;
        out_re.push(r * cr - i * ci);
        out_im.push(r * ci + i * cr);
    }
    (out_re, out_im)
}

/// Bluestein's chirp `exp(sign * i * pi * k^2 / n)` for `k < n`, and the B
/// array of length `m`: the conjugate chirp, wrapped for negative indices.
fn chirp_and_b(n: usize, m: usize, sign: f64) -> (Vec<(f64, f64)>, Vec<f64>, Vec<f64>) {
    let chirp: Vec<(f64, f64)> = (0..n)
        .map(|k| {
            // k^2 mod 2n avoids precision loss for large k.
            let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
            let ang = sign * PI * k2 / n as f64;
            (ang.cos(), ang.sin())
        })
        .collect();
    let mut bre = vec![0.0; m];
    let mut bim = vec![0.0; m];
    bre[0] = chirp[0].0;
    bim[0] = -chirp[0].1;
    for k in 1..n {
        let (cr, ci) = chirp[k];
        bre[k] = cr;
        bim[k] = -ci;
        bre[m - k] = cr;
        bim[m - k] = -ci;
    }
    (chirp, bre, bim)
}

/// DFT of a real series: returns `(re, im)` of all `n` bins.
pub fn rfft(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let zeros = vec![0.0; x.len()];
    plan(x.len()).process_any(x, &zeros)
}

/// Precomputed tables for one radix-2 size.
#[derive(Debug)]
struct Pow2Tables {
    n: usize,
    /// Bit-reversal swaps `(i, j)` with `j > i`.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, one vector of `w^k` per butterfly level
    /// (`len = 2, 4, ..., n`), filled with the same running recurrence
    /// [`fft_pow2`] uses inline so the planned transform is bit-identical.
    /// The inverse reads their conjugates: the recurrence at +θ negates the
    /// one at −θ exactly (`sin` is odd, `cos` even, IEEE rounding
    /// sign-symmetric), and `0.0 - ci` keeps `w^0`'s `+0.0`.
    twiddles: Vec<Vec<(f64, f64)>>,
}

impl Pow2Tables {
    fn new(n: usize) -> Pow2Tables {
        assert!(n.is_power_of_two(), "Pow2Tables requires power-of-two length");
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        let mut twiddles = Vec::new();
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut tw = Vec::with_capacity(len / 2);
            let (mut cr, mut ci) = (1.0, 0.0);
            for _ in 0..len / 2 {
                tw.push((cr, ci));
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            twiddles.push(tw);
            len <<= 1;
        }
        Pow2Tables { n, swaps, twiddles }
    }

    /// The planned equivalent of [`fft_pow2`]: same butterflies, twiddles
    /// read from the tables instead of recomputed.
    fn fft(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let n = self.n;
        assert_eq!(n, re.len(), "re length does not match plan");
        assert_eq!(n, im.len(), "im length does not match plan");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let mut len = 2;
        for tw in &self.twiddles {
            for start in (0..n).step_by(len) {
                for (k, &(cr, ci)) in tw.iter().enumerate() {
                    let ci = if inverse { 0.0 - ci } else { ci };
                    let a = start + k;
                    let b = a + len / 2;
                    let tr = re[b] * cr - im[b] * ci;
                    let ti = re[b] * ci + im[b] * cr;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                }
            }
            len <<= 1;
        }
    }
}

/// Forward Bluestein tables for one length `n`: the radix-2 tables of the
/// convolution size `m`, the chirp, and the FFT of the B array.
#[derive(Debug)]
struct Bluestein {
    pow2: Pow2Tables,
    chirp: Vec<(f64, f64)>,
    bre: Vec<f64>,
    bim: Vec<f64>,
}

impl Bluestein {
    fn new(n: usize) -> Bluestein {
        let m = (2 * n - 1).next_power_of_two();
        let pow2 = Pow2Tables::new(m);
        let (chirp, mut bre, mut bim) = chirp_and_b(n, m, -1.0);
        pow2.fft(&mut bre, &mut bim, false);
        Bluestein {
            pow2,
            chirp,
            bre,
            bim,
        }
    }
}

#[derive(Debug)]
enum PlanKind {
    Empty,
    Pow2(Pow2Tables),
    Bluestein(Bluestein),
}

/// Precomputed transform tables for one length: the radix-2 tables, plus
/// for other lengths the forward Bluestein chirp and B-array spectrum (the
/// B array does not depend on the input, so its FFT is paid once per
/// length). No caller transforms those lengths inversely; [`fft_any`]
/// still does. Construction is O(m log m); every transform after that
/// skips all trigonometry.
///
/// Obtain plans through [`plan`], which caches them by length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

impl FftPlan {
    /// Build the tables for length `n`.
    pub fn new(n: usize) -> FftPlan {
        let kind = if n == 0 {
            PlanKind::Empty
        } else if n.is_power_of_two() {
            PlanKind::Pow2(Pow2Tables::new(n))
        } else {
            PlanKind::Bluestein(Bluestein::new(n))
        };
        FftPlan { n, kind }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the zero-length plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes of the plan's tables, by which [`plan`]'s table weighs it.
    pub(crate) fn bytes(&self) -> usize {
        let pow2 = |t: &Pow2Tables| {
            8 * t.swaps.len() + 16 * t.twiddles.iter().map(Vec::len).sum::<usize>()
        };
        match &self.kind {
            PlanKind::Empty => 0,
            PlanKind::Pow2(t) => pow2(t),
            PlanKind::Bluestein(b) => {
                pow2(&b.pow2) + 16 * b.chirp.len() + 8 * (b.bre.len() + b.bim.len())
            }
        }
    }

    /// In-place radix-2 transform; bit-identical to [`fft_pow2`].
    ///
    /// # Panics
    /// Panics when the plan's length is not a power of two or the slices
    /// do not match it.
    pub fn process_pow2(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        match &self.kind {
            PlanKind::Pow2(t) => t.fft(re, im, inverse),
            _ => panic!(
                "process_pow2 on a plan of non-power-of-two length {}",
                self.n
            ),
        }
    }

    /// Out-of-place forward transform of any length; bit-identical to
    /// [`fft_any`] with `inverse = false`.
    ///
    /// # Panics
    /// Panics when the input length does not match the plan.
    pub fn process_any(&self, re_in: &[f64], im_in: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(re_in.len(), self.n, "re length does not match plan");
        assert_eq!(im_in.len(), self.n, "im length does not match plan");
        match &self.kind {
            PlanKind::Empty => (Vec::new(), Vec::new()),
            PlanKind::Pow2(t) => {
                let mut re = re_in.to_vec();
                let mut im = im_in.to_vec();
                t.fft(&mut re, &mut im, false);
                (re, im)
            }
            PlanKind::Bluestein(b) => {
                let fft = |re: &mut [f64], im: &mut [f64], inverse| b.pow2.fft(re, im, inverse);
                chirp_convolve(re_in, im_in, &b.chirp, &b.bre, &b.bim, fft)
            }
        }
    }
}

/// Bytes of plans the process-wide table keeps: `table3` at 8192 jobs plans
/// seven lengths in 3.1 MB, and this keeps about a dozen of the 5.4 MB
/// Bluestein plans of 40,000-job traces (see [`crate::table`]).
const PLAN_TABLE_BYTES: usize = 64 << 20;

/// The process-wide plan for length `n`, building and caching it on first
/// use. Thread-safe; concurrent callers share one plan per length.
pub fn plan(n: usize) -> Arc<FftPlan> {
    static PLANS: LazyLock<Table<usize, FftPlan>> =
        LazyLock::new(|| Table::new("fft.plan", PLAN_TABLE_BYTES, FftPlan::bytes));
    let Ok(plan) = PLANS.get(n, || Ok::<_, Infallible>(Arc::new(FftPlan::new(n))));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n^2) DFT for cross-checking.
    fn dft_naive(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                out_re[k] += re[t] * c - im[t] * s;
                out_im[k] += re[t] * s + im[t] * c;
            }
        }
        (out_re, out_im)
    }

    fn assert_close_vec(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} != {y}");
        }
    }

    #[test]
    fn pow2_matches_naive() {
        let re = [1.0, 2.0, -0.5, 3.0, 0.25, -1.0, 2.5, 0.0];
        let im = [0.5, -1.0, 0.0, 2.0, -0.25, 1.0, 0.0, -2.0];
        let (nre, nim) = dft_naive(&re, &im);
        let mut fre = re.to_vec();
        let mut fim = im.to_vec();
        fft_pow2(&mut fre, &mut fim, false);
        assert_close_vec(&fre, &nre, 1e-9);
        assert_close_vec(&fim, &nim, 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_odd_lengths() {
        for n in [3usize, 5, 7, 12, 13, 100] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 0.5).collect();
            let (nre, nim) = dft_naive(&re, &im);
            let (fre, fim) = fft_any(&re, &im, false);
            assert_close_vec(&fre, &nre, 1e-7);
            assert_close_vec(&fim, &nim, 1e-7);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [8usize, 15, 33] {
            let re: Vec<f64> = (0..n).map(|i| i as f64 * 0.3 - 1.0).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            let (fre, fim) = fft_any(&re, &im, false);
            let (mut bre, mut bim) = fft_any(&fre, &fim, true);
            for v in &mut bre {
                *v /= n as f64;
            }
            for v in &mut bim {
                *v /= n as f64;
            }
            assert_close_vec(&bre, &re, 1e-8);
            assert_close_vec(&bim, &im, 1e-8);
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let (fre, fim) = rfft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = fre
            .iter()
            .zip(&fim)
            .map(|(r, i)| r * r + i * i)
            .sum::<f64>()
            / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 16];
        x[0] = 1.0;
        let (re, im) = rfft(&x);
        for k in 0..16 {
            assert!((re[k] - 1.0).abs() < 1e-12);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 32;
        let freq = 5;
        let x: Vec<f64> = (0..n)
            .map(|t| (2.0 * PI * freq as f64 * t as f64 / n as f64).cos())
            .collect();
        let (re, im) = rfft(&x);
        let mags: Vec<f64> = re
            .iter()
            .zip(&im)
            .map(|(r, i)| (r * r + i * i).sqrt())
            .collect();
        // Energy in bins `freq` and `n - freq` only.
        for (k, m) in mags.iter().enumerate() {
            if k == freq || k == n - freq {
                assert!((m - n as f64 / 2.0).abs() < 1e-9, "bin {k}: {m}");
            } else {
                assert!(*m < 1e-9, "bin {k}: {m}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let (re, im) = fft_any(&[], &[], false);
        assert!(re.is_empty() && im.is_empty());
        let (re, im) = fft_any(&[3.5], &[0.0], false);
        assert_eq!(re, vec![3.5]);
        assert_eq!(im, vec![0.0]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Test inputs of length `n`: smooth values with signed zeros mixed
    /// in, and all zeros (`-0.0` real, `+0.0` imaginary), where the sign of
    /// every zero a twiddle produces reaches the output.
    fn inputs(n: usize) -> [(Vec<f64>, Vec<f64>); 2] {
        let zero_or = |i: usize, x: f64| match i % 7 {
            3 => -0.0,
            5 => 0.0,
            _ => x,
        };
        let re = (0..n)
            .map(|i| zero_or(i, (i as f64 * 0.7).sin() * 3.0))
            .collect();
        let im = (0..n)
            .map(|i| zero_or(i + 1, (i as f64 * 1.3).cos() - 0.25))
            .collect();
        [(re, im), (vec![-0.0; n], vec![0.0; n])]
    }

    #[test]
    fn planned_pow2_bit_identical_to_planless() {
        for n in (0..=20).map(|b| 1usize << b) {
            let p = plan(n);
            for (re, im) in inputs(n) {
                for inverse in [false, true] {
                    let (mut re_a, mut im_a) = (re.clone(), im.clone());
                    fft_pow2(&mut re_a, &mut im_a, inverse);
                    let (mut re_b, mut im_b) = (re.clone(), im.clone());
                    p.process_pow2(&mut re_b, &mut im_b, inverse);
                    assert_eq!(bits(&re_a), bits(&re_b), "n {n} inverse {inverse}");
                    assert_eq!(bits(&im_a), bits(&im_b), "n {n} inverse {inverse}");
                }
            }
        }
    }

    #[test]
    fn planned_any_bit_identical_to_planless() {
        for n in [
            3usize, 5, 7, 12, 13, 100, 1009, 4095, 8179, 8180, 8191, 40001,
        ] {
            let p = plan(n);
            for (re, im) in inputs(n) {
                let (re_a, im_a) = fft_any(&re, &im, false);
                let (re_b, im_b) = p.process_any(&re, &im);
                assert_eq!(bits(&re_a), bits(&re_b), "n {n}");
                assert_eq!(bits(&im_a), bits(&im_b), "n {n}");
            }
        }
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let a = plan(48);
        let b = plan(48);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 48);
        assert!(!a.is_empty());
        assert!(plan(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "process_pow2 on a plan of non-power-of-two length")]
    fn pow2_processing_rejects_bluestein_plans() {
        let p = FftPlan::new(12);
        let mut re = vec![0.0; 12];
        let mut im = vec![0.0; 12];
        p.process_pow2(&mut re, &mut im, false);
    }

    #[test]
    fn large_bluestein_precision() {
        // Prime length exercises the full chirp path.
        let n = 1009;
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).sin()).collect();
        let (fre, fim) = rfft(&x);
        // Spot-check one bin against the naive sum.
        let k = 17;
        let mut sr = 0.0;
        let mut si = 0.0;
        for (t, &v) in x.iter().enumerate() {
            let ang = -2.0 * PI * (k * t % n) as f64 / n as f64;
            sr += v * ang.cos();
            si += v * ang.sin();
        }
        assert!((fre[k] - sr).abs() < 1e-6, "{} vs {}", fre[k], sr);
        assert!((fim[k] - si).abs() < 1e-6);
    }
}
