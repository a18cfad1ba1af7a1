//! R/S (rescaled adjusted range) analysis — appendix Eqs. 12-15.
//!
//! For a block of `n` observations with mean `A(n)` and standard deviation
//! `S(n)`, the adjusted range is `R(n) = max_k W_k - min_k W_k` where
//! `W_k = (X_1 + ... + X_k) - k A(n)` (with `W_0 = 0`). Long-range dependent
//! series follow `E[R/S] ~ c n^H`, so plotting `log(R/S)` against `log n`
//! over many block sizes (a *pox plot*) and fitting a line estimates `H`.

use wl_stats::linear_fit;

/// Smallest block size [`rs_hurst`] plots.
pub const DEFAULT_MIN_BLOCK: usize = 8;
/// Number of pox-plot points [`rs_hurst`] requests.
pub const DEFAULT_POINTS: usize = 20;

/// One point of the pox plot: block size and the mean R/S over all
/// non-overlapping blocks of that size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoxPoint {
    pub block_size: usize,
    pub mean_rs: f64,
    /// How many blocks contributed.
    pub blocks: usize,
}

/// The rescaled adjusted range R/S of one block. Returns `None` for blocks
/// shorter than 2 or with zero variance.
pub fn rescaled_range(block: &[f64]) -> Option<f64> {
    let n = block.len();
    if n < 2 {
        return None;
    }
    let mean = block.iter().sum::<f64>() / n as f64;
    // Sample standard deviation (divide by n, as in the original R/S
    // statistic definition).
    let var = block.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        return None;
    }
    let s = var.sqrt();

    let mut w = 0.0;
    let mut max_w: f64 = 0.0; // W_0 = 0 participates in both extrema
    let mut min_w: f64 = 0.0;
    for &x in block {
        w += x - mean;
        max_w = max_w.max(w);
        min_w = min_w.min(w);
    }
    Some((max_w - min_w) / s)
}

/// Compute the pox plot: logarithmically spaced block sizes from
/// `min_block` (floored at 4) up to `len / 2`, so every plotted size
/// averages at least two complete blocks; mean R/S per size.
///
/// One upfront pass builds prefix sums of the series and its squares, so
/// each block's mean and variance are O(1) lookups and only the
/// adjusted-range extrema need a per-element pass (`block_rs`).
pub fn pox_plot(x: &[f64], min_block: usize, points: usize) -> Vec<PoxPoint> {
    let n = x.len();
    let min_block = min_block.max(4);
    let max_block = n / 2;
    if max_block < min_block || points == 0 {
        return Vec::new();
    }
    let (p, q) = prefix_sums(x);
    let ratio = (max_block as f64 / min_block as f64).powf(1.0 / (points.max(2) - 1) as f64);

    let mut out: Vec<PoxPoint> = Vec::new();
    let mut size_f = min_block as f64;
    for _ in 0..points {
        let size = (size_f.round() as usize).clamp(min_block, max_block);
        if out.last().map(|p| p.block_size) != Some(size) {
            out.extend(pox_point(&p, &q, size));
        }
        size_f *= ratio;
    }
    wl_obs::counter!("selfsim.pox.calls", 1u64);
    wl_obs::counter!("selfsim.pox.points", out.len() as u64);
    wl_obs::counter!(
        "selfsim.pox.blocks",
        out.iter().map(|p| p.blocks as u64).sum::<u64>()
    );
    out
}

/// Prefix sums of a series and of its squares: `p[i]` is the sum of
/// `x[..i]` and `q[i]` the sum of their squares, so both start at 0.0 and
/// are one longer than `x`.
fn prefix_sums(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut p = Vec::with_capacity(x.len() + 1);
    let mut q = Vec::with_capacity(x.len() + 1);
    p.push(0.0);
    q.push(0.0);
    extend_prefix_sums(&mut p, &mut q, x);
    (p, q)
}

/// Append `values` to prefix sums built by [`prefix_sums`], in the same
/// left-to-right accumulation, so arrays extended window by window hold
/// the same bits as arrays built over the whole series at once.
pub(crate) fn extend_prefix_sums(p: &mut Vec<f64>, q: &mut Vec<f64>, values: &[f64]) {
    p.reserve(values.len());
    q.reserve(values.len());
    let mut ps = *p.last().expect("prefix sums start with a leading zero");
    let mut qs = *q.last().expect("prefix sums start with a leading zero");
    for &v in values {
        ps += v;
        qs += v * v;
        p.push(ps);
        q.push(qs);
    }
}

/// The rescaled adjusted range of the block `x[lo..lo + size]`, read off
/// the prefix sums `p` and `q` of [`prefix_sums`]: the mean from `p`, the
/// variance as E[x²] − mean², and the extrema of the partial sums
/// `W_k = p[lo+k] − p[lo] − k·mean`. That last sweep is a plain
/// (reassociable, vectorizable) max/min reduction rather than a
/// loop-carried accumulation.
///
/// `None` when the variance comes out ≤ 0: cancellation can push a
/// (near-)constant block there, which the direct two-pass variance of
/// [`rescaled_range`] reports as degenerate too.
pub(crate) fn block_rs(p: &[f64], q: &[f64], lo: usize, size: usize) -> Option<f64> {
    let hi = lo + size;
    let s = size as f64;
    let mean = (p[hi] - p[lo]) / s;
    let var = (q[hi] - q[lo]) / s - mean * mean;
    if var <= 0.0 {
        return None;
    }
    // Four independent extrema lanes break the loop-carried max/min
    // dependency; merging them at the end is exact, so the result matches
    // a single-lane scan bit for bit. W_0 = 0 participates in both
    // extrema via the lane seeds.
    let (max_w, min_w) = wl_linalg::vecops::affine_extrema4(&p[lo + 1..=hi], p[lo], mean);
    Some((max_w - min_w) / var.sqrt())
}

/// The pox point of one block size: mean R/S over the complete blocks of
/// the series behind `p` and `q`, left to right. `None` when every block is
/// degenerate.
fn pox_point(p: &[f64], q: &[f64], size: usize) -> Option<PoxPoint> {
    let n = p.len() - 1;
    let mut sum = 0.0;
    let mut count = 0;
    for b in 0..n / size {
        if let Some(rs) = block_rs(p, q, b * size, size) {
            sum += rs;
            count += 1;
        }
    }
    (count > 0).then(|| PoxPoint {
        block_size: size,
        mean_rs: sum / count as f64,
        blocks: count,
    })
}

/// The R/S Hurst estimate of a pox plot: the slope of `ln(mean R/S)` on
/// `ln(block size)`. `None` below 3 points.
pub(crate) fn pox_slope(points: &[PoxPoint]) -> Option<f64> {
    if points.len() < 3 {
        return None;
    }
    let logs_n: Vec<f64> = points.iter().map(|p| (p.block_size as f64).ln()).collect();
    let logs_rs: Vec<f64> = points.iter().map(|p| p.mean_rs.ln()).collect();
    linear_fit(&logs_n, &logs_rs).map(|f| f.slope)
}

/// Estimate the Hurst parameter by R/S analysis: slope of the pox plot in
/// log-log coordinates. Returns `None` when fewer than 3 pox points are
/// available (series too short or degenerate).
pub fn rs_hurst(x: &[f64]) -> Option<f64> {
    pox_slope(&pox_plot(x, DEFAULT_MIN_BLOCK, DEFAULT_POINTS))
}

/// Batch R/S over an explicit list of block sizes, kept as the test oracle
/// of [`crate::online::OnlineHurst`]: every listed size up to `len / 2` is
/// plotted, each block scored once, left to right, and a non-finite slope
/// is `None`.
#[cfg(test)]
pub(crate) fn rs_hurst_on_grid(x: &[f64], grid: &[usize]) -> Option<f64> {
    let (p, q) = prefix_sums(x);
    let points: Vec<PoxPoint> = grid
        .iter()
        .filter(|&&size| size <= x.len() / 2)
        .filter_map(|&size| pox_point(&p, &q, size))
        .collect();
    pox_slope(&points).filter(|h| h.is_finite())
}

/// The pre-prefix-sum pox plot, kept as the test oracle: per block it
/// recomputes mean and variance directly via [`rescaled_range`].
#[cfg(test)]
pub(crate) fn pox_plot_naive(x: &[f64], min_block: usize, points: usize) -> Vec<PoxPoint> {
    let n = x.len();
    let min_block = min_block.max(4);
    let max_block = n / 2;
    if max_block < min_block || points == 0 {
        return Vec::new();
    }
    let ratio = (max_block as f64 / min_block as f64).powf(1.0 / (points.max(2) - 1) as f64);
    let mut out: Vec<PoxPoint> = Vec::new();
    let mut size_f = min_block as f64;
    for _ in 0..points {
        let size = (size_f.round() as usize).clamp(min_block, max_block);
        if out.last().map(|p| p.block_size) != Some(size) {
            let mut sum = 0.0;
            let mut count = 0;
            for block in x.chunks_exact(size) {
                if let Some(rs) = rescaled_range(block) {
                    sum += rs;
                    count += 1;
                }
            }
            if count > 0 {
                out.push(PoxPoint {
                    block_size: size,
                    mean_rs: sum / count as f64,
                    blocks: count,
                });
            }
        }
        size_f *= ratio;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wl_stats::rng::seeded_rng;
    use rand::Rng;

    fn white_noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                // Sum of 12 uniforms minus 6: approximately standard normal.
                (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
            })
            .collect()
    }

    #[test]
    fn rescaled_range_hand_example() {
        // Block [1, 2, 3]: mean 2, deviations cumulate to -1, -1, 0.
        // R = 0 - (-1) = 1. S = sqrt(2/3).
        let rs = rescaled_range(&[1.0, 2.0, 3.0]).unwrap();
        let expect = 1.0 / (2.0f64 / 3.0).sqrt();
        assert!((rs - expect).abs() < 1e-12);
    }

    #[test]
    fn degenerate_blocks_rejected() {
        assert!(rescaled_range(&[1.0]).is_none());
        assert!(rescaled_range(&[2.0, 2.0, 2.0]).is_none());
    }

    #[test]
    fn white_noise_scores_near_half() {
        let x = white_noise(8192, 1);
        let h = rs_hurst(&x).unwrap();
        // R/S has a known small-sample positive bias; accept a band.
        assert!((0.4..0.68).contains(&h), "H = {h}");
    }

    #[test]
    fn random_walk_increments_vs_levels() {
        // The *levels* of a random walk are strongly persistent: H near 1.
        let noise = white_noise(8192, 2);
        let mut walk = Vec::with_capacity(noise.len());
        let mut acc = 0.0;
        for v in &noise {
            acc += v;
            walk.push(acc);
        }
        let h_walk = rs_hurst(&walk).unwrap();
        let h_noise = rs_hurst(&noise).unwrap();
        assert!(h_walk > 0.8, "walk H = {h_walk}");
        assert!(h_walk > h_noise + 0.2);
    }

    #[test]
    fn pox_plot_block_sizes_increase() {
        let x = white_noise(2048, 3);
        let points = pox_plot(&x, 8, 15);
        assert!(points.len() >= 5);
        for w in points.windows(2) {
            assert!(w[0].block_size < w[1].block_size);
        }
        // Largest size uses at least 2 blocks.
        assert!(points.last().unwrap().blocks >= 2);
    }

    #[test]
    fn too_short_series_is_none() {
        assert!(rs_hurst(&[1.0, 2.0, 3.0]).is_none());
        assert!(rs_hurst(&[]).is_none());
    }

    #[test]
    fn anti_persistent_alternation_scores_low() {
        let x: Vec<f64> = (0..4096)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        // Purely alternating series: R/S grows very slowly.
        let h = rs_hurst(&x).unwrap();
        assert!(h < 0.3, "H = {h}");
    }

    /// Point-by-point agreement between the prefix-sum plot and the naive
    /// oracle, to `tol` relative.
    fn assert_matches_oracle(x: &[f64], min_block: usize, points: usize, tol: f64) {
        let fast = pox_plot(x, min_block, points);
        let naive = pox_plot_naive(x, min_block, points);
        assert_eq!(fast.len(), naive.len());
        for (f, o) in fast.iter().zip(&naive) {
            assert_eq!(f.block_size, o.block_size);
            assert_eq!(f.blocks, o.blocks);
            let rel = (f.mean_rs - o.mean_rs).abs() / o.mean_rs.abs().max(1e-300);
            assert!(
                rel <= tol,
                "block {}: {} vs {} (rel {rel:e})",
                f.block_size,
                f.mean_rs,
                o.mean_rs
            );
        }
    }

    #[test]
    fn prefix_sum_plot_matches_naive_on_noise_and_walks() {
        for seed in 0..4 {
            let noise = white_noise(3000 + 97 * seed as usize, seed);
            assert_matches_oracle(&noise, 8, 20, 1e-12);
            let mut acc = 0.0;
            let walk: Vec<f64> = noise
                .iter()
                .map(|v| {
                    acc += v;
                    acc
                })
                .collect();
            // Walk levels drift far from zero, so small blocks have
            // mean^2 >> var and the E[x^2] - mean^2 form loses a few more
            // bits to cancellation than on centered noise.
            assert_matches_oracle(&walk, 4, 15, 1e-9);
        }
    }

    proptest! {
        #[test]
        fn prefix_sum_plot_matches_naive_on_random_series(
            xs in proptest::collection::vec(-1e3f64..1e3, 64..400),
            min_block in 4usize..16,
            points in 1usize..25,
        ) {
            assert_matches_oracle(&xs, min_block, points, 1e-12);
        }

        #[test]
        fn rescaled_range_scale_invariant(
            xs in proptest::collection::vec(-100f64..100.0, 8..64),
            scale in 0.5f64..100.0,
        ) {
            // R/S is invariant under affine maps x -> a x + b.
            if let Some(rs) = rescaled_range(&xs) {
                let mapped: Vec<f64> = xs.iter().map(|v| scale * v + 7.0).collect();
                let rs2 = rescaled_range(&mapped).unwrap();
                prop_assert!((rs - rs2).abs() / rs <= 1e-9, "{rs} vs {rs2}");
            }
        }
    }
}
