//! Slice kernels with independent lanes.
//!
//! The repo's determinism contract forbids reassociating any single float
//! accumulation chain. [`affine_extrema4`] keeps four independent extrema,
//! one per lane, and merges them with `max`/`min`, which are exact over any
//! partition: the result is bit-identical to the scalar scan while the
//! compiler keeps four chains in flight.

/// Extrema of the affine-detrended walk `win[k] - base - (k+1) * step` for
/// `k in 0..win.len()`, with both extrema seeded at 0.0 (the `W_0 = 0` term
/// of an R/S rescaled-range scan). Four lanes, each owning every fourth
/// term; `max` / `min` are associative and commutative over the partition,
/// so the merged result is exact — identical to the scalar scan.
pub fn affine_extrema4(win: &[f64], base: f64, step: f64) -> (f64, f64) {
    let mut max_w = [0.0f64; 4];
    let mut min_w = [0.0f64; 4];
    let chunks = win.chunks_exact(4);
    let rem = chunks.remainder();
    let mut k0 = 0usize;
    for c in chunks {
        for j in 0..4 {
            let w = c[j] - base - (k0 + j + 1) as f64 * step;
            max_w[j] = max_w[j].max(w);
            min_w[j] = min_w[j].min(w);
        }
        k0 += 4;
    }
    for (j, &pk) in rem.iter().enumerate() {
        let w = pk - base - (k0 + j + 1) as f64 * step;
        max_w[0] = max_w[0].max(w);
        min_w[0] = min_w[0].min(w);
    }
    (
        max_w[0].max(max_w[1]).max(max_w[2]).max(max_w[3]),
        min_w[0].min(min_w[1]).min(min_w[2]).min(min_w[3]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill, good enough for bitwise checks.
    fn lcg_fill(len: usize, seed: &mut u64) -> Vec<f64> {
        (0..len)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn affine_extrema4_matches_scalar_scan() {
        let mut seed = 7u64;
        for len in [0usize, 1, 3, 4, 5, 8, 17, 100] {
            let win = lcg_fill(len, &mut seed);
            let (base, step) = (0.35, -0.04);
            // Scalar reference: the pre-hoist wl-selfsim loop.
            let mut max_w = 0.0f64;
            let mut min_w = 0.0f64;
            for (k, &pk) in win.iter().enumerate() {
                let w = pk - base - (k + 1) as f64 * step;
                max_w = max_w.max(w);
                min_w = min_w.min(w);
            }
            let (fast_max, fast_min) = affine_extrema4(&win, base, step);
            assert_eq!(fast_max.to_bits(), max_w.to_bits(), "max len {len}");
            assert_eq!(fast_min.to_bits(), min_w.to_bits(), "min len {len}");
        }
    }
}
