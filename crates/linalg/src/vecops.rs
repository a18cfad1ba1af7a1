//! Free-function helpers on `&[f64]` slices.
//!
//! These cover the handful of vector operations the MDS and arrow-fitting
//! code needs without dragging in a full vector type.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two points.
///
/// # Panics
/// Panics if lengths differ.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// City-block (L1 / Manhattan) distance between two points.
///
/// # Panics
/// Panics if lengths differ.
pub fn cityblock_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Minkowski distance of order `p` (p >= 1).
///
/// # Panics
/// Panics if lengths differ or `p < 1.0`.
pub fn minkowski_distance(a: &[f64], b: &[f64], p: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    assert!(p >= 1.0, "minkowski order must be >= 1, got {p}");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs().powf(p))
        .sum::<f64>()
        .powf(1.0 / p)
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Subtract the mean from every element, returning the centered copy.
pub fn centered(a: &[f64]) -> Vec<f64> {
    let m = mean(a);
    a.iter().map(|v| v - m).collect()
}

// ---------------------------------------------------------------------------
// 4-wide manual-vectorization lanes.
//
// The repo's determinism contract forbids reassociating any single float
// accumulation chain, so the kernels below never split one sum across
// lanes. Instead each lane owns one *independent* accumulation (one
// distance, one extremum), which is bit-identical to the scalar loop while
// letting the compiler keep four chains in flight. This is the same pattern
// as the W-extrema scan that used to live inline in `wl-selfsim` (now
// [`affine_extrema4`]).
// ---------------------------------------------------------------------------

/// City-block distances from `a` to each of four rows, one per lane. Lane
/// `j` accumulates in the same element order as [`cityblock_distance`]`(a,
/// b[j])`, so each lane is bit-identical to the scalar call.
///
/// # Panics
/// Panics if any length differs.
pub fn cityblock_distance4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a.len();
    let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
    assert!(
        b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n,
        "distance length mismatch"
    );
    let mut acc = [0.0f64; 4];
    for (v, &av) in a.iter().enumerate() {
        acc[0] += (av - b0[v]).abs();
        acc[1] += (av - b1[v]).abs();
        acc[2] += (av - b2[v]).abs();
        acc[3] += (av - b3[v]).abs();
    }
    acc
}

/// Euclidean distances from `a` to each of four rows, one per lane;
/// bit-identical per lane to [`euclidean_distance`].
///
/// # Panics
/// Panics if any length differs.
pub fn euclidean_distance4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let n = a.len();
    let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
    assert!(
        b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n,
        "distance length mismatch"
    );
    let mut acc = [0.0f64; 4];
    for (v, &av) in a.iter().enumerate() {
        let (d0, d1, d2, d3) = (av - b0[v], av - b1[v], av - b2[v], av - b3[v]);
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    [acc[0].sqrt(), acc[1].sqrt(), acc[2].sqrt(), acc[3].sqrt()]
}

/// Minkowski distances of order `p` from `a` to each of four rows, one per
/// lane; bit-identical per lane to [`minkowski_distance`]. The `powf`
/// calls dominate, but the four independent chains still pipeline.
///
/// # Panics
/// Panics if any length differs or `p < 1.0`.
pub fn minkowski_distance4(a: &[f64], b: [&[f64]; 4], p: f64) -> [f64; 4] {
    let n = a.len();
    let (b0, b1, b2, b3) = (b[0], b[1], b[2], b[3]);
    assert!(
        b0.len() == n && b1.len() == n && b2.len() == n && b3.len() == n,
        "distance length mismatch"
    );
    assert!(p >= 1.0, "minkowski order must be >= 1, got {p}");
    let mut acc = [0.0f64; 4];
    for (v, &av) in a.iter().enumerate() {
        acc[0] += (av - b0[v]).abs().powf(p);
        acc[1] += (av - b1[v]).abs().powf(p);
        acc[2] += (av - b2[v]).abs().powf(p);
        acc[3] += (av - b3[v]).abs().powf(p);
    }
    let q = 1.0 / p;
    [
        acc[0].powf(q),
        acc[1].powf(q),
        acc[2].powf(q),
        acc[3].powf(q),
    ]
}

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

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn distances_match_hand_values() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((euclidean_distance(&a, &b) - 5.0).abs() < 1e-15);
        assert!((cityblock_distance(&a, &b) - 7.0).abs() < 1e-15);
        // Minkowski p=1 is city-block, p=2 is Euclidean.
        assert!((minkowski_distance(&a, &b, 1.0) - 7.0).abs() < 1e-12);
        assert!((minkowski_distance(&a, &b, 2.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn minkowski_monotone_in_p() {
        // For fixed points, Lp norm is non-increasing in p.
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 2.0, 3.0];
        let d1 = minkowski_distance(&a, &b, 1.0);
        let d2 = minkowski_distance(&a, &b, 2.0);
        let d3 = minkowski_distance(&a, &b, 3.0);
        assert!(d1 >= d2 && d2 >= d3);
    }

    #[test]
    fn centered_has_zero_mean() {
        let c = centered(&[1.0, 2.0, 3.0, 10.0]);
        assert!(mean(&c).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

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
    fn distance4_lanes_are_bitwise_equal_to_scalar() {
        let mut seed = 99u64;
        for dims in [1usize, 2, 3, 7, 18] {
            let a = lcg_fill(dims, &mut seed);
            let rows: Vec<Vec<f64>> = (0..4).map(|_| lcg_fill(dims, &mut seed)).collect();
            let b = [
                rows[0].as_slice(),
                rows[1].as_slice(),
                rows[2].as_slice(),
                rows[3].as_slice(),
            ];
            let cb = cityblock_distance4(&a, b);
            let eu = euclidean_distance4(&a, b);
            let mk = minkowski_distance4(&a, b, 3.0);
            for j in 0..4 {
                assert_eq!(
                    cb[j].to_bits(),
                    cityblock_distance(&a, b[j]).to_bits(),
                    "cityblock lane {j} dims {dims}"
                );
                assert_eq!(
                    eu[j].to_bits(),
                    euclidean_distance(&a, b[j]).to_bits(),
                    "euclidean lane {j} dims {dims}"
                );
                assert_eq!(
                    mk[j].to_bits(),
                    minkowski_distance(&a, b[j], 3.0).to_bits(),
                    "minkowski lane {j} dims {dims}"
                );
            }
        }
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
