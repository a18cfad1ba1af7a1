//! Block aggregation (appendix Eq. 8).

/// The aggregated series `X^(m)`: averages of non-overlapping blocks of
/// size `m` (Eq. 8). A trailing partial block is discarded.
///
/// # Panics
/// Panics when `m == 0`.
pub fn aggregate_series(x: &[f64], m: usize) -> Vec<f64> {
    assert!(m > 0, "block size must be positive");
    x.chunks_exact(m)
        .map(|block| block.iter().sum::<f64>() / m as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_block_means() {
        let x = [1.0, 3.0, 5.0, 7.0, 100.0];
        assert_eq!(aggregate_series(&x, 2), vec![2.0, 6.0]); // partial dropped
        assert_eq!(aggregate_series(&x, 1), x.to_vec());
        assert_eq!(aggregate_series(&x, 5), vec![23.2]);
        assert!(aggregate_series(&x, 6).is_empty());
    }

    #[test]
    fn aggregation_preserves_mean_of_complete_blocks() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let agg = aggregate_series(&x, 10);
        let m1 = x.iter().sum::<f64>() / 100.0;
        let m2 = agg.iter().sum::<f64>() / 10.0;
        assert!((m1 - m2).abs() < 1e-9);
    }
}
