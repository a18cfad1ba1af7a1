//! Ranking with midrank tie handling.

/// Ranks of the data, 1-based, with ties assigned the average of the ranks
/// they span (midranks). `ranks(&[10, 20, 20, 30])` is `[1, 2.5, 2.5, 4]`.
///
/// NaN values are ranked last (after all finite values), in input order.
pub fn ranks(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        data[a]
            .partial_cmp(&data[b])
            .unwrap_or_else(|| data[a].is_nan().cmp(&data[b].is_nan()))
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the tie run [i, j).
        let mut j = i + 1;
        while j < n && data[idx[j]] == data[idx[i]] {
            j += 1;
        }
        // Average rank for the run (ranks are 1-based).
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in &idx[i..j] {
            out[k] = avg;
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_ranks() {
        assert_eq!(ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn midrank_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        // Triple tie: ranks 1,2,3 average to 2.
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn rank_sum_invariant() {
        // Sum of ranks is always n(n+1)/2 regardless of ties.
        let d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let r = ranks(&d);
        let sum: f64 = r.iter().sum();
        assert!((sum - 55.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert!(ranks(&[]).is_empty());
        assert_eq!(ranks(&[7.0]), vec![1.0]);
    }

    #[test]
    fn nans_rank_last() {
        let d = [f64::NAN, 1.0, 2.0];
        let r = ranks(&d);
        assert_eq!(r[1], 1.0);
        assert_eq!(r[2], 2.0);
        assert_eq!(r[0], 3.0);
    }
}
