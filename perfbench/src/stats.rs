//! Summary statistics: medians, the tail-percentile rule, and the
//! geometric mean that folds several operation kinds into one number.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of a sample (mean of the two middle values for even counts).
/// Zero for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Standard percentiles a tail may be reported at.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products such as 99.9% of 10 000 from rounding up
    // past an exact rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that lie beyond the nearest-rank position of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail percentile for `n` samples by the rule "the highest percentile
/// that has at least [`TAIL_BEYOND`] samples beyond it", over [`LADDER`]
/// and above the median. A sample too small for any reports its maximum:
/// 100.
pub fn rule_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p > 50.0 && beyond(n, p) >= TAIL_BEYOND)
        .unwrap_or(100.0)
}

/// Nearest-rank percentile `p` of a sample; zero for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[rank(samples.len(), p) - 1]
}

/// Geometric mean of positive values; zero if any value is not positive
/// or the slice is empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median and tail of one operation kind's latencies, with the count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Operation kind, e.g. `table1` or `coplot`.
    pub kind: String,
    /// Samples behind the figures.
    pub n: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// Tail value.
    pub tail: f64,
    /// Percentile the tail value sits at.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarize one kind's samples, with the tail at the rule's
    /// percentile for their count (100 for the maximum).
    pub fn of(kind: &str, samples: &[f64]) -> Summary {
        let tail_pct = rule_percentile(samples.len());
        Summary {
            kind: kind.to_string(),
            n: samples.len(),
            p50: median(samples),
            tail: percentile(samples, tail_pct),
            tail_pct,
        }
    }

    /// One report line: kind, sample count, median, and the tail with its
    /// percentile and the samples beyond it.
    pub fn render(&self, unit: &str) -> String {
        format!(
            "  {:<16} n={:<6} p50 {:>10.3} {unit}   p{} {:>10.3} {unit} ({} beyond)",
            self.kind,
            self.n,
            self.p50,
            self.tail_pct,
            self.tail,
            beyond(self.n, self.tail_pct),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn rule_picks_the_highest_percentile_with_ten_beyond() {
        // p99 needs 1000 samples: exactly ten lie beyond rank 990.
        assert_eq!(rule_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(rule_percentile(999), 95.0);
        // p99.9 needs 10 000.
        assert_eq!(rule_percentile(3000), 99.0);
        assert_eq!(rule_percentile(10_000), 99.9);
        assert_eq!(rule_percentile(100), 90.0);
        assert_eq!(rule_percentile(99), 75.0);
        assert_eq!(rule_percentile(40), 75.0);
        // Too few samples for any tail above the median: the maximum.
        assert_eq!(rule_percentile(39), 100.0);
        assert_eq!(rule_percentile(16), 100.0);
        assert_eq!(beyond(16, 100.0), 0);
    }

    #[test]
    fn geomean_weighs_kinds_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-12);
        // A 21% change in any one of two kinds moves the mean by 10%.
        let base = geomean(&[2.0, 50.0]);
        let moved = geomean(&[2.0 * 1.21, 50.0]);
        assert!((moved / base - 1.1).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn summary_reports_count_beside_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of("coplot", &xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        let line = s.render("ms");
        assert!(line.contains("n=100"), "{line}");
        assert!(line.contains("p90 "), "{line}");
        assert!(line.contains("(10 beyond)"), "{line}");
        let few = Summary::of("subset_search", &xs[..12]);
        assert_eq!((few.tail_pct, few.tail), (100.0, 12.0));
    }
}
