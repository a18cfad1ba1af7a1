//! Weighted isotonic regression by pool-adjacent-violators (PAVA).
//!
//! Nonmetric MDS replaces raw dissimilarities with *disparities*: the
//! monotone (order-preserving) transform of the dissimilarities that best
//! matches the current map distances in the least-squares sense. That
//! transform is exactly an isotonic regression of the distances against the
//! dissimilarity order, which PAVA solves optimally in linear time.
//!
//! [`Pava`] is the one implementation: a stack of pooled blocks that is
//! cleared, not freed, between fits, so a caller refitting every iteration
//! (the MDS optimizer) allocates once. [`isotonic_regression`] and
//! [`try_isotonic_regression`] wrap it for one-shot slice input.

use crate::error::StatsError;

/// A run of consecutive inputs pooled to one fitted value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// The fitted value: the weighted mean of the pooled inputs.
    pub mean: f64,
    /// Total weight of the pooled inputs.
    weight: f64,
    /// Number of pooled inputs.
    pub count: usize,
}

impl Block {
    /// Pool `self` with the block that follows it.
    fn pool(self, next: Block) -> Block {
        let weight = self.weight + next.weight;
        let mean = if weight > 0.0 {
            (self.mean * self.weight + next.mean * next.weight) / weight
        } else {
            // All-zero weights: plain average keeps the output finite.
            (self.mean + next.mean) / 2.0
        };
        Block {
            mean,
            weight,
            count: self.count + next.count,
        }
    }
}

/// Pool-adjacent-violators on one reusable stack of blocks.
#[derive(Debug, Clone, Default)]
pub struct Pava {
    blocks: Vec<Block>,
}

impl Pava {
    /// Fit `(value, weight)` points, taken in order, and return the blocks
    /// left to right: the first block's `count` inputs are fitted to its
    /// `mean`, the next block's inputs follow, and so on. The fitted values
    /// are non-decreasing along the input order and minimize
    /// `sum w_i (y_i - f_i)^2`. Weights are not checked here; see
    /// [`try_isotonic_regression`].
    pub fn fit(&mut self, points: impl IntoIterator<Item = (f64, f64)>) -> &[Block] {
        self.blocks.clear();
        for (mean, weight) in points {
            let mut last = Block {
                mean,
                weight,
                count: 1,
            };
            // Merge backwards while the monotonicity constraint is violated.
            while let Some(&prev) = self.blocks.last() {
                if prev.mean <= last.mean {
                    break;
                }
                self.blocks.pop();
                last = prev.pool(last);
            }
            self.blocks.push(last);
        }
        &self.blocks
    }
}

/// Weighted isotonic regression: given `y` (and optional non-negative
/// weights), return the non-decreasing sequence `f` minimizing
/// `sum w_i (y_i - f_i)^2`.
///
/// # Panics
/// Panics on length mismatch or a negative weight; see
/// [`try_isotonic_regression`] for the fallible variant.
pub fn isotonic_regression(y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
    try_isotonic_regression(y, w).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`isotonic_regression`], for callers that must
/// report invalid input instead of panicking. Unweighted input pools with
/// unit weights.
///
/// # Errors
/// Returns [`StatsError::LengthMismatch`] when the weight slice's length
/// differs from `y`'s and [`StatsError::NegativeWeight`] for a negative
/// weight.
pub fn try_isotonic_regression(y: &[f64], w: Option<&[f64]>) -> Result<Vec<f64>, StatsError> {
    if let Some(w) = w {
        if w.len() != y.len() {
            return Err(StatsError::LengthMismatch {
                context: "isotonic_regression",
                left: w.len(),
                right: y.len(),
            });
        }
        if w.iter().any(|&v| v < 0.0) {
            return Err(StatsError::NegativeWeight {
                context: "isotonic_regression",
            });
        }
    }
    let mut pava = Pava::default();
    let blocks = pava.fit(
        y.iter()
            .enumerate()
            .map(|(i, &v)| (v, w.map_or(1.0, |w| w[i]))),
    );
    let mut out = Vec::with_capacity(y.len());
    for b in blocks {
        out.extend(std::iter::repeat_n(b.mean, b.count));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-block-stack PAVA, verbatim: three parallel push/pop stacks
    /// and fresh vectors per call. The oracle [`Pava`] must match bit for
    /// bit.
    fn try_isotonic_regression_oracle(
        y: &[f64],
        w: Option<&[f64]>,
    ) -> Result<Vec<f64>, StatsError> {
        if let Some(w) = w {
            if w.len() != y.len() {
                return Err(StatsError::LengthMismatch {
                    context: "isotonic_regression",
                    left: w.len(),
                    right: y.len(),
                });
            }
            if w.iter().any(|&v| v < 0.0) {
                return Err(StatsError::NegativeWeight {
                    context: "isotonic_regression",
                });
            }
        }
        let n = y.len();
        if n == 0 {
            return Ok(Vec::new());
        }

        // Blocks of pooled values: (weighted mean, total weight, count).
        let mut means: Vec<f64> = Vec::with_capacity(n);
        let mut weights: Vec<f64> = Vec::with_capacity(n);
        let mut counts: Vec<usize> = Vec::with_capacity(n);

        for i in 0..n {
            let wi = w.map_or(1.0, |w| w[i]);
            means.push(y[i]);
            weights.push(wi);
            counts.push(1);
            // Merge backwards while the monotonicity constraint is violated.
            while means.len() >= 2 {
                let k = means.len();
                if means[k - 2] <= means[k - 1] {
                    break;
                }
                let wsum = weights[k - 2] + weights[k - 1];
                let merged = if wsum > 0.0 {
                    (means[k - 2] * weights[k - 2] + means[k - 1] * weights[k - 1]) / wsum
                } else {
                    // All-zero weights: plain average keeps the output finite.
                    (means[k - 2] + means[k - 1]) / 2.0
                };
                means[k - 2] = merged;
                weights[k - 2] = wsum;
                counts[k - 2] += counts[k - 1];
                means.pop();
                weights.pop();
                counts.pop();
            }
        }

        // Expand blocks back to per-element values.
        let mut out = Vec::with_capacity(n);
        for (m, c) in means.iter().zip(&counts) {
            out.extend(std::iter::repeat_n(*m, *c));
        }
        Ok(out)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values with forced ties: a small integer pool, a continuous range,
    /// or one constant.
    fn values() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            proptest::collection::vec((0u8..6).prop_map(f64::from), 0..60),
            proptest::collection::vec(-1e3..1e3f64, 0..60),
            (-5.0..5.0f64, 1usize..40).prop_map(|(c, n)| vec![c; n]),
        ]
    }

    /// Weights drawn mostly from {0, 1, 2.5} plus a continuous range, so
    /// zero-weight and all-zero-weight merges both occur.
    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), Just(2.5), 0.0..10.0f64]
    }

    proptest! {
        #[test]
        fn block_stack_matches_oracle_unweighted(y in values()) {
            let fast = try_isotonic_regression(&y, None).unwrap();
            let oracle = try_isotonic_regression_oracle(&y, None).unwrap();
            prop_assert_eq!(bits(&fast), bits(&oracle), "y = {:?}", y);
        }

        #[test]
        fn block_stack_matches_oracle_weighted(
            yw in values().prop_flat_map(|y| {
                let n = y.len();
                (Just(y), proptest::collection::vec(weight(), n))
            }),
            all_zero in proptest::bool::ANY,
        ) {
            let (y, mut w) = yw;
            if all_zero {
                w.fill(0.0);
            }
            let fast = try_isotonic_regression(&y, Some(&w)).unwrap();
            let oracle = try_isotonic_regression_oracle(&y, Some(&w)).unwrap();
            prop_assert_eq!(bits(&fast), bits(&oracle), "y = {:?} w = {:?}", y, w);
        }
    }

    #[test]
    fn pava_reuses_its_stack_across_fits() {
        let mut pava = Pava::default();
        let runs = |blocks: &[Block]| blocks.iter().map(|b| (b.mean, b.count)).collect::<Vec<_>>();
        let first = pava.fit([(3.0, 1.0), (1.0, 1.0), (5.0, 1.0)]);
        assert_eq!(runs(first), [(2.0, 2), (5.0, 1)]);
        // A second fit starts from an empty stack.
        let second = pava.fit([(1.0, 1.0), (2.0, 1.0)]);
        assert_eq!(runs(second), [(1.0, 1), (2.0, 1)]);
        assert!(pava.fit(std::iter::empty()).is_empty());
    }

    fn is_nondecreasing(v: &[f64]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1] + 1e-12)
    }

    #[test]
    fn already_monotone_unchanged() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(isotonic_regression(&y, None), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn try_variant_reports_bad_weights() {
        let y = [1.0, 2.0];
        let err = try_isotonic_regression(&y, Some(&[1.0])).unwrap_err();
        assert!(matches!(err, StatsError::LengthMismatch { .. }));
        let err = try_isotonic_regression(&y, Some(&[1.0, -1.0])).unwrap_err();
        assert!(matches!(err, StatsError::NegativeWeight { .. }));
        assert_eq!(try_isotonic_regression(&[], None).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn simple_violation_pooled() {
        // [3, 1] pools to [2, 2].
        assert_eq!(isotonic_regression(&[3.0, 1.0], None), vec![2.0, 2.0]);
    }

    #[test]
    fn textbook_example() {
        let y = [1.0, 3.0, 2.0, 4.0];
        let f = isotonic_regression(&y, None);
        assert_eq!(f, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn output_always_monotone() {
        let y = [5.0, 4.0, 3.0, 2.0, 1.0, 10.0, 0.0];
        let f = isotonic_regression(&y, None);
        assert!(is_nondecreasing(&f), "{f:?}");
    }

    #[test]
    fn weighted_pooling() {
        // Heavy weight on the first point dominates the pooled mean.
        let y = [4.0, 0.0];
        let f = isotonic_regression(&y, Some(&[3.0, 1.0]));
        assert!((f[0] - 3.0).abs() < 1e-12);
        assert_eq!(f[0], f[1]);
    }

    #[test]
    fn preserves_weighted_mean() {
        // Pooling conserves total weighted mass.
        let y = [2.0, 9.0, 1.0, 7.0, 3.0];
        let w = [1.0, 2.0, 1.0, 0.5, 2.0];
        let f = isotonic_regression(&y, Some(&w));
        let before: f64 = y.iter().zip(&w).map(|(a, b)| a * b).sum();
        let after: f64 = f.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert!((before - after).abs() < 1e-9);
        assert!(is_nondecreasing(&f));
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_regression(&[], None).is_empty());
    }

    #[test]
    fn optimality_against_brute_force_small() {
        // For a 3-element case, compare against a fine grid search over
        // monotone triples.
        let y = [2.0, 0.0, 1.0];
        let f = isotonic_regression(&y, None);
        let cost =
            |g: &[f64]| -> f64 { g.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum() };
        let fcost = cost(&f);
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.05).collect();
        for &a in &grid {
            for &b in grid.iter().filter(|&&b| b >= a) {
                for &c in grid.iter().filter(|&&c| c >= b) {
                    assert!(fcost <= cost(&[a, b, c]) + 1e-9);
                }
            }
        }
    }
}
