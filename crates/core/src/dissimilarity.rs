//! Stage 2: dissimilarities between observation rows.
//!
//! The paper uses the city-block (L1) distance between z-score rows
//! (Eq. 2). Euclidean and general Minkowski metrics are provided for the
//! ablation benches; the MDS stage is metric-agnostic because it only uses
//! the *order* of the dissimilarities.
//!
//! All three metrics are `(sum_v |a_v - b_v|^p)^(1/p)`, so there is one
//! kernel: [`PairContributions`] keeps each variable's term `|a_v - b_v|^p`
//! for every observation pair, and [`PairContributions::combine`] sums the
//! terms of a variable subset and takes the root.
//! [`DissimilarityMatrix::compute`] is the combination of every variable,
//! and the engine's elimination rounds and subset searches combine subsets
//! of one set of contributions.

use crate::data::NormalizedMatrix;
use crate::error::CoplotError;

/// Distance metric between normalized observation rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Metric {
    /// Sum of absolute coordinate differences (the paper's choice).
    #[default]
    CityBlock,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Minkowski distance of the given order (>= 1).
    Minkowski(f64),
}

impl Metric {
    /// The Minkowski order `p` of this metric: the root that
    /// [`PairContributions::combine`] takes of its sums.
    pub fn order(&self) -> f64 {
        match self {
            Metric::CityBlock => 1.0,
            Metric::Euclidean => 2.0,
            Metric::Minkowski(p) => *p,
        }
    }
}

/// Per-variable dissimilarity contributions `|dz_v|^p` for every observation
/// pair, kept so any variable subset's dissimilarities can be rebuilt by
/// summation instead of a fresh pass over the data.
#[derive(Debug, Clone)]
pub struct PairContributions {
    n: usize,
    order: f64,
    /// `per_variable[v][pair]` in upper-triangle pair order.
    per_variable: Vec<Vec<f64>>,
}

impl PairContributions {
    /// Contributions of every variable of `z` under `metric`.
    pub fn compute(z: &NormalizedMatrix, metric: Metric) -> PairContributions {
        let n = z.n_observations();
        let p = z.n_variables();
        let order = metric.order();
        let n_pairs = n * (n - 1) / 2;
        // Flat preallocated rows (one per variable) with the metric match
        // hoisted out of the per-cell loop.
        let mut per_variable = vec![vec![0.0f64; n_pairs]; p];
        let mut pair = 0usize;
        for i in 0..n {
            for k in (i + 1)..n {
                let (a, b) = (z.row(i), z.row(k));
                // The per-term expressions of the plain per-pair fold, so a
                // combined sum is that fold's value bit for bit.
                match metric {
                    Metric::CityBlock => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            contribs[pair] = (a[v] - b[v]).abs();
                        }
                    }
                    Metric::Euclidean => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            let d = a[v] - b[v];
                            contribs[pair] = d * d;
                        }
                    }
                    Metric::Minkowski(p) => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            contribs[pair] = (a[v] - b[v]).abs().powf(p);
                        }
                    }
                }
                pair += 1;
            }
        }
        PairContributions {
            n,
            order,
            per_variable,
        }
    }

    /// Dissimilarities over the variable subset `keep`.
    ///
    /// Each pair's sum starts at +0.0 and adds the variables in the order
    /// of `keep`, so an ascending `keep` gives the same bits as a fresh
    /// computation over the subset's columns.
    ///
    /// # Panics
    /// Panics on an out-of-range variable index — a caller bug.
    pub fn combine(&self, keep: &[usize]) -> DissimilarityMatrix {
        let mut sums = vec![0.0; self.n * (self.n - 1) / 2];
        for &v in keep {
            for (s, &c) in sums.iter_mut().zip(&self.per_variable[v]) {
                *s += c;
            }
        }
        if self.order == 2.0 {
            // `.sqrt()` rather than `.powf(0.5)`: the Euclidean root.
            for s in &mut sums {
                *s = s.sqrt();
            }
        } else if self.order != 1.0 {
            for s in &mut sums {
                *s = s.powf(1.0 / self.order);
            }
        }
        DissimilarityMatrix::from_pairs(self.n, sums)
    }
}

/// Symmetric `n x n` dissimilarity matrix with zero diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct DissimilarityMatrix {
    n: usize,
    /// Upper triangle, row-major: entry for (i, k) with i < k at
    /// `index(i, k)`.
    upper: Vec<f64>,
}

impl DissimilarityMatrix {
    /// Compute all pairwise dissimilarities of a normalized matrix: the
    /// [`PairContributions`] of every variable, combined.
    pub fn compute(z: &NormalizedMatrix, metric: Metric) -> DissimilarityMatrix {
        let all: Vec<usize> = (0..z.n_variables()).collect();
        PairContributions::compute(z, metric).combine(&all)
    }

    /// Build directly from a full symmetric matrix (used by tests and by
    /// analyses that bring their own dissimilarities).
    ///
    /// # Errors
    /// Returns [`CoplotError::DimensionMismatch`] for ragged input and
    /// [`CoplotError::Normalization`] when the matrix is asymmetric or has
    /// a nonzero diagonal.
    pub fn from_full(matrix: &[Vec<f64>]) -> Result<DissimilarityMatrix, CoplotError> {
        let n = matrix.len();
        let mut upper = Vec::with_capacity(n * (n - 1) / 2);
        for (i, row) in matrix.iter().enumerate() {
            if row.len() != n {
                return Err(CoplotError::DimensionMismatch {
                    context: format!("dissimilarity matrix row {i}"),
                    expected: n,
                    got: row.len(),
                });
            }
            // `>=` plus an explicit NaN check so a NaN diagonal also errors.
            if row[i].abs() >= 1e-12 || row[i].is_nan() {
                return Err(CoplotError::Normalization(format!(
                    "dissimilarity diagonal entry ({i}, {i}) must be zero, got {}",
                    row[i]
                )));
            }
            for (k, &value) in row.iter().enumerate().skip(i + 1) {
                let gap = (value - matrix[k][i]).abs();
                // `>=` plus an explicit NaN check so NaN cells also error.
                if gap >= 1e-9 || gap.is_nan() {
                    return Err(CoplotError::Normalization(format!(
                        "dissimilarity matrix must be symmetric: ({i}, {k}) = {value} \
                         vs ({k}, {i}) = {}",
                        matrix[k][i]
                    )));
                }
                upper.push(value);
            }
        }
        Ok(DissimilarityMatrix { n, upper })
    }

    /// Build from an already-flattened upper triangle (the contribution
    /// path). Callers guarantee the length invariant.
    pub(crate) fn from_pairs(n: usize, upper: Vec<f64>) -> DissimilarityMatrix {
        debug_assert_eq!(upper.len(), n * (n - 1) / 2, "pair count mismatch");
        DissimilarityMatrix { n, upper }
    }

    /// Overwrite one upper-triangle entry, bypassing validation — only for
    /// exercising error paths in tests.
    #[cfg(test)]
    pub(crate) fn poison_for_tests(&mut self, pair: usize, value: f64) {
        self.upper[pair] = value;
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct pairs `n (n-1) / 2`.
    pub fn n_pairs(&self) -> usize {
        self.upper.len()
    }

    /// Dissimilarity between observations `i` and `k` (0 when `i == k`).
    ///
    /// # Panics
    /// Panics on an out-of-range index — a caller bug, not a data error.
    pub fn get(&self, i: usize, k: usize) -> f64 {
        assert!(i < self.n && k < self.n, "index out of range");
        if i == k {
            return 0.0;
        }
        let (lo, hi) = if i < k { (i, k) } else { (k, i) };
        self.upper[Self::index(self.n, lo, hi)]
    }

    /// The flattened upper triangle in (0,1), (0,2), ..., (n-2, n-1) order.
    pub fn pairs(&self) -> &[f64] {
        &self.upper
    }

    /// Flat index of pair `(i, k)` with `i < k`.
    fn index(n: usize, i: usize, k: usize) -> usize {
        debug_assert!(i < k);
        // Pairs before row i: i rows of lengths (n-1), (n-2), ...
        i * n - i * (i + 1) / 2 + (k - i - 1)
    }

    /// Iterator of `((i, k), dissimilarity)` over the upper triangle.
    pub fn iter_pairs(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        let n = self.n;
        (0..n)
            .flat_map(move |i| ((i + 1)..n).map(move |k| (i, k)))
            .zip(self.upper.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataMatrix, Imputation};

    fn normalized_identity_like() -> NormalizedMatrix {
        // Three well-separated observations in 2 variables.
        DataMatrix::from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec!["x".into(), "y".into()],
            &[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 2.0]],
        )
        .normalize(Imputation::Forbid)
        .unwrap()
    }

    #[test]
    fn cityblock_matches_hand_computation() {
        let z = normalized_identity_like();
        let d = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        // Direct recomputation.
        for i in 0..3 {
            for k in 0..3 {
                let expect: f64 = z
                    .row(i)
                    .iter()
                    .zip(z.row(k))
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!((d.get(i, k) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn symmetric_zero_diagonal() {
        let z = normalized_identity_like();
        let d = DissimilarityMatrix::compute(&z, Metric::Euclidean);
        for i in 0..3 {
            assert_eq!(d.get(i, i), 0.0);
            for k in 0..3 {
                assert_eq!(d.get(i, k), d.get(k, i));
            }
        }
    }

    #[test]
    fn pair_count_and_indexing() {
        let z = DataMatrix::from_rows(
            (0..5).map(|i| format!("o{i}")).collect(),
            vec!["v".into()],
            &[&[1.0], &[2.0], &[3.0], &[4.0], &[5.0]],
        )
        .normalize(Imputation::Forbid)
        .unwrap();
        let d = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        assert_eq!(d.n_pairs(), 10);
        // iter_pairs covers each unordered pair once, in order.
        let pairs: Vec<(usize, usize)> = d.iter_pairs().map(|(ik, _)| ik).collect();
        assert_eq!(pairs[0], (0, 1));
        assert_eq!(pairs[9], (3, 4));
        assert_eq!(pairs.len(), 10);
        // get() agrees with iteration order values.
        for ((i, k), v) in d.iter_pairs() {
            assert_eq!(d.get(i, k), v);
        }
    }

    #[test]
    fn metric_choices_differ() {
        let z = normalized_identity_like();
        let l1 = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        let l2 = DissimilarityMatrix::compute(&z, Metric::Euclidean);
        let l3 = DissimilarityMatrix::compute(&z, Metric::Minkowski(3.0));
        // L1 >= L2 >= L3 pointwise.
        for ((i, k), v1) in l1.iter_pairs() {
            let v2 = l2.get(i, k);
            let v3 = l3.get(i, k);
            assert!(v1 >= v2 - 1e-12);
            assert!(v2 >= v3 - 1e-12);
        }
    }

    /// Pins stage 2 to the plain per-pair fold of the paper's Eq. 2 and
    /// its Euclidean and Minkowski siblings: each pair sums its per-variable
    /// terms in ascending variable order from +0.0, then takes the root.
    #[test]
    fn compute_is_bitwise_equal_to_naive_per_pair_fold() {
        for n in 3..=11usize {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..5)
                        .map(|v| ((i * 31 + v * 17 + 3) % 23) as f64 * 0.37 - 2.0)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let z = DataMatrix::from_rows(
                (0..n).map(|i| format!("o{i}")).collect(),
                (0..5).map(|v| format!("v{v}")).collect(),
                &refs,
            )
            .normalize(Imputation::Forbid)
            .unwrap();
            for metric in [Metric::CityBlock, Metric::Euclidean, Metric::Minkowski(3.0)] {
                let naive = |a: &[f64], b: &[f64]| {
                    let mut sum = 0.0f64;
                    for (x, y) in a.iter().zip(b) {
                        sum += match metric {
                            Metric::CityBlock => (x - y).abs(),
                            Metric::Euclidean => (x - y) * (x - y),
                            Metric::Minkowski(p) => (x - y).abs().powf(p),
                        };
                    }
                    match metric {
                        Metric::CityBlock => sum,
                        Metric::Euclidean => sum.sqrt(),
                        Metric::Minkowski(p) => sum.powf(1.0 / p),
                    }
                };
                let got = DissimilarityMatrix::compute(&z, metric);
                let mut want = Vec::new();
                for i in 0..n {
                    for k in (i + 1)..n {
                        want.push(naive(z.row(i), z.row(k)));
                    }
                }
                assert_eq!(got.pairs().len(), want.len());
                for (pair, (g, w)) in got.pairs().iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "n={n} metric={metric:?} pair={pair}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_full_round_trip() {
        let m = vec![
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 3.0],
            vec![2.0, 3.0, 0.0],
        ];
        let d = DissimilarityMatrix::from_full(&m).unwrap();
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(2, 0), 2.0);
        assert_eq!(d.get(1, 2), 3.0);
    }

    #[test]
    fn asymmetric_rejected() {
        let m = vec![
            vec![0.0, 1.0],
            vec![2.0, 0.0],
        ];
        let err = DissimilarityMatrix::from_full(&m).unwrap_err();
        assert!(err.to_string().contains("symmetric"), "{err}");
    }

    #[test]
    fn ragged_and_bad_diagonal_rejected() {
        let ragged = vec![vec![0.0, 1.0], vec![1.0]];
        assert!(matches!(
            DissimilarityMatrix::from_full(&ragged).unwrap_err(),
            crate::CoplotError::DimensionMismatch { .. }
        ));
        let diag = vec![vec![1.0, 1.0], vec![1.0, 0.0]];
        assert!(DissimilarityMatrix::from_full(&diag).is_err());
        // NaN anywhere fails the symmetry/diagonal comparisons too.
        let nan = vec![vec![0.0, f64::NAN], vec![f64::NAN, 0.0]];
        assert!(DissimilarityMatrix::from_full(&nan).is_err());
    }
}
