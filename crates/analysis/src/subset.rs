//! Section 8's representative-variable search.
//!
//! "We should take one representative from each variables cluster, such
//! that the representatives conserve the previously known map, and that
//! their correlation is highest." The paper did this by hand (finding
//! {allocation flexibility, parallelism median, inter-arrival median} with
//! theta = 0.02 and mean correlation 0.94); this module automates it:
//! exhaustively score every variable subset of the requested size and
//! return the one with the best fit, optionally requiring the subset's map
//! to agree with the full map (Procrustes residual).

use coplot::{Coplot, CoplotError};
use wl_linalg::procrustes_align;

/// One scored subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetSearchResult {
    /// The chosen variable names.
    pub variables: Vec<String>,
    /// Coefficient of alienation of the subset's map.
    pub alienation: f64,
    /// Mean arrow correlation of the subset's map.
    pub mean_correlation: f64,
    /// Procrustes RMSD between the subset's map and the full-variable map
    /// (both unit-RMS-radius, so ~0.5 is "similar shape", 1+ is unrelated).
    pub map_conservation_rmsd: f64,
}

/// Exhaustively search all variable subsets of size `k`, scoring by mean
/// arrow correlation among subsets whose alienation stays under
/// `max_alienation`. Subsets whose per-variable arrows cannot be fitted are
/// skipped. Returns subsets ranked best-first (up to `top`).
///
/// Complexity: `C(p, k)` embeddings — fine for the paper's p <= 18 and
/// k <= 4; guard rails reject larger searches. All subsets share one
/// [`coplot::SharedSubsetSession`], so the data is normalized and its
/// dissimilarity contributions computed exactly once; the subsets only
/// re-embed, spread over `threads` workers. Each worker walks contiguous
/// runs of the lexicographic combination order, and the session sums each
/// subset's dissimilarities from the shared contributions. Each subset's
/// map depends only on those intermediates and the engine seed — never on
/// which combos a worker scored before it — so the ranking is
/// bit-identical for any thread count.
///
/// # Errors
/// [`CoplotError::InvalidConfig`] when `k` is outside `2..=p` or the search
/// space exceeds 20,000 subsets, plus any error from the full-variable
/// analysis.
pub fn best_variable_subset(
    data: &coplot::DataMatrix,
    k: usize,
    max_alienation: f64,
    top: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<SubsetSearchResult>, CoplotError> {
    let mut results = score_combination_range(data, k, max_alienation, seed, threads, None)?;
    rank_subset_results(&mut results, top);
    Ok(results)
}

/// Score the lexicographic combination window `[lo, hi)` (or all `C(p, k)`
/// combinations when `range` is `None`), returning the surviving subsets
/// **in combination order, unranked**.
///
/// This is the distribution primitive behind [`best_variable_subset`]:
/// each combination's score depends only on the engine seed and the
/// session's intermediates — never on which other combinations were
/// scored alongside it — so concatenating the results of contiguous
/// windows covering `0..C(p, k)` reproduces the full enumeration exactly,
/// and one [`rank_subset_results`] pass over the concatenation yields the
/// same ranking bytes as a single-node run.
///
/// # Errors
/// [`CoplotError::InvalidConfig`] for the same guard rails as
/// [`best_variable_subset`], plus an out-of-bounds or empty `range`.
pub fn score_combination_range(
    data: &coplot::DataMatrix,
    k: usize,
    max_alienation: f64,
    seed: u64,
    threads: usize,
    range: Option<(usize, usize)>,
) -> Result<Vec<SubsetSearchResult>, CoplotError> {
    let p = data.n_variables();
    if k < 2 || k > p {
        return Err(CoplotError::InvalidConfig(format!(
            "subset size {k} out of 2..={p}"
        )));
    }
    let n_subsets = binomial(p, k);
    if n_subsets > 20_000 {
        return Err(CoplotError::InvalidConfig(format!(
            "search space too large: C({p},{k}) = {n_subsets}"
        )));
    }
    let (win_lo, win_hi) = match range {
        None => (0, n_subsets),
        Some((lo, hi)) => {
            if lo >= hi || hi > n_subsets {
                return Err(CoplotError::InvalidConfig(format!(
                    "combination range [{lo}, {hi}) must be a non-empty window of 0..{n_subsets}"
                )));
            }
            (lo, hi)
        }
    };
    let _span = wl_obs::span!("subset.search");
    wl_obs::counter!("subset.candidates", (win_hi - win_lo) as u64);

    // One stages-1/2 pass serves the reference map from all variables (the
    // computation `run(All)` makes) and every subset below.
    let engine = Coplot::new().seed(seed).engine();
    let session = engine.shared_session(data)?;
    let all: Vec<usize> = (0..p).collect();
    let full = session.run_subset(&all)?;

    // Enumerate every combination up front (lexicographic), then score
    // the window concurrently against the shared session.
    let mut combos: Vec<Vec<usize>> = Vec::with_capacity(n_subsets);
    let mut indices: Vec<usize> = (0..k).collect();
    loop {
        combos.push(indices.clone());
        if !next_combination(&mut indices, p) {
            break;
        }
    }
    let combos = &combos[win_lo..win_hi];
    let score = |r: coplot::CoplotResult| {
        if r.alienation > max_alienation {
            return None;
        }
        let fit = procrustes_align(&full.coords, &r.coords);
        Some(SubsetSearchResult {
            variables: r.arrows.iter().map(|a| a.name.clone()).collect(),
            alienation: r.alienation,
            mean_correlation: r.mean_arrow_correlation(),
            map_conservation_rmsd: fit.rmsd,
        })
    };
    // Contiguous chunks, a few per worker, smooth load imbalance.
    let chunk = combos.len().div_ceil(threads.max(1) * 4).max(1);
    let starts: Vec<usize> = (0..combos.len()).step_by(chunk).collect();
    let scored = wl_par::par_map(threads, &starts, |&start| {
        combos[start..combos.len().min(start + chunk)]
            .iter()
            .filter_map(|combo| session.run_subset(combo).ok().and_then(&score))
            .collect::<Vec<_>>()
    });
    let results: Vec<SubsetSearchResult> = scored.into_iter().flatten().collect();
    wl_obs::counter!("subset.kept", results.len() as u64);
    Ok(results)
}

/// Rank scored subsets in place and keep the best `top`: one stable sort by
/// `map_conservation_rmsd - 0.5 * mean_correlation` (conserve the map first,
/// then reward high correlation), so equal scores keep combination order —
/// which is what lets a coordinator apply this to the concatenation of
/// shard windows and reproduce a single-node ranking byte for byte.
pub fn rank_subset_results(results: &mut Vec<SubsetSearchResult>, top: usize) {
    results.sort_by(|a, b| {
        let score_a = a.map_conservation_rmsd - 0.5 * a.mean_correlation;
        let score_b = b.map_conservation_rmsd - 0.5 * b.mean_correlation;
        score_a.partial_cmp(&score_b).unwrap_or(std::cmp::Ordering::Equal)
    });
    results.truncate(top);
}

/// Advance `indices` to the next k-combination of `0..p` (lexicographic).
/// Returns false when exhausted.
fn next_combination(indices: &mut [usize], p: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] < p - (k - i) {
            indices[i] += 1;
            for j in (i + 1)..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// The size of the subset search space: `C(p, k)` lexicographic
/// combinations, the index domain that [`score_combination_range`] windows
/// over. Returns 0 when `k > p`.
pub fn subset_space_size(p: usize, k: usize) -> usize {
    if k > p {
        return 0;
    }
    binomial(p, k)
}

fn binomial(n: usize, k: usize) -> usize {
    let k = k.min(n - k);
    let mut num: usize = 1;
    for i in 0..k {
        num = num * (n - i) / (i + 1);
    }
    num
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplot::DataMatrix;

    /// Data where variables 0/1 and 2/3 are redundant pairs: any subset
    /// with one representative from each pair conserves the map.
    fn redundant_data() -> DataMatrix {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                let a = (i as f64 * 0.9).sin() * 10.0;
                let b = (i as f64 * 0.37 + 1.0).cos() * 10.0;
                vec![a, a * 2.0 + 0.1, b, b * 3.0 - 0.2]
            })
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        DataMatrix::from_rows(
            (0..8).map(|i| format!("o{i}")).collect(),
            vec!["a1".into(), "a2".into(), "b1".into(), "b2".into()],
            &row_refs,
        )
    }

    #[test]
    fn finds_one_representative_per_cluster() {
        let results = best_variable_subset(&redundant_data(), 2, 0.3, 3, 5, 1).unwrap();
        assert!(!results.is_empty());
        let best = &results[0];
        // The best 2-subset must span both redundant pairs.
        let has_a = best.variables.iter().any(|v| v.starts_with('a'));
        let has_b = best.variables.iter().any(|v| v.starts_with('b'));
        assert!(has_a && has_b, "best subset: {:?}", best.variables);
        assert!(best.map_conservation_rmsd < 0.5, "rmsd {}", best.map_conservation_rmsd);
    }

    #[test]
    fn search_bit_identical_across_thread_counts() {
        let data = redundant_data();
        let reference = best_variable_subset(&data, 2, 1.0, 10, 1999, 1).unwrap();
        assert!(!reference.is_empty());
        for threads in [2, 3, 8] {
            let par = best_variable_subset(&data, 2, 1.0, 10, 1999, threads).unwrap();
            assert_eq!(par, reference, "threads = {threads}");
        }
    }

    #[test]
    fn combination_windows_reassemble_to_the_full_search() {
        let data = redundant_data();
        let reference = best_variable_subset(&data, 2, 1.0, 10, 1999, 1).unwrap();
        // C(4,2) = 6 combinations, partitioned several ways.
        for parts in [&[(0, 6)][..], &[(0, 3), (3, 6)], &[(0, 1), (1, 4), (4, 6)]] {
            let mut merged = Vec::new();
            for &(lo, hi) in parts {
                merged.extend(
                    score_combination_range(&data, 2, 1.0, 1999, 2, Some((lo, hi))).unwrap(),
                );
            }
            rank_subset_results(&mut merged, 10);
            assert_eq!(merged, reference, "partition {parts:?}");
        }
    }

    #[test]
    fn equal_scores_keep_combination_order() {
        let entry = |name: &str, rmsd: f64, corr: f64| SubsetSearchResult {
            variables: vec![name.to_string()],
            alienation: 0.0,
            mean_correlation: corr,
            map_conservation_rmsd: rmsd,
        };
        // `first` and `second` both score 0.75 - 0.25 = 0.625 - 0.125 =
        // 0.5, in combination order but with `second` the lower rmsd;
        // `best` scores 0.25.
        let mut results = vec![
            entry("first", 0.75, 0.5),
            entry("second", 0.625, 0.25),
            entry("best", 0.5, 0.5),
        ];
        rank_subset_results(&mut results, 3);
        let names: Vec<&str> = results.iter().map(|r| r.variables[0].as_str()).collect();
        assert_eq!(names, ["best", "first", "second"]);
    }

    #[test]
    fn bad_combination_window_is_an_error() {
        let data = redundant_data();
        for range in [(3, 3), (5, 2), (0, 7), (6, 9)] {
            let err =
                score_combination_range(&data, 2, 1.0, 5, 1, Some(range)).unwrap_err();
            assert!(matches!(err, CoplotError::InvalidConfig(_)), "{range:?}: {err}");
        }
    }

    #[test]
    fn combination_enumeration_is_complete() {
        let mut indices = vec![0usize, 1];
        let mut seen = vec![indices.clone()];
        while next_combination(&mut indices, 4) {
            seen.push(indices.clone());
        }
        assert_eq!(seen.len(), 6); // C(4,2)
        assert_eq!(seen[5], vec![2, 3]);
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(9, 3), 84);
        assert_eq!(binomial(18, 3), 816);
    }

    #[test]
    fn threshold_filters_bad_subsets() {
        // An impossible alienation bound returns nothing.
        let results = best_variable_subset(&redundant_data(), 2, -1.0, 3, 5, 1).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn subset_size_validated() {
        let err = best_variable_subset(&redundant_data(), 1, 0.2, 1, 5, 1).unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("out of 2..="));
    }
}
