//! Pure shard planning and reassembly: what to split a request into, and
//! how to put worker replies back together byte-identically.
//!
//! Everything here is deterministic in the request alone — worker count
//! only changes how many contiguous pieces a subset search's combination
//! space is cut into, never the values computed — so the coordinator's
//! reassembled response equals a single-node run for any fleet size.

use coplot::{
    AnalysisRequest, AnalysisResponse, Operation, ShardPart, ShardResponse, SubsetEntry, SubsetOut,
};

/// Split `[0, total)` into at most `n` contiguous, non-empty, nearly
/// equal half-open ranges (earlier ranges take the remainder). Empty for
/// `total == 0`.
pub fn partition(total: u64, n: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let n = (n as u64).clamp(1, total);
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n as usize);
    let mut lo = 0;
    for i in 0..n {
        let size = base + u64::from(i < extra);
        out.push((lo, lo + size));
        lo += size;
    }
    out
}

/// Plan the shards for one canonical request across `workers` workers: a
/// subset search with a non-empty combination space becomes up to
/// `workers` `combos` windows, and every other request one `whole` shard,
/// which behaves like a proxied single-node request (an invalid subset
/// size included: one worker reproduces the single-node error).
pub fn plan(req: &AnalysisRequest, workers: usize) -> Vec<ShardPart> {
    let total = match req.op {
        Operation::Subset => {
            wl_analysis::subset_space_size(req.vars.len(), req.subset_size as usize) as u64
        }
        Operation::Coplot | Operation::Hurst => 0,
    };
    if total == 0 {
        return vec![ShardPart::Whole];
    }
    partition(total, workers)
        .into_iter()
        .map(|(lo, hi)| ShardPart::Combos { lo, hi })
        .collect()
}

/// Reassemble shard replies (in shard order) into the response a
/// single-node run would have produced. `None` means a reply had the
/// wrong kind for the plan — a fleet bug, answered as a retryable error,
/// never a 500.
pub fn merge(req: &AnalysisRequest, shards: Vec<ShardResponse>) -> Option<AnalysisResponse> {
    let n = shards.len();
    let mut parts = Vec::with_capacity(n);
    for s in shards {
        match s {
            ShardResponse::Whole(r) if n == 1 => return Some(r),
            ShardResponse::Subset { entries } => parts.push(entries),
            ShardResponse::Whole(_) => return None,
        }
    }
    (req.op == Operation::Subset)
        .then(|| AnalysisResponse::Subset(merge_subset(parts, req.top as usize)))
}

/// Concatenate combo-window results (already in combination order) and
/// rank with the exact function single-node search uses.
pub fn merge_subset(parts: Vec<Vec<SubsetEntry>>, top: usize) -> SubsetOut {
    let mut results: Vec<wl_analysis::SubsetSearchResult> = parts
        .into_iter()
        .flatten()
        .map(|e| wl_analysis::SubsetSearchResult {
            variables: e.variables,
            alienation: e.alienation,
            mean_correlation: e.mean_correlation,
            map_conservation_rmsd: e.map_conservation_rmsd,
        })
        .collect();
    wl_analysis::rank_subset_results(&mut results, top);
    SubsetOut {
        results: results.into_iter().map(crate::exec::subset_entry).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplot::{DatasetSpec, HurstOut};

    fn req(op: Operation) -> AnalysisRequest {
        let mut r = AnalysisRequest::new(op, DatasetSpec::Named("models".into()));
        r.jobs = 150;
        r.seed = 7;
        r.canonicalize().unwrap()
    }

    #[test]
    fn partitions_cover_the_range_contiguously() {
        for total in [1u64, 2, 5, 9, 100] {
            for n in [1usize, 2, 3, 7, 200] {
                let parts = partition(total, n);
                assert!(!parts.is_empty());
                assert!(parts.len() <= n.max(1));
                assert_eq!(parts[0].0, 0);
                assert_eq!(parts.last().unwrap().1, total);
                for w in parts.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                for (lo, hi) in &parts {
                    assert!(lo < hi, "non-empty");
                }
            }
        }
        assert!(partition(0, 3).is_empty());
    }

    #[test]
    fn coplot_and_hurst_plan_one_whole_shard() {
        let mut eliminating = req(Operation::Coplot);
        eliminating.min_correlation = Some(0.5);
        let mut unknown = req(Operation::Hurst);
        unknown.dataset = DatasetSpec::Named("table9".into());
        for r in [
            req(Operation::Coplot),
            eliminating,
            req(Operation::Hurst),
            unknown,
        ] {
            for workers in [1, 2, 3, 64] {
                assert_eq!(plan(&r, workers), vec![ShardPart::Whole], "{:?}", r.op);
            }
        }
        // An invalid subset size: one worker reproduces the single-node
        // error.
        let mut oversized = req(Operation::Subset);
        oversized.subset_size = 9;
        assert_eq!(plan(&oversized, 3), vec![ShardPart::Whole]);
    }

    #[test]
    fn subset_plans_combo_windows_over_the_search_space() {
        let mut r = req(Operation::Subset);
        r.subset_size = 2;
        // Default canonical vars: 8 variables, C(8,2) = 28.
        assert_eq!(r.vars.len(), 8);
        let parts = plan(&r, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.last(), Some(&ShardPart::Combos { lo: 19, hi: 28 }));
    }

    #[test]
    fn more_workers_than_work_still_yields_nonempty_shards() {
        let mut r = req(Operation::Subset);
        r.subset_size = 2;
        r.vars = ["Rm", "Pm", "Im"].map(String::from).to_vec();
        let parts = plan(&r, 64);
        assert_eq!(parts.len(), 3, "one per combination");
        assert!(parts
            .iter()
            .all(|p| matches!(p, ShardPart::Combos { lo, hi } if lo < hi)));
    }

    #[test]
    fn whole_shard_passes_through_verbatim() {
        let r = req(Operation::Hurst);
        let whole = AnalysisResponse::Hurst(HurstOut {
            workloads: vec!["a".into()],
            columns: vec!["Hp".into()],
            rows: vec![vec![Some(0.5)]],
        });
        let merged = merge(&r, vec![ShardResponse::Whole(whole.clone())]).unwrap();
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    fn kind_mismatch_is_a_merge_failure_not_a_panic() {
        let r = req(Operation::Coplot);
        let bad = ShardResponse::Subset { entries: Vec::new() };
        assert!(merge(&r, vec![bad]).is_none());
    }
}
