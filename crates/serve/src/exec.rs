//! The one request executor: [`execute`] turns a canonical
//! [`AnalysisRequest`] into an [`AnalysisResponse`].
//!
//! Every front end — the `wl` CLI subcommands, `wl-serve`'s endpoint
//! handlers — goes through this function, so "the CLI and the server agree
//! byte-for-byte" holds by construction: both serialize the same
//! [`AnalysisResponse`] value. Responses are pure functions of the
//! canonical request (timings and timestamps travel out of band in
//! [`ExecOutcome::reports`]), which is what makes `wl-serve`'s result
//! cache sound.
//!
//! Deadlines: an [`ExecConfig::deadline`] is enforced *between* pipeline
//! stages — the executor checks it before loading the dataset and before
//! the Hurst sweep or subset search, and the Co-plot engine before each of
//! its stages ([`coplot::Coplot::deadline`]) — refusing to start past it
//! with [`CoplotError::DeadlineExceeded`]. A stage that has started always
//! runs to completion, so a request that finishes returns exactly what it
//! would have returned without a deadline.

use std::time::Instant;

use coplot::{
    AnalysisRequest, AnalysisResponse, ApiError, Coplot, CoplotEngine, CoplotError, CoplotOut,
    DataMatrix, DatasetSpec, HurstOut, Operation, Selection, ShardPart, ShardRequest,
    ShardResponse, StageReport, SubsetEntry, SubsetOut,
};
use wl_swf::Workload;

use crate::batch::{BatchMemo, OnceMemo};
use crate::datasets::NamedDataset;

/// How to run a request: worker threads and an optional deadline.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads for synthesis, Hurst estimation, MDS restarts and the
    /// subset search (bit-identical results for any count).
    pub threads: usize,
    /// Refuse to start further pipeline stages past this instant.
    pub deadline: Option<Instant>,
}

impl ExecConfig {
    /// A config with no deadline.
    pub fn new(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            deadline: None,
        }
    }
}

/// Why a request could not be executed; `wl-serve` maps each variant to a
/// fixed HTTP status (the service never answers 500).
#[derive(Debug)]
pub enum ExecError {
    /// The request itself is malformed (HTTP 400).
    Api(ApiError),
    /// Unknown dataset name or unreadable input file (HTTP 404).
    DatasetNotFound(String),
    /// The analysis failed — including [`CoplotError::DeadlineExceeded`],
    /// which maps to 504; everything else is 422.
    Analysis(CoplotError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Api(e) => write!(f, "{e}"),
            ExecError::DatasetNotFound(m) => write!(f, "{m}"),
            ExecError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A successful execution: the serializable response plus the per-stage
/// reports of any Co-plot run (side channel — never on the wire, so
/// responses stay pure functions of the request).
#[derive(Debug)]
pub struct ExecOutcome {
    /// The wire response.
    pub response: AnalysisResponse,
    /// Per-stage timing reports (empty for `hurst`/`subset`).
    pub reports: Vec<StageReport>,
}

/// Execute one request.
///
/// # Errors
/// See [`ExecError`].
pub fn execute(request: &AnalysisRequest, cfg: &ExecConfig) -> Result<ExecOutcome, ExecError> {
    execute_with_memo(request, cfg, None)
}

/// Execute one request, optionally against a batch memo of shared
/// intermediates (see [`crate::batch`]): the dataset load and the variable
/// matrix are taken from (or stored into) the memo, while the analysis
/// itself — the engine's four stages, the Hurst sweep, the subset search —
/// runs per request on the `wl-par` pool. A memo hit returns a clone of a
/// value a deterministic step produced for the same inputs, so the
/// response is byte-identical to an unbatched run.
///
/// # Errors
/// See [`ExecError`].
pub fn execute_with_memo(
    request: &AnalysisRequest,
    cfg: &ExecConfig,
    memo: Option<&BatchMemo>,
) -> Result<ExecOutcome, ExecError> {
    let req = request.canonicalize().map_err(ExecError::Api)?;
    check_deadline(cfg, "load")?;
    let workloads = match memo {
        Some(m) => m.workloads.get_or_try(|| load_dataset(&req, cfg))?,
        None => load_dataset(&req, cfg)?,
    };
    let matrix_memo = memo.map(|m| m.matrix(&req.vars));
    match req.op {
        Operation::Coplot => run_coplot(&req, cfg, &workloads, matrix_memo.as_deref()),
        Operation::Hurst => run_hurst(&req, cfg, &workloads),
        Operation::Subset => run_subset(&req, cfg, &workloads, matrix_memo.as_deref()),
    }
}

/// Execute one work slice of a distributed analysis (see
/// [`coplot::ShardRequest`]). This is what an ordinary `wl-serve` worker
/// runs when a coordinator POSTs to `/v2/shard`:
///
/// * `restarts [lo, hi)` — the coplot pipeline with
///   [`Coplot::restart_range`] set, so the shard tries exactly the MDS
///   starts `lo..hi` of the full run's `0..restarts+1` (same absolute
///   [`coplot::restart_seed`] indices) and returns its window winner;
/// * `rows [lo, hi)` — Hurst estimator rows for that slice of the
///   dataset's workloads (each row depends only on its own workload);
/// * `combos [lo, hi)` — the subset search scored over that window of the
///   lexicographic combination order, unranked;
/// * `whole` — the entire base request (used for unsliceable shapes such
///   as coplot with variable elimination).
///
/// Every slice computes bit-identical values to the corresponding piece of
/// a single-node run, which is what lets the coordinator reassemble
/// byte-identical responses for any worker count.
///
/// # Errors
/// See [`ExecError`]; out-of-bounds slice ranges surface as
/// [`CoplotError::InvalidConfig`].
pub fn execute_shard(request: &ShardRequest, cfg: &ExecConfig) -> Result<ShardResponse, ExecError> {
    let req = request.canonicalize().map_err(ExecError::Api)?;
    check_deadline(cfg, "load")?;
    let workloads = load_dataset(&req.base, cfg)?;
    match req.part {
        ShardPart::Whole => {
            let outcome = run_canonical(&req.base, cfg, &workloads)?;
            Ok(ShardResponse::Whole(outcome.response))
        }
        ShardPart::Restarts { lo, hi } => {
            let data = data_matrix(&req.base, &workloads, None)?;
            let engine = build_engine(req.base.seed, cfg, Some((lo as usize, hi as usize)));
            // canonicalize() rejected restarts-parts with elimination, so
            // the selection is always the full variable set here.
            let result = engine.run(&data, &Selection::All).map_err(ExecError::Analysis)?;
            Ok(ShardResponse::Coplot(CoplotOut::from_result(&result)))
        }
        ShardPart::Rows { lo, hi } => {
            check_deadline(cfg, "hurst")?;
            let (lo, hi) = (lo as usize, hi as usize);
            if hi > workloads.len() {
                return Err(ExecError::Analysis(CoplotError::InvalidConfig(format!(
                    "row range [{lo}, {hi}) exceeds the dataset's {} workloads",
                    workloads.len()
                ))));
            }
            let slice = &workloads[lo..hi];
            Ok(ShardResponse::Hurst {
                workloads: slice.iter().map(|w| w.name.clone()).collect(),
                rows: wl_repro::hurst_rows(slice, cfg.threads),
            })
        }
        ShardPart::Combos { lo, hi } => {
            let data = data_matrix(&req.base, &workloads, None)?;
            check_deadline(cfg, "subset")?;
            let results = wl_analysis::subset::score_combination_range(
                &data,
                req.base.subset_size as usize,
                req.base.max_alienation,
                req.base.seed,
                cfg.threads,
                Some((lo as usize, hi as usize)),
            )
            .map_err(ExecError::Analysis)?;
            Ok(ShardResponse::Subset {
                entries: results.into_iter().map(subset_entry).collect(),
            })
        }
    }
}

/// Dispatch an already-canonical request against already-loaded workloads
/// (the shared tail of [`execute_with_memo`] and [`execute_shard`]).
fn run_canonical(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
) -> Result<ExecOutcome, ExecError> {
    match req.op {
        Operation::Coplot => run_coplot(req, cfg, workloads, None),
        Operation::Hurst => run_hurst(req, cfg, workloads),
        Operation::Subset => run_subset(req, cfg, workloads, None),
    }
}

fn check_deadline(cfg: &ExecConfig, stage: &'static str) -> Result<(), ExecError> {
    match cfg.deadline {
        Some(d) if Instant::now() >= d => {
            Err(ExecError::Analysis(CoplotError::DeadlineExceeded { stage }))
        }
        _ => Ok(()),
    }
}

fn load_dataset(req: &AnalysisRequest, cfg: &ExecConfig) -> Result<Vec<Workload>, ExecError> {
    match &req.dataset {
        DatasetSpec::Named(name) => {
            let dataset =
                NamedDataset::from_name(name).ok_or_else(|| crate::datasets::unknown_dataset(name))?;
            Ok(dataset.synthesize(req.jobs as usize, req.seed, cfg.threads))
        }
        DatasetSpec::Paths(paths) => paths
            .iter()
            .map(|path| crate::datasets::read_trace(path, req.format.as_deref()))
            .collect(),
    }
}

fn data_matrix(
    req: &AnalysisRequest,
    workloads: &[Workload],
    memo: Option<&OnceMemo<DataMatrix>>,
) -> Result<DataMatrix, ExecError> {
    let build = || {
        if workloads.len() < 3 {
            return Err(ExecError::Analysis(CoplotError::InvalidConfig(
                "co-plot needs at least 3 workloads".into(),
            )));
        }
        let codes: Vec<&str> = req.vars.iter().map(String::as_str).collect();
        wl_analysis::matrix::try_trace_matrix(workloads, &codes).map_err(ExecError::Analysis)
    };
    match memo {
        Some(m) => m.get_or_try(build),
        None => build(),
    }
}

fn run_coplot(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
    memo: Option<&OnceMemo<DataMatrix>>,
) -> Result<ExecOutcome, ExecError> {
    let data = data_matrix(req, workloads, memo)?;
    let engine = build_engine(req.seed, cfg, None);
    let selection = match req.min_correlation {
        Some(min_correlation) => Selection::Eliminate { min_correlation },
        None => Selection::All,
    };
    let result = engine.run(&data, &selection).map_err(ExecError::Analysis)?;
    Ok(ExecOutcome {
        response: AnalysisResponse::Coplot(CoplotOut::from_result(&result)),
        reports: engine.reports(),
    })
}

fn run_hurst(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
) -> Result<ExecOutcome, ExecError> {
    let _ = req;
    check_deadline(cfg, "hurst")?;
    let rows = wl_repro::hurst_rows(workloads, cfg.threads);
    Ok(ExecOutcome {
        response: AnalysisResponse::Hurst(HurstOut {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            columns: hurst_columns(),
            rows,
        }),
        reports: Vec::new(),
    })
}

/// The 12-column Hurst header (series-major, estimator-minor) every front
/// end and the shard merger share.
pub(crate) fn hurst_columns() -> Vec<String> {
    let mut columns = Vec::with_capacity(12);
    for series in wl_swf::JobSeries::ALL {
        for est in wl_selfsim::HurstEstimator::ALL {
            columns.push(format!("{}{}", est.label(), series.code()));
        }
    }
    columns
}

fn run_subset(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    workloads: &[Workload],
    memo: Option<&OnceMemo<DataMatrix>>,
) -> Result<ExecOutcome, ExecError> {
    let data = data_matrix(req, workloads, memo)?;
    check_deadline(cfg, "subset")?;
    let results = wl_analysis::subset::best_variable_subset(
        &data,
        req.subset_size as usize,
        req.max_alienation,
        req.top as usize,
        req.seed,
        cfg.threads,
    )
    .map_err(ExecError::Analysis)?;
    Ok(ExecOutcome {
        response: AnalysisResponse::Subset(SubsetOut {
            results: results.into_iter().map(subset_entry).collect(),
        }),
        reports: Vec::new(),
    })
}

pub(crate) fn subset_entry(r: wl_analysis::SubsetSearchResult) -> SubsetEntry {
    SubsetEntry {
        variables: r.variables,
        alienation: r.alienation,
        mean_correlation: r.mean_correlation,
        map_conservation_rmsd: r.map_conservation_rmsd,
    }
}

/// The paper's pipeline for one request: its seed, the config's threads
/// and deadline, and — for a restarts shard — the absolute window of MDS
/// starts to try (same per-start seeds as a full run, so the window winner
/// is the best of exactly those starts).
fn build_engine(
    seed: u64,
    cfg: &ExecConfig,
    restart_range: Option<(usize, usize)>,
) -> CoplotEngine {
    Coplot::new()
        .seed(seed)
        .threads(cfg.threads)
        .restart_range(restart_range)
        .deadline(cfg.deadline)
        .engine()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn models_request(op: Operation) -> AnalysisRequest {
        let mut req = AnalysisRequest::new(op, DatasetSpec::Named("models".into()));
        req.jobs = 150;
        req.seed = 7;
        req
    }

    #[test]
    fn coplot_on_a_named_dataset_runs() {
        let outcome = execute(&models_request(Operation::Coplot), &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Coplot(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert_eq!(out.observations.len(), 5);
        assert_eq!(out.arrows.len(), 8);
        assert_eq!(outcome.reports.len(), 4, "one report per stage");
        // Re-running the same canonical request is bit-identical.
        let again = execute(&models_request(Operation::Coplot), &ExecConfig::new(1)).unwrap();
        assert_eq!(again.response.to_json(), outcome.response.to_json());
    }

    #[test]
    fn hurst_mirrors_the_cli_column_layout() {
        let outcome = execute(&models_request(Operation::Hurst), &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Hurst(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert_eq!(out.workloads.len(), 5);
        assert_eq!(out.columns.len(), 12);
        assert!(out.rows.iter().all(|r| r.len() == 12));
        // Series-major, estimator-minor: the CLI's header order.
        let first_series = wl_swf::JobSeries::ALL[0].code();
        for (i, est) in wl_selfsim::HurstEstimator::ALL.iter().enumerate() {
            assert_eq!(out.columns[i], format!("{}{first_series}", est.label()));
        }
    }

    #[test]
    fn subset_returns_ranked_entries() {
        let mut req = models_request(Operation::Subset);
        req.subset_size = 2;
        req.max_alienation = 1.0;
        req.top = 3;
        req.vars = ["Rm", "Pm", "Im", "Ii"].map(String::from).to_vec();
        let outcome = execute(&req, &ExecConfig::new(2)).unwrap();
        let AnalysisResponse::Subset(out) = &outcome.response else {
            panic!("wrong response op");
        };
        assert!(!out.results.is_empty());
        assert!(out.results.len() <= 3);
        for e in &out.results {
            assert_eq!(e.variables.len(), 2);
        }
    }

    #[test]
    fn unknown_dataset_is_not_found() {
        let req = AnalysisRequest::new(Operation::Coplot, DatasetSpec::Named("table9".into()));
        let err = execute(&req, &ExecConfig::new(1)).unwrap_err();
        assert!(matches!(err, ExecError::DatasetNotFound(_)), "{err:?}");
    }

    #[test]
    fn malformed_request_is_an_api_error() {
        let mut req = models_request(Operation::Coplot);
        req.jobs = 0;
        let err = execute(&req, &ExecConfig::new(1)).unwrap_err();
        assert!(matches!(err, ExecError::Api(_)), "{err:?}");
    }

    #[test]
    fn expired_deadline_aborts_between_stages() {
        let cfg = ExecConfig {
            threads: 1,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let err = execute(&models_request(Operation::Coplot), &cfg).unwrap_err();
        match err {
            ExecError::Analysis(CoplotError::DeadlineExceeded { stage }) => {
                assert_eq!(stage, "load");
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn batched_execution_is_byte_identical_to_unbatched() {
        // Three requests over the same dataset digest, differing only in
        // seed / elimination / operation — what a real batch looks like.
        let mut eliminate = models_request(Operation::Coplot);
        eliminate.min_correlation = Some(0.5);
        let mut subset = models_request(Operation::Subset);
        subset.subset_size = 2;
        subset.max_alienation = 1.0;
        subset.top = 3;
        subset.vars = ["Rm", "Pm", "Im", "Ii"].map(String::from).to_vec();
        let requests = [models_request(Operation::Coplot), eliminate, subset];

        for threads in [1usize, 8] {
            let cfg = ExecConfig::new(threads);
            let memo = BatchMemo::new();
            for req in &requests {
                let batched = execute_with_memo(req, &cfg, Some(&memo)).unwrap();
                let solo = execute(req, &cfg).unwrap();
                assert_eq!(
                    batched.response.to_json(),
                    solo.response.to_json(),
                    "batched != unbatched at threads={threads}"
                );
            }
        }
    }

    #[test]
    fn memo_shares_the_dataset_load_across_a_batch() {
        let memo = BatchMemo::new();
        let cfg = ExecConfig::new(1);
        execute_with_memo(&models_request(Operation::Coplot), &cfg, Some(&memo)).unwrap();
        // The second request finds the workloads (and the matrix) ready.
        let mut calls = 0;
        memo.workloads
            .get_or_try::<()>(|| {
                calls += 1;
                Ok(Vec::new())
            })
            .unwrap();
        assert_eq!(calls, 0, "workloads were memoized by the first request");
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let free = execute(&models_request(Operation::Coplot), &ExecConfig::new(1)).unwrap();
        let gated = execute(
            &models_request(Operation::Coplot),
            &ExecConfig {
                threads: 1,
                deadline: Some(Instant::now() + Duration::from_secs(600)),
            },
        )
        .unwrap();
        assert_eq!(gated.response.to_json(), free.response.to_json());
    }
}
