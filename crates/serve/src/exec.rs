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
//!
//! Reduce where made: a dataset is never held as job records. Each log
//! is reduced to a [`LogSummary`] — its Table-1 row and its four Hurst
//! series — in the worker that synthesized or parsed it, and dropped
//! there. Coplot and subset requests (and `combos` shards) build their
//! matrix from the rows; hurst requests estimate from the series.
//!
//! In-flight sharing: every request, and every shard a fleet worker runs
//! ([`execute_shard`]), loads its dataset's summaries through a write-once
//! `DatasetSlot`. [`execute`] and [`execute_shard`] use a private one;
//! `wl-serve` holds the slot of the request's dataset digest from the
//! server's `InFlight` map — from admission for a named dataset (its
//! digest is a pure hash), from the start of execution for a path dataset
//! (its digest reads the files) — until the request finishes. So requests
//! and shards on one digest that are queued or running together
//! synthesize (or parse) the dataset once, whatever the worker count, op
//! or `vars` list; each request picks its own columns from the shared
//! rows. Nothing outlives the last such request, which leaves the result
//! cache as the one retained cache. Every shared value is a deterministic
//! function of the digest (equal digest ⇒ equal logs ⇒ equal summaries),
//! so a shared run is byte-identical to a solo one. `serve.dataset.loads`
//! counts the loads slots computed and `serve.dataset.shared` the requests
//! that took their summaries from a slot another request had loaded.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

use coplot::{
    AnalysisRequest, AnalysisResponse, ApiError, Coplot, CoplotError, CoplotOut, DataMatrix,
    DatasetSpec, HurstOut, Operation, Selection, ShardPart, ShardRequest, ShardResponse,
    StageReport, SubsetEntry, SubsetOut,
};
use wl_swf::{JobSeries, Workload, WorkloadStats};

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
    let req = request.canonicalize().map_err(ExecError::Api)?;
    execute_in(&req, cfg, &DatasetSlot::default())
}

/// Execute one work slice of a distributed analysis (see
/// [`coplot::ShardRequest`]) with a private dataset slot, as [`execute`]
/// does. This is what an ordinary `wl-serve` worker runs when a
/// coordinator POSTs to `/v2/shard`, there against the in-flight slot of
/// the request's dataset digest:
///
/// * `whole` — the entire base request, answered with [`execute`]'s
///   response (every coplot and hurst request travels this way);
/// * `combos [lo, hi)` — the subset search scored over that window of the
///   lexicographic combination order, unranked.
///
/// A combos window scores bit-identical values to the same piece of a
/// single-node search, which is what lets the coordinator reassemble
/// byte-identical responses for any worker count.
///
/// # Errors
/// See [`ExecError`]; a window past the end of the combination space
/// surfaces as [`CoplotError::InvalidConfig`].
pub fn execute_shard(request: &ShardRequest, cfg: &ExecConfig) -> Result<ShardResponse, ExecError> {
    let req = request.canonicalize().map_err(ExecError::Api)?;
    execute_shard_in(&req.base, req.part, cfg, &DatasetSlot::default())
}

/// [`execute_in`]'s shard twin: run `part` of an already-canonical base
/// request against `slot`.
pub(crate) fn execute_shard_in(
    base: &AnalysisRequest,
    part: ShardPart,
    cfg: &ExecConfig,
    slot: &DatasetSlot,
) -> Result<ShardResponse, ExecError> {
    let ShardPart::Combos { lo, hi } = part else {
        return Ok(ShardResponse::Whole(execute_in(base, cfg, slot)?.response));
    };
    check_deadline(cfg, "load")?;
    let data = data_matrix(base, &slot.logs(|| load_dataset(base, cfg))?)?;
    check_deadline(cfg, "subset")?;
    let results = wl_analysis::subset::score_combination_range(
        &data,
        base.subset_size as usize,
        base.max_alienation,
        base.seed,
        cfg.threads,
        Some((lo as usize, hi as usize)),
    )
    .map_err(ExecError::Analysis)?;
    Ok(ShardResponse::Subset {
        entries: results.into_iter().map(subset_entry).collect(),
    })
}

/// Execute an already-canonical request, taking its logs' summaries from
/// `slot` (loading them there on first use). The server passes the
/// in-flight slot of the request's dataset digest (see the module docs).
pub(crate) fn execute_in(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    slot: &DatasetSlot,
) -> Result<ExecOutcome, ExecError> {
    check_deadline(cfg, "load")?;
    let logs = slot.logs(|| load_dataset(req, cfg))?;
    match req.op {
        Operation::Coplot => run_coplot(req, cfg, &data_matrix(req, &logs)?),
        Operation::Hurst => run_hurst(cfg, &logs),
        Operation::Subset => run_subset(req, cfg, &data_matrix(req, &logs)?),
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

/// The live [`DatasetSlot`] of each dataset digest that admitted requests
/// hold. The map keeps only `Weak` handles: a slot, with the dataset in
/// it, dies with the last request holding it, and the next
/// [`hold`](InFlight::hold) sweeps its dead entry.
#[derive(Default)]
pub(crate) struct InFlight(Mutex<HashMap<u64, Weak<DatasetSlot>>>);

impl InFlight {
    /// The live slot for `digest`, or a new one if no request holds it.
    pub(crate) fn hold(&self, digest: u64) -> Arc<DatasetSlot> {
        let mut map = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        map.retain(|_, slot| slot.strong_count() > 0);
        if let Some(slot) = map.get(&digest).and_then(Weak::upgrade) {
            return slot;
        }
        let slot = Arc::new(DatasetSlot::default());
        map.insert(digest, Arc::downgrade(&slot));
        slot
    }
}

/// What a dataset keeps of one log: its Table-1 row with the paper's
/// load-imputation rule (what every coplot and subset matrix is built
/// from; `row.name` is the log's name) and its four Hurst series in
/// [`JobSeries::ALL`] order (what the hurst op estimates from). 32 bytes
/// per job, where the log's records take 144.
pub(crate) struct LogSummary {
    row: WorkloadStats,
    series: [Vec<f64>; 4],
}

impl LogSummary {
    /// Summarize `w`: the reduce every dataset load runs in the worker
    /// that made or parsed the log.
    fn of(w: &Workload) -> LogSummary {
        LogSummary {
            row: wl_repro::stats_row(w),
            series: JobSeries::ALL.map(|series| series.extract(w)),
        }
    }
}

/// One dataset's write-once summaries, loaded under the slot's lock by the
/// first request to ask and handed to the rest as an `Arc`. Errors are
/// never stored — a failing request leaves the slot empty for the next
/// one to load. The value is assigned only after a load succeeds, so a
/// poisoned lock still guards a valid (empty) slot.
#[derive(Default)]
pub(crate) struct DatasetSlot(Mutex<Option<Arc<Vec<LogSummary>>>>);

impl DatasetSlot {
    /// The dataset's summaries, loaded by `load` on first use.
    fn logs(
        &self,
        load: impl FnOnce() -> Result<Vec<LogSummary>, ExecError>,
    ) -> Result<Arc<Vec<LogSummary>>, ExecError> {
        let mut logs = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(logs) = logs.as_ref() {
            wl_obs::counter!("serve.dataset.shared", 1u64);
            return Ok(Arc::clone(logs));
        }
        let loaded = Arc::new(load()?);
        wl_obs::counter!("serve.dataset.loads", 1u64);
        *logs = Some(Arc::clone(&loaded));
        Ok(loaded)
    }
}

/// Load the request's dataset, each log reduced to its [`LogSummary`] in
/// the worker that made it (a named dataset) or as soon as it is parsed
/// (a path dataset, file by file).
fn load_dataset(req: &AnalysisRequest, cfg: &ExecConfig) -> Result<Vec<LogSummary>, ExecError> {
    match &req.dataset {
        DatasetSpec::Named(name) => {
            let dataset = NamedDataset::from_name(name)
                .ok_or_else(|| crate::datasets::unknown_dataset(name))?;
            dataset
                .try_reduce(req.jobs as usize, req.seed, cfg.threads, |w| {
                    LogSummary::of(&w)
                })
                .map_err(|e| ExecError::Analysis(CoplotError::InvalidConfig(e)))
        }
        DatasetSpec::Paths(paths) => paths
            .iter()
            .map(|path| {
                crate::datasets::read_trace(path, req.format.as_deref()).map(|w| LogSummary::of(&w))
            })
            .collect(),
    }
}

fn data_matrix(req: &AnalysisRequest, logs: &[LogSummary]) -> Result<DataMatrix, ExecError> {
    if logs.len() < 3 {
        return Err(ExecError::Analysis(CoplotError::InvalidConfig(
            "co-plot needs at least 3 workloads".into(),
        )));
    }
    let rows: Vec<WorkloadStats> = logs.iter().map(|log| log.row.clone()).collect();
    let codes: Vec<&str> = req.vars.iter().map(String::as_str).collect();
    wl_analysis::matrix::try_stats_matrix(&rows, &codes).map_err(ExecError::Analysis)
}

fn run_coplot(
    req: &AnalysisRequest,
    cfg: &ExecConfig,
    data: &DataMatrix,
) -> Result<ExecOutcome, ExecError> {
    let engine = Coplot::new()
        .seed(req.seed)
        .threads(cfg.threads)
        .deadline(cfg.deadline)
        .engine();
    let selection = match req.min_correlation {
        Some(min_correlation) => Selection::Eliminate { min_correlation },
        None => Selection::All,
    };
    let result = engine.run(data, &selection).map_err(ExecError::Analysis)?;
    Ok(ExecOutcome {
        response: AnalysisResponse::Coplot(CoplotOut::from_result(&result)),
        reports: engine.reports(),
    })
}

fn run_hurst(cfg: &ExecConfig, logs: &[LogSummary]) -> Result<ExecOutcome, ExecError> {
    check_deadline(cfg, "hurst")?;
    let rows = wl_par::par_map(cfg.threads, logs, |log| {
        wl_repro::series_hurst_row(&log.series)
    });
    Ok(ExecOutcome {
        response: AnalysisResponse::Hurst(HurstOut {
            workloads: logs.iter().map(|log| log.row.name.clone()).collect(),
            columns: hurst_columns(),
            rows,
        }),
        reports: Vec::new(),
    })
}

/// The 12-column Hurst header (series-major, estimator-minor).
fn hurst_columns() -> Vec<String> {
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
    data: &DataMatrix,
) -> Result<ExecOutcome, ExecError> {
    check_deadline(cfg, "subset")?;
    let results = wl_analysis::subset::best_variable_subset(
        data,
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
    fn undersized_model_suite_is_an_analysis_error() {
        // Jann's model cannot be re-fitted to a 50-job CTC log.
        let mut req = models_request(Operation::Coplot);
        req.jobs = 50;
        let err = execute(&req, &ExecConfig::new(2)).unwrap_err();
        match err {
            ExecError::Analysis(CoplotError::InvalidConfig(msg)) => {
                assert!(msg.contains("50-job"), "{msg}");
            }
            other => panic!("expected an analysis error, got {other:?}"),
        }
    }

    #[test]
    fn shared_execution_is_byte_identical_to_solo() {
        // Three requests over one dataset digest, differing only in
        // elimination / operation, all holding one slot.
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
            let slot = DatasetSlot::default();
            for req in &requests {
                let req = req.canonicalize().unwrap();
                let shared = execute_in(&req, &cfg, &slot).unwrap();
                let solo = execute(&req, &cfg).unwrap();
                assert_eq!(
                    shared.response.to_json(),
                    solo.response.to_json(),
                    "shared != solo at threads={threads}"
                );
            }
            let logs = slot.logs(|| panic!("the first request loaded")).unwrap();
            assert_eq!(logs.len(), 5);
        }
    }

    #[test]
    fn slot_computes_once_and_shares_the_value() {
        let slot = DatasetSlot::default();
        let mut calls = 0;
        let mut seen = Vec::new();
        for _ in 0..3 {
            let w = slot
                .logs(|| {
                    calls += 1;
                    Ok(Vec::new())
                })
                .unwrap();
            seen.push(w);
        }
        assert_eq!(calls, 1);
        assert!(
            seen.iter().all(|w| Arc::ptr_eq(w, &seen[0])),
            "a hit is a pointer copy"
        );
    }

    #[test]
    fn slot_does_not_store_errors() {
        let slot = DatasetSlot::default();
        let failed = slot.logs(|| Err(ExecError::DatasetNotFound("nope".into())));
        assert!(failed.is_err());
        let mut calls = 0;
        slot.logs(|| {
            calls += 1;
            Ok(Vec::new())
        })
        .unwrap();
        assert_eq!(calls, 1, "the failed load left the value unset");
    }

    #[test]
    fn one_load_serves_every_op_and_variable_list() {
        let cfg = ExecConfig::new(1);
        let slot = DatasetSlot::default();
        let mut four_vars = models_request(Operation::Coplot);
        four_vars.vars = ["Rm", "Pm", "Im", "Ii"].map(String::from).to_vec();
        let requests = [
            models_request(Operation::Coplot),
            four_vars,
            models_request(Operation::Hurst),
        ];
        let mut loads = 0;
        let mut seen = Vec::new();
        for req in &requests {
            let req = req.canonicalize().unwrap();
            let shared = execute_in(&req, &cfg, &slot).unwrap();
            let solo = execute(&req, &cfg).unwrap();
            assert_eq!(
                shared.response.to_json(),
                solo.response.to_json(),
                "{:?} {:?}",
                req.op,
                req.vars
            );
            seen.push(
                slot.logs(|| {
                    loads += 1;
                    Err(ExecError::DatasetNotFound("unused".into()))
                })
                .unwrap(),
            );
        }
        assert_eq!(loads, 0, "the first request loaded the summaries");
        assert!(
            seen.iter().all(|logs| Arc::ptr_eq(logs, &seen[0])),
            "every op and variable list reads one set of summaries"
        );
        assert_eq!(seen[0].len(), 5);
    }

    #[test]
    fn in_flight_shares_a_slot_only_while_it_is_held() {
        let in_flight = InFlight::default();
        let first = in_flight.hold(7);
        let queued = in_flight.hold(7);
        let other = in_flight.hold(8);
        assert!(Arc::ptr_eq(&first, &queued), "same digest, same live slot");
        assert!(!Arc::ptr_eq(&first, &other), "digests never share a slot");
        first.logs(|| Ok(Vec::new())).unwrap();

        // The first request is done, but a queued one still holds 7: a
        // request arriving now shares the loaded value.
        drop(first);
        let late = in_flight.hold(7);
        assert!(Arc::ptr_eq(&late, &queued));
        late.logs(|| panic!("already loaded")).unwrap();

        drop((queued, late, other));
        // Nothing was retained: the next request on 7 loads again, and the
        // dead entry for 8 is swept.
        let again = in_flight.hold(7);
        assert_eq!(in_flight.0.lock().unwrap().len(), 1, "no dead entry survives");
        let mut calls = 0;
        again
            .logs(|| {
                calls += 1;
                Ok(Vec::new())
            })
            .unwrap();
        assert_eq!(calls, 1);
    }

    const ORACLE_SEED: u64 = 11;

    /// Every log of `dataset` with all its records: the suites made one
    /// after another, each log kept whole. The reference the reduced
    /// loads are checked against.
    fn records(dataset: NamedDataset, jobs: usize, threads: usize) -> Vec<Workload> {
        let seed = ORACLE_SEED;
        let opts = wl_repro::Options {
            seed,
            jobs,
            threads,
            ..wl_repro::Options::default()
        };
        let table3 = || {
            let mut ws = wl_repro::production_suite(&opts);
            ws.extend(wl_repro::model_suite(&opts));
            ws
        };
        let grid = || wl_trace::synth::grid_suite(jobs, seed, threads, |t| t);
        let web = || wl_trace::synth::web_suite(jobs, seed, threads, |t| t);
        match dataset {
            NamedDataset::Table1 => wl_repro::production_suite(&opts),
            NamedDataset::Table2 => wl_repro::period_suite(&opts, |w| w),
            NamedDataset::Models => wl_repro::model_suite(&opts),
            NamedDataset::Table3 => table3(),
            NamedDataset::Grid => grid(),
            NamedDataset::Web => web(),
            NamedDataset::CrossDomain => {
                let mut ws = table3();
                ws.extend(grid());
                ws.extend(web());
                ws
            }
        }
    }

    /// `req`'s response built from the job records of its logs: Table-1
    /// rows computed from the records, Hurst estimated from the records.
    fn from_records(req: &AnalysisRequest, cfg: &ExecConfig, workloads: &[Workload]) -> String {
        let rows: Vec<WorkloadStats> = workloads
            .iter()
            .map(|w| WorkloadStats::compute(w).with_load_imputation())
            .collect();
        let codes: Vec<&str> = req.vars.iter().map(String::as_str).collect();
        let matrix = || wl_analysis::matrix::try_stats_matrix(&rows, &codes).unwrap();
        let outcome = match req.op {
            Operation::Coplot => run_coplot(req, cfg, &matrix()),
            Operation::Subset => run_subset(req, cfg, &matrix()),
            Operation::Hurst => Ok(ExecOutcome {
                response: AnalysisResponse::Hurst(HurstOut {
                    workloads: workloads.iter().map(|w| w.name.clone()).collect(),
                    columns: hurst_columns(),
                    rows: wl_repro::hurst_rows(workloads, cfg.threads),
                }),
                reports: Vec::new(),
            }),
        };
        outcome.unwrap().response.to_json()
    }

    /// A coplot, a hurst and a subset request on `dataset`.
    fn every_op(dataset: DatasetSpec, jobs: usize) -> Vec<AnalysisRequest> {
        [Operation::Coplot, Operation::Hurst, Operation::Subset]
            .into_iter()
            .map(|op| {
                let mut req = AnalysisRequest::new(op, dataset.clone());
                req.jobs = jobs as u64;
                req.seed = ORACLE_SEED;
                if op == Operation::Subset {
                    // The loads are the columns load imputation fills.
                    req.subset_size = 2;
                    req.max_alienation = 1.0;
                    req.vars = ["RL", "CL", "Rm", "Im"].map(String::from).to_vec();
                }
                req.canonicalize().unwrap()
            })
            .collect()
    }

    fn names_and_digests(ws: &[Workload]) -> Vec<(String, u64)> {
        ws.iter()
            .map(|w| (w.name.clone(), w.canonical_digest()))
            .collect()
    }

    #[test]
    fn reduced_datasets_answer_the_bytes_of_job_records() {
        let dir = std::env::temp_dir().join(format!("wl-serve-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        let mut texts = records(NamedDataset::Table1, 200, 1)
            .iter()
            .take(2)
            .map(|w| ("swf", wl_trace::write_swf(w)))
            .collect::<Vec<_>>();
        for site in 0..2 {
            texts.push(("gwf", wl_trace::synth::grid_site_text(site, 250, 5)));
        }
        for (i, (ext, text)) in texts.iter().enumerate() {
            let path = dir.join(format!("log{i}.{ext}"));
            std::fs::write(&path, text).unwrap();
            paths.push(path.to_str().unwrap().to_string());
        }
        let parsed: Vec<Workload> = paths
            .iter()
            .map(|path| crate::datasets::read_trace(path, None).unwrap())
            .collect();

        for threads in [1, 3] {
            let cfg = ExecConfig::new(threads);
            let mut cases = vec![(DatasetSpec::Paths(paths.clone()), 1, parsed.clone())];
            for (i, &dataset) in NamedDataset::ALL.iter().enumerate() {
                let jobs = 150 + 25 * i;
                let workloads = records(dataset, jobs, threads);
                assert_eq!(
                    names_and_digests(&dataset.synthesize(jobs, ORACLE_SEED, threads)),
                    names_and_digests(&workloads),
                    "{} at threads = {threads}",
                    dataset.name()
                );
                cases.push((DatasetSpec::Named(dataset.name().into()), jobs, workloads));
            }
            for (dataset, jobs, workloads) in &cases {
                for req in every_op(dataset.clone(), *jobs) {
                    assert_eq!(
                        execute(&req, &cfg).unwrap().response.to_json(),
                        from_records(&req, &cfg, workloads),
                        "{:?} on {dataset:?} at {jobs} jobs, threads = {threads}",
                        req.op
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
