//! Shared machinery for the reproduction binaries (one per table/figure).
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — production workload characteristics |
//! | `table2`   | Table 2 — LANL/SDSC six-month splits |
//! | `table3`   | Table 3 — Hurst estimates, 3 estimators x 4 series x 15 workloads |
//! | `fig1`     | Figure 1 — Co-plot of the production workloads |
//! | `fig2`     | Figure 2 — without the batch outliers |
//! | `fig3`     | Figure 3 — workloads over time |
//! | `fig4`     | Figure 4 — production + synthetic models |
//! | `fig5`     | Figure 5 — Co-plot of the Hurst estimates |
//! | `section8` | the three-parameter map of section 8 |
//!
//! Every binary accepts `--paper` to run the Co-plot pipeline on the
//! paper's published matrix (validating the method implementation in
//! isolation) instead of on the synthesized logs (validating the full
//! end-to-end reproduction), plus `--seed N` and `--jobs N`.
//!
//! Everything a binary prints goes through [`write_stdout`] (by [`out!`]
//! and [`outln!`]), so a reader that closes the pipe early ends the run
//! quietly.

/// [`print!`] through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!($($arg)*))
    };
}

/// [`println!`] through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(::std::format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

pub mod paper;

use std::sync::OnceLock;

use coplot::render::render_svg;
use coplot::{CoplotResult, DataMatrix};
use wl_logsynth::{machines, periods, MachineId};
use wl_models::{all_models, Jann, WorkloadModel};
use wl_selfsim::HurstEstimator;
use wl_swf::{JobSeries, Workload, WorkloadStats};

/// Common CLI knobs for every repro binary.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Use the paper's published matrix instead of synthesized logs.
    pub paper_data: bool,
    /// Base seed for the synthesized data.
    pub seed: u64,
    /// Jobs per full synthesized log.
    pub jobs: usize,
    /// Worker threads for synthesis, Hurst estimation, and the MDS
    /// restarts (results are identical for any thread count).
    pub threads: usize,
    /// Print per-stage timing reports after each Co-plot run.
    pub timings: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            paper_data: false,
            seed: 1999, // the year of the paper
            jobs: 8192,
            threads: wl_par::default_threads(),
            timings: false,
        }
    }
}

/// The flags every binary accepts, for the usage line.
const USAGE_FLAGS: &str = "[--paper] [--timings] [--seed N] [--jobs N] [--threads N] \
                           [--trace text|json] [--metrics-out PATH]";

impl Options {
    /// Parse the common flags from `std::env::args`, plus the global
    /// observability flags `--trace <text|json>` / `--metrics-out <path>`.
    /// The returned [`wl_obs::ObsSession`] must be held for the duration of
    /// `main`: it arms the metric registry when either flag is present and
    /// exports the trace (to stderr) / metrics file when dropped. Stdout is
    /// untouched either way, keeping golden snapshots byte-identical.
    ///
    /// `--help` or `-h` prints the usage line to stdout and exits 0. A bad
    /// command line (an unknown flag, a missing or non-integer value,
    /// `--jobs 0`) prints `<bin>: <message>` and the usage to stderr and
    /// exits 2.
    pub fn from_args() -> (Options, wl_obs::ObsSession) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let usage = format!(
            "usage: {} {USAGE_FLAGS}\n(--threads defaults to WL_THREADS, then the available \
             parallelism)",
            program()
        );
        if args.iter().any(|a| a == "--help" || a == "-h") {
            outln!("{usage}");
            std::process::exit(0);
        }
        Options::parse(args).unwrap_or_else(|e| {
            eprintln!("{}: {e}\n{usage}", program());
            std::process::exit(2)
        })
    }

    fn parse(mut args: Vec<String>) -> Result<(Options, wl_obs::ObsSession), String> {
        // --threads / --trace / --metrics-out are the shared runtime flags,
        // parsed by the same coplot::Runtime as the wl CLI and wl-serve.
        let rt = coplot::Runtime::extract(&mut args).map_err(|e| e.to_string())?;
        let mut opts = Options {
            threads: rt.threads,
            ..Options::default()
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut integer = || -> Result<u64, String> {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                value
                    .parse()
                    .map_err(|_| format!("{flag} needs an integer, got {value:?}"))
            };
            match flag.as_str() {
                "--paper" => opts.paper_data = true,
                "--timings" => opts.timings = true,
                "--seed" => opts.seed = integer()?,
                "--jobs" => {
                    opts.jobs = integer()?
                        .try_into()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or("--jobs needs a positive integer")?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let session = rt.obs_session().map_err(|e| e.to_string())?;
        // Kept for `write_stdout`, which ends a run the session outlives.
        let _ = OBS_FLAGS.set((rt.trace, rt.metrics_out));
        Ok((opts, session))
    }
}

/// The run's `--trace` and `--metrics-out` values, set by
/// [`Options::from_args`].
static OBS_FLAGS: OnceLock<(Option<String>, Option<String>)> = OnceLock::new();

/// Write to stdout: the one print path of every repro binary. A reader
/// that closed the pipe early (`table1 | head -1`) has what it wanted, so
/// a broken pipe ends the run with exit 0, as `wl` does, after exporting
/// the trace the binary's session would have exported; any other write
/// error ends it with a message and exit 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            // `exit` skips the binary's `ObsSession`; a twin built from
            // the same flags exports the same registry and spans.
            if let Some((trace, metrics_out)) = OBS_FLAGS.get() {
                if let Ok(session) =
                    wl_obs::ObsSession::from_flags(trace.as_deref(), metrics_out.as_deref())
                {
                    session.finish();
                }
            }
            std::process::exit(0);
        }
        eprintln!("{}: cannot write to stdout: {e}", program());
        std::process::exit(1);
    }
}

/// The running binary's name, for messages.
fn program() -> String {
    std::env::args()
        .next()
        .and_then(|a| {
            std::path::Path::new(&a)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "wl-repro".to_string())
}

/// Run the Co-plot engine on `data` with this run's seed/thread options,
/// honouring `--timings` by printing the per-stage reports.
pub fn run_coplot(opts: &Options, data: &DataMatrix) -> CoplotResult {
    let engine = coplot::Coplot::new()
        .seed(opts.seed)
        .threads(opts.threads)
        .engine();
    let result = engine
        .run(data, &coplot::Selection::All)
        .expect("coplot");
    if opts.timings {
        outln!("per-stage timings:");
        out!("{}", coplot::StageReportTable(&engine.reports()));
        outln!();
    }
    result
}

/// Which synthesized observations [`reduce_suite`] makes. Rows come back
/// in Table 3's listing order: Table 1's ten production observations, then
/// the models as Lublin, Feitelson '97, Feitelson '96, Downey, Jann.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The ten production observations of Table 1.
    Production,
    /// The five models; CTC is synthesized only to re-fit Jann.
    Models,
    /// Table 3's fifteen observations: production, then models.
    Table3,
}

impl Suite {
    /// The suite's observation names, in row order.
    fn observations(self) -> &'static [&'static str] {
        match self {
            Suite::Production => &paper::TABLE3_OBSERVATIONS[..10],
            Suite::Models => &paper::TABLE3_OBSERVATIONS[10..],
            Suite::Table3 => &paper::TABLE3_OBSERVATIONS,
        }
    }
}

/// One unit of synthesis work: a machine's log with its halves (CTC also
/// re-fits and generates Jann when the suite has models), or one of the
/// other four models by its [`all_models`] index.
#[derive(Debug, Clone, Copy)]
enum Task {
    Machine(MachineId),
    Model(usize),
}

/// Every task, heaviest first so the pool's claim order balances the
/// load: the six machines, CTC first, then Lublin, Feitelson '96,
/// Feitelson '97 and Downey.
const TASKS: [Task; 10] = [
    Task::Machine(MachineId::Ctc),
    Task::Machine(MachineId::Lanl),
    Task::Machine(MachineId::Sdsc),
    Task::Machine(MachineId::Kth),
    Task::Machine(MachineId::Llnl),
    Task::Machine(MachineId::Nasa),
    Task::Model(4),
    Task::Model(0),
    Task::Model(1),
    Task::Model(2),
];

/// [`all_models`] index of Jann; model `k` draws from
/// `derive_seed(seed, 1000 + k)`.
const JANN: usize = 3;

/// Synthesize `suite` on `opts.threads` workers and hand each workload by
/// value to `reduce` in the worker that made it, so a caller that keeps
/// only a row per log never holds more than a few logs at once. Jann's
/// model is re-fitted inside the CTC task to the log it has just made, as
/// the original was fitted to the real CTC trace. Rows come back in the
/// [`Suite`]'s order, bit-identical for any thread count.
///
/// # Errors
/// A failed Jann re-fit: below about 120 jobs the CTC log has too few
/// jobs per size range to fit.
pub fn reduce_suite<R, F>(opts: &Options, suite: Suite, reduce: F) -> Result<Vec<R>, String>
where
    R: Send,
    F: Fn(Workload) -> R + Sync,
{
    let _span = wl_obs::span!("repro.reduce_suite");
    let names = suite.observations();
    let tasks: Vec<Task> = TASKS
        .into_iter()
        .filter(|task| match (suite, task) {
            (Suite::Production, Task::Model(_)) => false,
            (Suite::Models, Task::Machine(id)) => *id == MachineId::Ctc,
            _ => true,
        })
        .collect();
    let per_task = wl_par::par_map(opts.threads, &tasks, |&task| {
        let mut rows = Vec::new();
        let mut emit = |w: Workload| {
            let row = names
                .iter()
                .position(|&n| n == w.name)
                .unwrap_or_else(|| panic!("{} is not an observation of {suite:?}", w.name));
            rows.push((row, reduce(w)));
        };
        run_task(opts, suite, task, &mut emit).map(|()| rows)
    });
    let mut rows: Vec<Option<R>> = names.iter().map(|_| None).collect();
    for task_rows in per_task {
        for (row, r) in task_rows? {
            rows[row] = Some(r);
        }
    }
    Ok(rows
        .into_iter()
        .map(|r| r.expect("every observation synthesized"))
        .collect())
}

/// Synthesize one task's workloads into `emit`, each as soon as it exists.
fn run_task(
    opts: &Options,
    suite: Suite,
    task: Task,
    emit: &mut dyn FnMut(Workload),
) -> Result<(), String> {
    use wl_stats::rng::{derive_seed, seeded_rng};
    let model_rng = |k: usize| seeded_rng(derive_seed(opts.seed, 1000 + k as u64));
    match task {
        Task::Machine(id) => {
            let logs = if suite == Suite::Models {
                vec![id.generate(opts.jobs, opts.seed)]
            } else {
                machines::machine_observations(id, opts.seed, opts.jobs)
            };
            let jann = if id == MachineId::Ctc && suite != Suite::Production {
                Some(Jann::fit_from_workload(&logs[0]).map_err(|e| {
                    format!(
                        "cannot re-fit the Jann model to a {}-job CTC log: {e}",
                        opts.jobs
                    )
                })?)
            } else {
                None
            };
            if suite != Suite::Models {
                logs.into_iter().for_each(&mut *emit);
            }
            if let Some(jann) = jann {
                emit(jann.generate(opts.jobs, &mut model_rng(JANN)));
            }
        }
        Task::Model(k) => emit(all_models()[k].generate(opts.jobs, &mut model_rng(k))),
    }
    Ok(())
}

/// [`reduce_suite`] for the binaries: a failed Jann re-fit prints
/// `<bin>: <message>` to stderr and exits with status 1.
pub fn run_suite<R, F>(opts: &Options, suite: Suite, reduce: F) -> Vec<R>
where
    R: Send,
    F: Fn(Workload) -> R + Sync,
{
    reduce_suite(opts, suite, reduce).unwrap_or_else(|e| {
        eprintln!("{}: {e}", program());
        std::process::exit(1)
    })
}

/// The ten production observations, synthesized (Table 1 column order).
/// The per-machine synthesis fans out over `opts.threads` workers.
pub fn production_suite(opts: &Options) -> Vec<Workload> {
    reduce_suite(opts, Suite::Production, |w| w).expect("the production suite has no re-fit")
}

/// Make the eight Table 2 period observations, L1..L4 then S1..S4, on
/// `opts.threads` workers and hand each by value to `reduce` in the worker
/// that made it, as [`reduce_suite`] does. Each period draws from a seed
/// of its own, so the rows are bit-identical for any thread count.
pub fn period_suite<R, F>(opts: &Options, reduce: F) -> Vec<R>
where
    R: Send,
    F: Fn(Workload) -> R + Sync,
{
    let _span = wl_obs::span!("repro.period_suite");
    let tasks: Vec<(MachineId, usize)> = [MachineId::Lanl, MachineId::Sdsc]
        .into_iter()
        .flat_map(|id| (0..periods::PERIODS_PER_MACHINE).map(move |k| (id, k)))
        .collect();
    wl_par::par_map(opts.threads, &tasks, |&(id, k)| {
        reduce(periods::period(id, k, opts.seed, opts.jobs / 2))
    })
}

/// The five model workloads, reordered to Table 3's listing (Lublin,
/// Feitelson '97, Feitelson '96, Downey, Jann).
///
/// Jann's model is re-fitted to the synthesized CTC log, exactly as the
/// original was fitted to the real CTC trace; the other four use their
/// published-default parameters.
///
/// # Panics
/// When the re-fit fails; see [`try_model_suite`].
pub fn model_suite(opts: &Options) -> Vec<Workload> {
    try_model_suite(opts).expect("CTC fit")
}

/// [`model_suite`], reporting a failed Jann re-fit as an error: below
/// about 120 jobs the synthesized CTC log has too few jobs per size range
/// to fit.
///
/// # Errors
/// The re-fit's message, naming the job count.
pub fn try_model_suite(opts: &Options) -> Result<Vec<Workload>, String> {
    reduce_suite(opts, Suite::Models, |w| w)
}

/// One workload's Table-1 statistics with the paper's load-imputation
/// rule: the row a binary keeps per synthesized log.
pub fn stats_row(w: &Workload) -> WorkloadStats {
    WorkloadStats::compute(w).with_load_imputation()
}

/// [`stats_row`] for each workload.
pub fn suite_stats(workloads: &[Workload]) -> Vec<WorkloadStats> {
    workloads.iter().map(stats_row).collect()
}

/// Build a Co-plot data matrix from measured stats for the given variable
/// codes (missing stats become missing cells). Thin re-export of the
/// wl-analysis builder.
pub fn stats_matrix(stats: &[WorkloadStats], codes: &[&str]) -> DataMatrix {
    wl_analysis::matrix::stats_matrix(stats, codes)
}

/// Build the Table 1 matrix straight from the paper's published numbers.
pub fn paper_table1_matrix(codes: &[&str]) -> DataMatrix {
    let var_idx: Vec<usize> = codes
        .iter()
        .map(|c| {
            paper::TABLE1_VARIABLES
                .iter()
                .position(|v| v == c)
                .unwrap_or_else(|| panic!("unknown Table 1 code {c:?}"))
        })
        .collect();
    let rows: Vec<Vec<Option<f64>>> = (0..10)
        .map(|obs| var_idx.iter().map(|&v| paper::TABLE1[v][obs]).collect())
        .collect();
    let row_refs: Vec<&[Option<f64>]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_optional_rows(
        paper::TABLE1_OBSERVATIONS.iter().map(|s| s.to_string()).collect(),
        codes.iter().map(|c| c.to_string()).collect(),
        &row_refs,
    )
}

/// Measured Hurst estimates for one workload: 12 columns in Table 3 order
/// (rp vp pp rr vr pr rc vc pc ri vi pi), `None` where an estimator could
/// not run. Each series is extracted, estimated and dropped in turn.
pub fn hurst_row(w: &Workload) -> Vec<Option<f64>> {
    series_hurst_row(JobSeries::ALL.iter().map(|series| series.extract(w)))
}

/// [`hurst_row`] from a workload's four series, given in
/// [`JobSeries::ALL`] order: the same estimates of the same values, so
/// the same bits, for a caller that kept the series but not the jobs.
pub fn series_hurst_row<S: AsRef<[f64]>>(series: impl IntoIterator<Item = S>) -> Vec<Option<f64>> {
    let mut out = Vec::with_capacity(12);
    for xs in series {
        for est in HurstEstimator::ALL {
            out.push(est.estimate(xs.as_ref()));
        }
    }
    out
}

/// [`hurst_row`] for every workload, the per-workload estimation spread
/// over `threads` workers. Row order matches `workloads`; each row is a
/// pure function of its workload, so the result is identical for any
/// thread count.
pub fn hurst_rows(workloads: &[Workload], threads: usize) -> Vec<Vec<Option<f64>>> {
    wl_par::par_map(threads, workloads, hurst_row)
}

/// Build the Figure 5 data matrix (measured Hurst estimates, selected
/// columns) from `(observation name, hurst_row)` rows.
pub fn hurst_matrix(rows: &[(String, Vec<Option<f64>>)], codes: &[&str]) -> DataMatrix {
    let col_idx: Vec<usize> = codes
        .iter()
        .map(|c| {
            paper::TABLE3_COLUMNS
                .iter()
                .position(|v| v == c)
                .unwrap_or_else(|| panic!("unknown Table 3 code {c:?}"))
        })
        .collect();
    let cells: Vec<Vec<Option<f64>>> = rows
        .iter()
        .map(|(_, full)| col_idx.iter().map(|&i| full[i]).collect())
        .collect();
    let row_refs: Vec<&[Option<f64>]> = cells.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_optional_rows(
        rows.iter().map(|(name, _)| name.clone()).collect(),
        codes.iter().map(|c| c.to_string()).collect(),
        &row_refs,
    )
}

/// Print the estimator-kernel work for one workload: per series, how many
/// pox-plot points (and blocks behind them) and variance-time levels (and
/// aggregated blocks) the R/S and variance-time estimators actually fit.
/// Used by the repro binaries under `--timings`.
pub fn print_estimator_work(w: &Workload) {
    use wl_selfsim::{rs, vartime};
    outln!("estimator work for {}:", w.name);
    outln!(
        "  {:<14} {:>6} {:>10} {:>10} {:>9} {:>10}",
        "series",
        "len",
        "pox pts",
        "pox blks",
        "vt lvls",
        "vt blks"
    );
    for series in JobSeries::ALL {
        let xs = series.extract(w);
        let pox = rs::pox_plot(&xs, rs::DEFAULT_MIN_BLOCK, rs::DEFAULT_POINTS);
        let vt = vartime::variance_time_plot(&xs, vartime::DEFAULT_POINTS, vartime::DEFAULT_MIN_BLOCKS);
        outln!(
            "  {:<14} {:>6} {:>10} {:>10} {:>9} {:>10}",
            format!("{series:?}"),
            xs.len(),
            pox.len(),
            pox.iter().map(|p| p.blocks).sum::<usize>(),
            vt.len(),
            vt.iter().map(|p| p.blocks).sum::<usize>(),
        );
    }
}

/// Build the Figure 5 matrix from the paper's Table 3 numbers.
pub fn paper_table3_matrix(codes: &[&str]) -> DataMatrix {
    let col_idx: Vec<usize> = codes
        .iter()
        .map(|c| paper::TABLE3_COLUMNS.iter().position(|v| v == c).unwrap())
        .collect();
    let rows: Vec<Vec<Option<f64>>> = paper::TABLE3
        .iter()
        .map(|row| col_idx.iter().map(|&i| Some(row[i])).collect())
        .collect();
    let row_refs: Vec<&[Option<f64>]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_optional_rows(
        paper::TABLE3_OBSERVATIONS.iter().map(|s| s.to_string()).collect(),
        codes.iter().map(|c| c.to_string()).collect(),
        &row_refs,
    )
}

/// Format an optional value for table cells.
pub fn cell(v: Option<f64>) -> String {
    match v {
        None => "N/A".to_string(),
        Some(0.0) => "0".to_string(),
        Some(x) if x.abs() >= 10_000.0 => format!("{x:.0}"),
        Some(x) if x.abs() >= 10.0 => format!("{x:.1}"),
        Some(x) if x.abs() >= 0.01 => format!("{x:.3}"),
        Some(x) => format!("{x:.4}"),
    }
}

/// A table cell accessor: `(variable index, observation index) -> value`.
pub type CellFn<'a> = &'a dyn Fn(usize, usize) -> Option<f64>;

/// Print a paper-vs-measured table: one row pair per variable, one column
/// per observation.
pub fn print_comparison(
    title: &str,
    observations: &[String],
    variables: &[&str],
    paper_cells: CellFn<'_>,
    measured_cells: CellFn<'_>,
) {
    outln!("== {title} ==");
    out!("{:<22}", "variable");
    for o in observations {
        out!("{o:>12}");
    }
    outln!();
    for (vi, v) in variables.iter().enumerate() {
        out!("{:<22}", format!("{v} paper"));
        for oi in 0..observations.len() {
            out!("{:>12}", cell(paper_cells(vi, oi)));
        }
        outln!();
        out!("{:<22}", format!("{v} measured"));
        for oi in 0..observations.len() {
            out!("{:>12}", cell(measured_cells(vi, oi)));
        }
        outln!();
    }
}

/// Report a Co-plot run's fit against the paper's quoted statistics and
/// dump both a text map and an SVG.
pub fn report_figure(figure: &str, result: &CoplotResult, paper_theta: f64, paper_mean_corr: f64) {
    outln!("== {figure} ==");
    outln!(
        "coefficient of alienation: measured {:.3} (paper {:.2}); good-fit threshold {}",
        result.alienation,
        paper_theta,
        paper::fit_claims::GOOD_THETA
    );
    outln!(
        "mean arrow correlation:    measured {:.3} (paper {:.2}); minimum {:.3}",
        result.mean_arrow_correlation(),
        paper_mean_corr,
        result.min_arrow_correlation()
    );
    outln!();
    outln!("{}", coplot::render::render_text(result, 72, 30));
    let path = write_svg(figure, result);
    outln!("SVG written to {path}");
}

/// Write a figure's SVG under `repro-out/`, returning the path.
pub fn write_svg(figure: &str, result: &CoplotResult) -> String {
    let dir = std::path::Path::new("repro-out");
    std::fs::create_dir_all(dir).expect("create repro-out/");
    let slug: String = figure
        .chars()
        .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    let path = dir.join(format!("{slug}.svg"));
    std::fs::write(&path, render_svg(result, figure)).expect("write SVG");
    path.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_builds_for_all_figures() {
        for codes in [
            &paper::FIG1_VARIABLES[..],
            &paper::FIG2_VARIABLES[..],
            &paper::FIG3_VARIABLES[..],
            &paper::FIG4_VARIABLES[..],
            &paper::SEC8_VARIABLES[..],
        ] {
            let m = paper_table1_matrix(codes);
            assert_eq!(m.n_observations(), 10);
            assert_eq!(m.n_variables(), codes.len());
        }
        let m3 = paper_table3_matrix(&paper::FIG5_VARIABLES);
        assert_eq!(m3.n_observations(), 15);
        assert_eq!(m3.n_variables(), 9);
    }

    #[test]
    fn stats_matrix_round_trips_names() {
        let opts = Options {
            jobs: 400,
            ..Options::default()
        };
        let ws = production_suite(&opts);
        let stats = suite_stats(&ws);
        let m = stats_matrix(&stats, &["Rm", "Pm", "Im"]);
        assert_eq!(m.n_observations(), 10);
        assert_eq!(
            m.variables(),
            &["Rm".to_string(), "Pm".to_string(), "Im".to_string()]
        );
        assert_eq!(m.observations()[0], "CTC");
    }

    #[test]
    fn model_suite_in_table3_order() {
        let opts = Options {
            jobs: 300,
            ..Options::default()
        };
        let ms = model_suite(&opts);
        let names: Vec<&str> = ms.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Lublin", "Feitelson '97", "Feitelson '96", "Downey", "Jann"]
        );
    }

    #[test]
    fn suites_and_hurst_matrix_bit_identical_across_thread_counts() {
        let base = Options {
            jobs: 400,
            threads: 1,
            ..Options::default()
        };
        let mut workloads = production_suite(&base);
        workloads.extend(model_suite(&base));
        let matrix = |ws: &[Workload], threads: usize| {
            let names = ws.iter().map(|w| w.name.clone());
            let rows: Vec<_> = names.zip(hurst_rows(ws, threads)).collect();
            hurst_matrix(&rows, &["rp", "vr", "pc"])
        };
        let reference = matrix(&workloads, 1);
        for threads in [2, 3, 8] {
            let opts = Options { threads, ..base };
            let mut ws = production_suite(&opts);
            ws.extend(model_suite(&opts));
            assert_eq!(ws, workloads, "suite at threads = {threads}");
            assert_eq!(
                matrix(&ws, threads),
                reference,
                "hurst matrix at threads = {threads}"
            );
        }
    }

    /// The model suite as it was made before `reduce_suite`, kept as the
    /// oracle: each model from its own `all_models` seed, Jann re-fitted to
    /// a CTC log of its own, then sorted into Table 3's order.
    fn reference_models(opts: &Options) -> Result<Vec<Workload>, String> {
        use wl_stats::rng::{derive_seed, seeded_rng};
        let mut out = Vec::new();
        for (k, model) in all_models().iter().enumerate() {
            let mut rng = seeded_rng(derive_seed(opts.seed, 1000 + k as u64));
            if model.name() == "Jann" {
                let ctc = MachineId::Ctc.generate(opts.jobs, opts.seed);
                let fitted = Jann::fit_from_workload(&ctc).map_err(|e| {
                    format!(
                        "cannot re-fit the Jann model to a {}-job CTC log: {e}",
                        opts.jobs
                    )
                })?;
                out.push(fitted.generate(opts.jobs, &mut rng));
            } else {
                out.push(model.generate(opts.jobs, &mut rng));
            }
        }
        let order = ["Lublin", "Feitelson '97", "Feitelson '96", "Downey", "Jann"];
        out.sort_by_key(|w| order.iter().position(|&n| n == w.name));
        Ok(out)
    }

    fn digests(ws: &[Workload]) -> Vec<u64> {
        ws.iter().map(Workload::canonical_digest).collect()
    }

    #[test]
    fn reduce_suite_matches_the_separate_suites_at_every_thread_count() {
        for jobs in [120, 300, 1024] {
            let base = Options {
                jobs,
                threads: 1,
                ..Options::default()
            };
            let production = machines::production_workloads_par(base.seed, jobs, 1);
            let models = reference_models(&base).expect("re-fit");
            let table3: Vec<Workload> = production.iter().chain(&models).cloned().collect();
            for threads in [1, 2, 3, 8] {
                let opts = Options { threads, ..base };
                let at = format!("jobs = {jobs}, threads = {threads}");
                let identity = |suite| reduce_suite(&opts, suite, |w| w).expect("re-fit");
                assert_eq!(identity(Suite::Production), production, "production, {at}");
                assert_eq!(identity(Suite::Models), models, "models, {at}");
                let t3 = identity(Suite::Table3);
                assert_eq!(t3, table3, "table3, {at}");
                assert_eq!(digests(&t3), digests(&table3), "table3 bits, {at}");
                assert_eq!(
                    reduce_suite(&opts, Suite::Table3, |w| w.len()).expect("re-fit"),
                    table3.iter().map(Workload::len).collect::<Vec<_>>(),
                    "lengths, {at}"
                );
            }
        }
    }

    #[test]
    fn undersized_model_suites_fail_with_the_reference_error() {
        let opts = Options {
            jobs: 50,
            ..Options::default()
        };
        let want = reference_models(&opts).expect_err("50 jobs are too few to fit");
        assert!(want.starts_with("cannot re-fit the Jann model to a 50-job CTC log: "));
        for threads in [1, 2, 8] {
            let opts = Options { threads, ..opts };
            assert_eq!(try_model_suite(&opts).unwrap_err(), want, "threads = {threads}");
            for suite in [Suite::Models, Suite::Table3] {
                let got = reduce_suite(&opts, suite, |w| w.len()).unwrap_err();
                assert_eq!(got, want, "{suite:?}, threads = {threads}");
            }
        }
        assert_eq!(reduce_suite(&opts, Suite::Production, |w| w.len()).unwrap().len(), 10);
    }

    #[test]
    fn jann_is_refitted_to_the_ctc_log_the_suite_emits() {
        use wl_stats::rng::{derive_seed, seeded_rng};
        for (jobs, seed) in [(300, 1999), (1024, 5)] {
            let ctc = MachineId::Ctc.generate(jobs, seed);
            let jann = Jann::fit_from_workload(&ctc)
                .expect("re-fit")
                .generate(jobs, &mut seeded_rng(derive_seed(seed, 1000 + JANN as u64)));
            let opts = Options {
                jobs,
                seed,
                threads: 2,
                ..Options::default()
            };
            let rows = reduce_suite(&opts, Suite::Table3, |w| w).expect("re-fit");
            assert_eq!(rows[0].canonical_digest(), ctc.canonical_digest());
            assert_eq!(rows[14].name, "Jann");
            assert_eq!(rows[14], jann);
            assert_eq!(rows[14].canonical_digest(), jann.canonical_digest());
        }
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(None), "N/A");
        assert_eq!(cell(Some(0.0)), "0");
        assert_eq!(cell(Some(0.0086)), "0.0086");
        assert_eq!(cell(Some(0.79)), "0.790");
        assert_eq!(cell(Some(960.0)), "960.0");
        assert_eq!(cell(Some(57216.0)), "57216");
    }
}
