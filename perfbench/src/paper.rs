//! `paper-repro`: one client runs the `table1`, `table3`, `fig4` and
//! `subset_search` binaries at `--jobs 8192 --threads 2`, then `wl stream`
//! over a 40 000-job GWF trace (grid site 0, 256-job windows), in turn,
//! closed loop. Set-up writes the trace, generated from the workload seed,
//! runs the binaries at seed 1999 and checks the goldens; the measured
//! rounds run at the workload seed, and their output must equal a
//! `--threads 1` run. Every `wl stream` output must equal
//! `run_stream_text` in-process.
//!
//! The traced run replays each program's library calls in-process, with a
//! span around every call into synthesis, statistics, the Hurst sweep, the
//! engine's stages, the subset search, trace parsing, the streaming
//! driver and its encoder.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

use coplot::Selection;
use wl_analysis::stream::run_stream;
use wl_models::{SelfSimilarModel, WorkloadModel};
use wl_repro::{paper, Options};
use wl_serve::{event_json, parse_stream_request, run_stream_text, StreamOptions};
use wl_trace::{AllocationFlexibility, SchedulerFlexibility, TraceFormat, TraceMeta};

use crate::procs::{children_peak_rss_mb, ratio};
use crate::spans::{traced_replay, Tracer};
use crate::stats::{median, Summary};
use crate::{derive, Ctx, Report};

/// The programs of one round, in order: the four repro binaries, then
/// `wl stream`.
pub const PROGRAMS: [&str; 5] = ["table1", "table3", "fig4", "subset_search", "stream"];
/// The seed the golden snapshots were taken at.
const GOLDEN_SEED: u64 = 1999;
const JOBS: usize = 8192;
const THREADS: usize = 2;
/// The streamed trace: grid site 0, in the run directory.
const SITE: usize = 0;
const TRACE_JOBS: usize = 40_000;
const TRACE_FILE: &str = "site0.gwf";
/// The `POST /v1/stream` header equivalent to `wl stream`'s flags; the CLI
/// names the stream after the file stem.
const STREAM_HEADER: &str = "{\"name\":\"site0\",\"format\":\"gwf\",\"jobs_per_window\":256}";
/// Set-up rounds; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Rounds the traced run times the programs over.
const TRACED_ROUNDS: usize = 3;

/// Run one program; wall time in ms and stdout, `None` on a failed exit.
fn run_program(ctx: &Ctx, name: &str, seed: u64, threads: usize) -> (f64, Option<String>) {
    let mut cmd = if name == "stream" {
        let mut cmd = Command::new(ctx.bin("wl"));
        cmd.args(["stream", TRACE_FILE, "--format", "gwf", "--window", "256"]);
        cmd
    } else {
        let mut cmd = Command::new(ctx.bin(name));
        cmd.args(["--seed", &seed.to_string(), "--jobs", &JOBS.to_string()]);
        cmd
    };
    let start = Instant::now();
    let out = cmd
        .args(["--threads", &threads.to_string()])
        .current_dir(&ctx.run_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let stdout = match out {
        Ok(o) if o.status.success() => String::from_utf8(o.stdout).ok(),
        _ => None,
    };
    (ms, stdout)
}

/// One round of the programs.
fn round(ctx: &Ctx, seed: u64, threads: usize) -> Vec<(f64, Option<String>)> {
    PROGRAMS
        .iter()
        .map(|p| run_program(ctx, p, seed, threads))
        .collect()
}

/// The trace `wl stream` reads, generated from the workload seed.
fn trace_text(seed: u64) -> String {
    wl_trace::synth::grid_site_text(SITE, TRACE_JOBS, derive(seed, 7))
}

/// The stream options `wl stream` uses, and the trace text they apply to.
fn stream_request(body: &str) -> Result<(StreamOptions, &str), String> {
    parse_stream_request(body).map_err(|e| e.to_string())
}

/// Count the outputs of one round against what each program must print;
/// an entry still unknown (fig4 at the golden seed, every binary at the
/// workload seed) is set from the first output. Returns the mismatches.
fn check_round(
    report: &mut Report,
    outs: Vec<(f64, Option<String>)>,
    want: &mut [Option<String>],
) -> u64 {
    let mut mismatches = 0;
    for (i, (_, out)) in outs.into_iter().enumerate() {
        let ok = match (&out, &want[i]) {
            (Some(got), Some(w)) => got == w,
            (Some(_), None) => {
                want[i] = out;
                true
            }
            (None, _) => false,
        };
        mismatches += u64::from(!ok);
        report.op(ok);
    }
    mismatches
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let body = format!("{STREAM_HEADER}\n{}", trace_text(ctx.seed));
    let (options, text) = stream_request(&body)?;
    let stream_out = run_stream_text(text, &options, THREADS).map_err(|e| e.to_string())?;
    let mut goldens: Vec<Option<String>> = PROGRAMS
        .iter()
        .map(|p| match *p {
            "fig4" => Ok(None),
            "stream" => Ok(Some(stream_out.clone())),
            p => {
                let path = ctx.root.join(format!("tests/golden/{p}.txt"));
                std::fs::read_to_string(&path)
                    .map(Some)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))
            }
        })
        .collect::<Result<_, _>>()?;

    // Set-up: write the trace, then the discarded first passes, the
    // binaries at the golden seed.
    let mut setup_s = Vec::new();
    let mut mismatches = 0;
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        let path = ctx.run_dir.join(TRACE_FILE);
        std::fs::write(&path, trace_text(ctx.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let outs = round(ctx, GOLDEN_SEED, THREADS);
        setup_s.push(start.elapsed().as_secs_f64());
        mismatches += check_round(&mut report, outs, &mut goldens);
    }
    if mismatches > 0 {
        report.note(format!(
            "golden check at seed {GOLDEN_SEED}: {mismatches} mismatches"
        ));
    }

    if ctx.trace {
        traced(ctx, &mut report, &body)?;
        return Ok(report);
    }

    // Measured rounds at the workload seed; every round must repeat the
    // first round's output, and `wl stream` the in-process one.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let mut reference: Vec<Option<String>> = PROGRAMS
        .iter()
        .map(|p| (*p == "stream").then(|| stream_out.clone()))
        .collect();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        let outs = round(ctx, ctx.seed, THREADS);
        for (i, (ms, _)) in outs.iter().enumerate() {
            samples[i].push(*ms);
        }
        mismatches += check_round(&mut report, outs, &mut reference);
    }
    // Determinism: one thread gives the same bytes as two.
    mismatches += check_round(&mut report, round(ctx, ctx.seed, 1), &mut reference);
    if mismatches > 0 {
        report.note(format!("{mismatches} outputs differ from the reference"));
    }

    let summaries: Vec<Summary> = PROGRAMS
        .iter()
        .zip(&samples)
        .map(|(p, s)| Summary::of(p, s))
        .collect();
    report.note(format!(
        "closed loop, 1 client, --jobs {JOBS} --threads {THREADS}, \
         {TRACE_JOBS}-job GWF trace, seed {}",
        ctx.seed
    ));
    for s in &summaries {
        report.note(s.render("ms"));
    }
    report.end_to_end(median(&setup_s), &summaries, children_peak_rss_mb());
    Ok(report)
}

/// Per-layer metrics: time the programs a few rounds (end-to-end wall of a
/// round), then replay their library calls in-process twice, with span
/// recording off and on. `body` is the stream request equivalent to the
/// `wl stream` invocation.
fn traced(ctx: &Ctx, report: &mut Report, body: &str) -> Result<(), String> {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
    let mut first: Vec<Option<String>> = vec![None; PROGRAMS.len()];
    for _ in 0..TRACED_ROUNDS {
        let outs = round(ctx, ctx.seed, THREADS);
        for (i, (ms, _)) in outs.iter().enumerate() {
            walls[i].push(*ms);
        }
        check_round(report, outs, &mut first);
    }
    let round_ms: f64 = walls.iter().map(|w| median(w)).sum();

    let (options, text) = stream_request(body)?;
    wl_obs::set_enabled(true);
    let before = wl_obs::registry().snapshot();
    let mut iterations = 0;
    let (overhead_pct, on) = traced_replay(|t| {
        iterations = replay(t, ctx.seed);
        report.op(replay_stream(t, &options, text) == first[4].clone().unwrap_or_default());
    });
    let after = wl_obs::registry().snapshot();

    let own = on.self_ms_by_name();
    let get = |span: &str| own.get(span).copied().unwrap_or(0.0);
    let mut accounted = 0.0;
    for (span, metric) in LAYERS {
        let v = get(span);
        accounted += v;
        report.set(metric, v);
    }
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let hits = delta("engine.subset.incremental.hits");
    let misses = delta("engine.subset.incremental.misses");
    report.set("engine.mds_iterations", iterations as f64);
    report.set("subset.incremental_hit_ratio", ratio(hits, hits + misses));

    // The streaming driver's own counters, from one session on its own.
    let before = wl_obs::registry().snapshot();
    black_box(run_stream_text(text, &options, THREADS).map_err(|e| e.to_string())?);
    let after = wl_obs::registry().snapshot();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    report.set(
        "stream.warm_accept_ratio",
        ratio(delta("stream.warm_accepted"), delta("stream.frames")),
    );
    report.set("stream.cold_fallbacks", delta("stream.cold_fallbacks"));
    report.set("mds.starts", delta("mds.starts"));

    report.set("unaccounted_ms", round_ms - accounted);
    report.set("trace_overhead_pct", overhead_pct);
    report.note(format!(
        "round wall {round_ms:.1} ms (median per binary over {TRACED_ROUNDS} rounds); \
         layer self time of one replayed round {accounted:.1} ms"
    ));
    ctx.write_spans("paper-repro", &on)
}

/// Span name → per-layer metric, for the layers this workload reaches.
const LAYERS: [(&str, &str); 13] = [
    ("logsynth.production", "logsynth.production_ms"),
    ("logsynth.models", "logsynth.models_ms"),
    ("trace.stats", "trace.stats_ms"),
    ("selfsim.hurst", "selfsim.hurst_ms"),
    ("engine.normalize", "engine.normalize_ms"),
    ("engine.dissimilarity", "engine.dissimilarity_ms"),
    ("engine.majorization", "engine.majorization_ms"),
    ("engine.theta", "engine.theta_ms"),
    ("engine.arrows", "engine.arrows_ms"),
    ("subset.search", "subset.search_ms"),
    ("trace.parse", "trace.parse_ms"),
    ("stream.run", "stream.run_ms"),
    ("stream.encode", "stream.encode_ms"),
];

/// Replay one round's library calls, as each binary makes them. Returns
/// the MDS iterations of the Figure 4 engine run.
fn replay(t: &mut Tracer, seed: u64) -> usize {
    let opts = Options {
        paper_data: false,
        seed,
        jobs: JOBS,
        threads: THREADS,
        timings: false,
    };
    t.span("table1", 1, |t| {
        let w = t.span("logsynth.production", 1, |_| {
            wl_repro::production_suite(&opts)
        });
        black_box(t.span("trace.stats", 1, |_| wl_repro::suite_stats(&w)));
    });
    t.span("table3", 2, |t| {
        let mut w = t.span("logsynth.production", 2, |_| {
            wl_repro::production_suite(&opts)
        });
        w.extend(t.span("logsynth.models", 2, |_| wl_repro::model_suite(&opts)));
        black_box(t.span("selfsim.hurst", 2, |_| wl_repro::hurst_rows(&w, THREADS)));
        let fractal = t.span("logsynth.models", 2, |_| {
            SelfSimilarModel::default()
                .generate(JOBS, &mut wl_stats::rng::seeded_rng(seed ^ 0xF2AC))
        });
        black_box(t.span("selfsim.hurst", 2, |_| wl_repro::hurst_row(&fractal)));
    });
    let iterations = t.span("fig4", 3, |t| {
        let mut w = t.span("logsynth.production", 3, |_| {
            wl_repro::production_suite(&opts)
        });
        w.extend(t.span("logsynth.models", 3, |_| wl_repro::model_suite(&opts)));
        let stats = t.span("trace.stats", 3, |_| wl_repro::suite_stats(&w));
        let data = wl_repro::stats_matrix(&stats, &paper::FIG4_VARIABLES);
        let engine = coplot::Coplot::new().seed(seed).threads(THREADS).engine();
        let result = t
            .span("engine.run", 3, |_| engine.run(&data, &Selection::All))
            .expect("the Figure 4 co-plot runs");
        let reports = engine.reports();
        t.add_children("engine.run", &crate::serve::stage_spans(&reports));
        black_box(coplot::render::render_text(&result, 72, 30));
        reports.iter().map(|r| r.iterations).sum::<usize>()
    });
    t.span("subset_search", 4, |t| {
        let codes = [
            "AL", "RL", "Rm", "Ri", "Pm", "Pi", "Nm", "Ni", "Cm", "Ci", "Im", "Ii",
        ];
        let data = wl_repro::paper_table1_matrix(&codes);
        for (max_alienation, top) in [(0.15, 10), (1.0, 220)] {
            black_box(t.span("subset.search", 4, |_| {
                wl_analysis::best_variable_subset(&data, 3, max_alienation, top, seed, THREADS)
            }))
            .expect("the subset search runs");
        }
    });
    iterations
}

/// What `wl stream` does after reading its file, through the same public
/// functions as `run_stream_text`, one span per layer. Returns the output.
fn replay_stream(t: &mut Tracer, options: &StreamOptions, text: &str) -> String {
    t.span("stream", 5, |t| {
        let machine = TraceMeta::new(
            128,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        );
        let fmt = options.format.unwrap_or(TraceFormat::Gwf);
        let trace = t
            .span("trace.parse", 5, |_| {
                fmt.source().read(&options.name, text, machine)
            })
            .expect("trace parses");
        let mut config = options.config.clone();
        config.mds.threads = THREADS;
        let events = t
            .span("stream.run", 5, |_| run_stream(&trace, &config))
            .expect("stream runs");
        t.span("stream.encode", 5, |_| {
            let mut out = String::new();
            for event in &events {
                out.push_str(&event_json(event));
                out.push('\n');
            }
            out
        })
    })
}
