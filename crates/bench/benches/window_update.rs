//! Per-window update cost of the streaming windowed Co-plot stack.
//!
//! Three comparisons back the streaming design's claims (the numbers are
//! held in EXPERIMENTS.md):
//!
//! * `mds_update` — warm-started refinement (`nonmetric_mds_warm` from
//!   the previous frame's embedding, fresh window at the origin) vs the
//!   cold multi-restart solver on the *same* next-frame dissimilarities.
//!   The previous frame is almost always in the right basin, so one
//!   RNG-free descent replaces the whole restart sweep.
//! * `window_stats` — what one seal costs: the fresh window's Table-1
//!   statistics (`TraceStats::compute` over its jobs alone; the stream
//!   caches every retained window's row) vs recomputing every retained
//!   window's statistics from scratch, which is what a batch re-run per
//!   seal would do.
//! * `stream_end_to_end` — the full `run_stream` event sequence over a
//!   multi-window trace, the number an operator sizing a live monitor
//!   cares about.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coplot::{
    nonmetric_mds, nonmetric_mds_warm, DissimilarityMatrix, Imputation, MdsConfig, Metric,
};
use wl_analysis::matrix::JOB_STREAM_VARIABLES;
use wl_analysis::{run_stream, try_stats_matrix, StreamConfig};
use wl_linalg::Matrix;
use wl_logsynth::machines::MachineId;
use wl_swf::Workload;
use wl_trace::{NormalizedTrace, TraceStats};

const WINDOW: usize = 512;
const FRAME: usize = 8;

fn trace() -> Workload {
    MachineId::Ctc.generate(WINDOW * (FRAME + 1), 1999)
}

/// Table-1 statistics of window `w` (jobs `[w*WINDOW, (w+1)*WINDOW)`).
fn window_stats(t: &Workload, w: usize) -> TraceStats {
    let jobs = t.jobs()[w * WINDOW..(w + 1) * WINDOW].to_vec();
    TraceStats::compute(&NormalizedTrace::new(format!("w{w}"), t.machine, jobs))
        .with_load_imputation()
}

/// Dissimilarities of the rolling frame holding windows
/// `[first, first + FRAME)`, with the stream driver's constant-column
/// drop applied (single-machine windows keep e.g. `Nm` constant).
fn frame_diss(t: &Workload, first: usize) -> DissimilarityMatrix {
    let stats: Vec<TraceStats> = (first..first + FRAME).map(|w| window_stats(t, w)).collect();
    let full = try_stats_matrix(&stats, &JOB_STREAM_VARIABLES).unwrap();
    let keep: Vec<&str> = (0..JOB_STREAM_VARIABLES.len())
        .filter(|&v| {
            let mut vals = (0..full.n_observations()).filter_map(|i| full.get(i, v));
            match vals.next() {
                Some(first) => vals.any(|x| x != first),
                None => false,
            }
        })
        .map(|v| JOB_STREAM_VARIABLES[v])
        .collect();
    let z = try_stats_matrix(&stats, &keep)
        .unwrap()
        .normalize(Imputation::ColumnMean)
        .unwrap();
    DissimilarityMatrix::compute(&z, Metric::CityBlock)
}

/// Warm vs cold MDS for one window update: solve frame 0 cold, then
/// embed frame 1 (one window retired, one fresh) both ways.
fn bench_mds_update(c: &mut Criterion) {
    let t = trace();
    let prev = frame_diss(&t, 0);
    let next = frame_diss(&t, 1);
    let config = MdsConfig::default();
    let prev_sol = nonmetric_mds(&prev, &config).unwrap();

    // The stream driver's warm init: shared windows keep their previous
    // coordinates (frame 1's row i is frame 0's row i+1), the fresh
    // window starts at the origin.
    let mut init = Matrix::zeros(FRAME, 2);
    for row in 0..FRAME - 1 {
        init[(row, 0)] = prev_sol.coords[(row + 1, 0)];
        init[(row, 1)] = prev_sol.coords[(row + 1, 1)];
    }

    let mut group = c.benchmark_group("window_update_mds");
    group.bench_with_input(BenchmarkId::new("warm", FRAME), &next, |b, next| {
        b.iter(|| nonmetric_mds_warm(black_box(next), &config, &init).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("cold", FRAME), &next, |b, next| {
        b.iter(|| nonmetric_mds(black_box(next), &config).unwrap())
    });
    group.finish();
}

/// What one seal costs on the statistics side: the stream computes the
/// fresh window only; a naive batch re-run recomputes all retained
/// windows.
fn bench_window_stats(c: &mut Criterion) {
    let t = trace();
    let mut group = c.benchmark_group("window_update_stats");
    group.bench_with_input(BenchmarkId::new("fresh_window", WINDOW), &t, |b, t| {
        b.iter(|| window_stats(black_box(t), FRAME))
    });
    group.bench_with_input(
        BenchmarkId::new("full_recompute", WINDOW * FRAME),
        &t,
        |b, t| {
            b.iter(|| {
                (0..FRAME)
                    .map(|w| window_stats(black_box(t), w))
                    .collect::<Vec<_>>()
            })
        },
    );
    group.finish();
}

/// The full event stream over a 9-window trace (pendings, cold first
/// frame, warm updates, drift metrics, online Hurst).
fn bench_stream_end_to_end(c: &mut Criterion) {
    let t = trace();
    let config = StreamConfig {
        jobs_per_window: WINDOW,
        ..StreamConfig::default()
    };
    let mut group = c.benchmark_group("stream_end_to_end");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("run_stream", t.jobs().len()),
        &t,
        |b, t| b.iter(|| run_stream(black_box(t), &config).unwrap()),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_mds_update,
    bench_window_stats,
    bench_stream_end_to_end
);
criterion_main!(benches);
