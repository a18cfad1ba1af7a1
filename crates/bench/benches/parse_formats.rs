//! Parse throughput per trace format.
//!
//! The `TraceSource` ingestion layer admits SWF, GWF, and web-access-log
//! text through one trait; this suite measures each adapter's strict
//! parser (and format auto-detection) on same-sized synthetic inputs so
//! regressions in any one format stand out. Throughput is per input line,
//! the unit the parsers actually consume — GWF jobs are one line each,
//! web sessions several request lines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use wl_logsynth::machines::MachineId;
use wl_trace::synth::{grid_site_text, web_server_text};
use wl_trace::TraceFormat;

const JOBS: usize = 4096;
const SEED: u64 = 1999;

fn corpus() -> [(TraceFormat, String, String); 3] {
    let swf = wl_swf::write_swf(&MachineId::Kth.generate(JOBS, 3));
    let gwf = grid_site_text(0, JOBS, SEED);
    let web = web_server_text(0, JOBS / 4, SEED);
    [
        (TraceFormat::Swf, "log.swf".into(), swf),
        (TraceFormat::Gwf, "log.gwf".into(), gwf),
        (TraceFormat::Weblog, "access.log".into(), web),
    ]
}

fn bench_strict_parse(c: &mut Criterion) {
    let meta = wl_trace::TraceMeta::new(
        128,
        wl_trace::SchedulerFlexibility::Backfilling,
        wl_trace::AllocationFlexibility::Unlimited,
    );
    let mut group = c.benchmark_group("parse_strict");
    for (fmt, _, text) in corpus() {
        group.throughput(Throughput::Elements(text.lines().count() as u64));
        group.bench_function(fmt.label(), |b| {
            b.iter(|| {
                fmt.source()
                    .read(black_box("bench"), black_box(&text), meta)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    // Detection reads at most the first data line; benchmark the
    // content-only path (extensionless name) since extensions short-circuit.
    let mut group = c.benchmark_group("format_detect");
    for (fmt, _, text) in corpus() {
        group.bench_function(fmt.label(), |b| {
            b.iter(|| TraceFormat::detect(black_box("trace"), black_box(&text)))
        });
    }
    group.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_strict_parse, bench_detection
}
criterion_main!(benches);
