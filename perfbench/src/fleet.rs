//! `fleet-split`: a coordinator plus 2 workers, each process started with
//! `--workers 1 --threads 1`, the workers registering themselves. One
//! connection, closed loop, rotates through coplot, hurst and subset (size
//! 3, top 5) on `table1` at 1024 jobs, each request with a seed no cache
//! still holds, so every request is split into shards by `serve::dist`. Every 2xx body must
//! equal the single-node body (`wl_serve::execute` in-process).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use coplot::{AnalysisRequest, ShardRequest};
use wl_serve::dist::shard;
use wl_serve::{execute_shard, ExecConfig};

use crate::driver::{closed_loop, connect, ms};
use crate::procs::{ratio, Scrape, Server};
use crate::serve::{check, expected_bodies, request_body, setup_rounds, TIMEOUT};
use crate::spans::{traced_replay, Tracer};
use crate::stats::{mean, Summary};
use crate::{derive, Ctx, Report};

/// The rotation: op label and extra request fields.
const OPS: [(&str, &str); 3] = [
    ("coplot", ""),
    ("hurst", ""),
    ("subset", ",\"subset_size\":3,\"top\":5"),
];
const PROCESS_ARGS: [&str; 4] = ["--workers", "1", "--threads", "1"];
const WORKERS: usize = 2;
const SETUP_ROUNDS: usize = 9;
/// Requests per op the traced run also sends straight to one worker.
const DIRECT: usize = 3;

/// A coordinator and its workers.
struct Fleet {
    coordinator: Server,
    workers: Vec<Server>,
}

impl Fleet {
    /// Drain the coordinator, then the workers; one result per process.
    fn shutdown(self) -> Vec<Result<(), String>> {
        let mut out = vec![self.coordinator.shutdown()];
        out.extend(self.workers.into_iter().map(Server::shutdown));
        out
    }

    /// Summed peak resident memory of every process, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.coordinator.peak_rss_mb() + self.workers.iter().map(Server::peak_rss_mb).sum::<f64>()
    }
}

/// Start a coordinator and the workers, wait until `/v2/fleet` shows every
/// worker registered and alive, and warm the fleet with one request per op
/// (seeds apart from the measured ones).
fn start(ctx: &Ctx) -> Result<(Fleet, f64), String> {
    let start = Instant::now();
    let bin = ctx.bin("wl-serve");
    let mut args: Vec<String> = PROCESS_ARGS.iter().map(|s| s.to_string()).collect();
    args.push("--coordinator".into());
    let coordinator = Server::spawn(&bin, &args, &ctx.run_dir)?;
    let mut workers = Vec::new();
    for _ in 0..WORKERS {
        let mut args: Vec<String> = PROCESS_ARGS.iter().map(|s| s.to_string()).collect();
        args.extend(["--register".to_string(), coordinator.addr.clone()]);
        workers.push(Server::spawn(&bin, &args, &ctx.run_dir)?);
    }
    coordinator.wait_ready("/v2/fleet", Duration::from_secs(20), |body| {
        body.matches("\"alive\":true").count() == WORKERS
    })?;
    let mut client =
        connect(&coordinator.addr, TIMEOUT).ok_or("cannot connect to the coordinator")?;
    for (k, (label, extra)) in OPS.iter().enumerate() {
        let body = request_body(label, derive(ctx.seed, 5_000 + k as u64), extra);
        match client.call("POST", &format!("/v1/{label}"), Some(&body)) {
            Ok((200, _, _)) => {}
            other => return Err(format!("fleet warm-up {label} failed: {other:?}")),
        }
    }
    Ok((
        Fleet {
            coordinator,
            workers,
        },
        start.elapsed().as_secs_f64(),
    ))
}

/// Distinct requests the rotation cycles through. Each process's result
/// cache drops its oldest entry past 128, and every request adds one to
/// each, so a request has left every cache before it comes back; the
/// in-process check computes only this many bodies, however long the run.
const POOL: usize = 384;

/// Request `i` of the rotation: its op index and body.
fn request(seed: u64, i: usize) -> (usize, String) {
    let op = i % OPS.len();
    let (label, extra) = OPS[op];
    let k = (i % POOL) as u64;
    (op, request_body(label, derive(seed, 10_000 + k), extra))
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (fleet, setup_s) = setup_rounds(SETUP_ROUNDS, &mut report, || start(ctx), Fleet::shutdown)?;
    let addr = fleet.coordinator.addr.clone();

    let before = scrape_all(&fleet)?;
    let mut bodies = Vec::new();
    let outcomes = closed_loop(&addr, ctx.seconds, TIMEOUT, |i| {
        let (op, body) = request(ctx.seed, i);
        bodies.push(body.clone());
        (format!("/v1/{}", OPS[op].0), body)
    })?;
    let after = scrape_all(&fleet)?;

    let direct = if ctx.trace {
        direct_latencies(ctx, &fleet, &mut report)?
    } else {
        Vec::new()
    };
    let peak_rss_mb = fleet.peak_rss_mb();
    for r in fleet.shutdown() {
        report.op(r.is_ok());
    }

    let expected = expected_bodies(&bodies);
    let latencies = check(&mut report, &outcomes, &bodies, &expected);
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); OPS.len()];
    for (i, l) in latencies.iter().enumerate() {
        per_op[i % OPS.len()].push(*l);
    }
    let summaries: Vec<Summary> = OPS
        .iter()
        .zip(&per_op)
        .map(|((label, _), s)| Summary::of(label, s))
        .collect();
    report.note(format!(
        "closed loop, 1 connection, coordinator + {WORKERS} workers ({}), {POOL} requests cycling",
        PROCESS_ARGS.join(" ")
    ));
    for s in &summaries {
        report.note(s.render("ms"));
    }

    if ctx.trace {
        traced(ctx, &mut report, &before, &after, &latencies, &direct)?;
        return Ok(report);
    }

    report.end_to_end(setup_s, &summaries, peak_rss_mb);
    Ok(report)
}

/// Coordinator scrape (fleet-aggregated) followed by each worker's own.
fn scrape_all(fleet: &Fleet) -> Result<Vec<Scrape>, String> {
    let mut out = vec![fleet.coordinator.scrape()?];
    for w in &fleet.workers {
        out.push(w.scrape()?);
    }
    Ok(out)
}

/// Send the first [`DIRECT`] requests of each op straight to the first
/// worker as ordinary single-node requests; their latencies by request
/// index, checked against in-process execution.
fn direct_latencies(
    ctx: &Ctx,
    fleet: &Fleet,
    report: &mut Report,
) -> Result<Vec<(usize, f64)>, String> {
    let mut client =
        connect(&fleet.workers[0].addr, TIMEOUT).ok_or("cannot connect to a worker")?;
    let picks: Vec<usize> = (0..DIRECT * OPS.len()).collect();
    let bodies: Vec<String> = picks.iter().map(|&i| request(ctx.seed, i).1).collect();
    let expected = expected_bodies(&bodies);
    let mut out = Vec::new();
    for (&i, body) in picks.iter().zip(&bodies) {
        let t = Instant::now();
        let reply = client.call("POST", &format!("/v1/{}", OPS[i % OPS.len()].0), Some(body));
        let elapsed = ms(t.elapsed());
        report.op(matches!(&reply, Ok((200, _, got)) if Some(got) == expected.get(body)));
        out.push((i, elapsed));
    }
    Ok(out)
}

/// Per-layer metrics from the counter deltas, the direct-to-worker
/// latencies, and an in-process replay of the shard plan.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    before: &[Scrape],
    after: &[Scrape],
    latencies: &[f64],
    direct: &[(usize, f64)],
) -> Result<(), String> {
    let coord = after[0].since(&before[0]);
    let workers: Vec<Scrape> = after[1..]
        .iter()
        .zip(&before[1..])
        .map(|(a, b)| a.since(b))
        .collect();
    let shard_sums: Vec<f64> = workers
        .iter()
        .map(|w| w.hist("serve.latency_us.shard").1)
        .collect();
    let shard_count: f64 = workers
        .iter()
        .map(|w| w.hist("serve.latency_us.shard").0)
        .sum();
    let shard_total: f64 = shard_sums.iter().sum();
    let lo = shard_sums.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = shard_sums.iter().copied().fold(0.0, f64::max);
    report.set(
        "dist.shards_per_request",
        ratio(
            coord.counter("serve.fleet.shards"),
            coord.counter("serve.fleet.requests"),
        ),
    );
    report.set(
        "dist.worker_handle_ms",
        ratio(shard_total, shard_count) / 1e3,
    );
    report.set("dist.shard_imbalance", ratio(hi, lo));
    report.set("dist.retries", coord.counter("serve.fleet.retries"));
    let hop_metrics = [
        "dist.hop_coplot_ms",
        "dist.hop_hurst_ms",
        "dist.hop_subset_ms",
    ];
    for (op, metric) in hop_metrics.into_iter().enumerate() {
        let pairs: Vec<(f64, f64)> = direct
            .iter()
            .filter(|(i, _)| i % OPS.len() == op)
            .map(|&(i, d)| (latencies[i], d))
            .collect();
        let fleet_ms = mean(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let direct_ms = mean(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        report.set(metric, fleet_ms - direct_ms);
    }

    // Replay the same requests' shard plans in-process: the slowest shard
    // plus the merge and encode is the blocking path of one request.
    let n = DIRECT * OPS.len();
    let bodies: Vec<String> = (0..n).map(|i| request(ctx.seed, i).1).collect();
    let (overhead_pct, t) = traced_replay(|t| replay(t, &bodies));
    report.set("trace_overhead_pct", overhead_pct);
    let mut blocking: BTreeMap<u64, f64> = BTreeMap::new();
    let mut exec_ms = 0.0;
    for s in t.spans() {
        let d = (s.end_ns - s.start_ns) as f64 / 1e6;
        let entry = blocking.entry(s.request).or_default();
        match s.name {
            "dist.shard" => {
                exec_ms += d;
                *entry = entry.max(d);
            }
            "dist.merge" | "api.encode" => *entry += d,
            _ => {}
        }
    }
    // Spans are in start order and a request's shards start before its
    // merge and encode, so the entry holds the slowest shard when those add.
    let critical_ms = blocking.values().sum::<f64>() / n as f64;
    report.set("dist.shard_exec_ms", exec_ms / n as f64);
    report.set(
        "unaccounted_ms",
        mean(&latencies[..n.min(latencies.len())]) - critical_ms,
    );
    report.note(format!(
        "  in-process shard replay of {n} requests: blocking path {critical_ms:.1} ms per request"
    ));
    ctx.write_spans("fleet-split", &t)
}

/// What the fleet does per request, sequentially in one process: plan the
/// shards for the fleet's worker count, execute each shard, merge, encode.
fn replay(t: &mut Tracer, bodies: &[String]) {
    let cfg = ExecConfig::new(1);
    for (i, body) in bodies.iter().enumerate() {
        let id = i as u64;
        t.span("request", id, |t| {
            let req = AnalysisRequest::from_json(body)
                .and_then(|r| r.canonicalize())
                .expect("request decodes");
            let mut shards = Vec::new();
            for part in shard::plan(&req, WORKERS) {
                let shard_req = ShardRequest {
                    base: req.clone(),
                    part,
                };
                shards.push(
                    t.span("dist.shard", id, |_| execute_shard(&shard_req, &cfg))
                        .expect("shard executes"),
                );
            }
            let merged = t
                .span("dist.merge", id, |_| shard::merge(&req, shards))
                .expect("shards merge");
            std::hint::black_box(t.span("api.encode", id, |_| merged.to_json()));
        });
    }
}
