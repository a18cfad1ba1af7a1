//! Deterministic synthetic trace families for the non-SWF formats.
//!
//! The registry's reproduction suites synthesize SWF workloads from the
//! paper's models (`wl-logsynth` / `wl-repro`); this module plays the same
//! role for the new formats so everything stays testable offline: five grid
//! sites emitted as GWF text and four web servers emitted as Common Log
//! Format text. Generators write *text* and the suites parse it back
//! through the real adapters, so every synthetic dataset exercises the full
//! ingestion path end-to-end.
//!
//! Determinism contract (same as the model generators): one `StdRng` seeded
//! via `derive_seed(seed, stream)` per site/server, every sample drawn in a
//! fixed order, timestamps anchored at a fixed 1999-01-01 UTC epoch — so
//! equal seeds give byte-identical text on every thread count and platform.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write;

use rand::prelude::*;
use wl_stats::rng::{derive_seed, seeded_rng};

use crate::gwf::write_gwf;
use crate::record::{JobRecord, JobStatus, QUEUE_BATCH};
use crate::trace::{
    AllocationFlexibility, NormalizedTrace, SchedulerFlexibility, TraceMeta,
};
use crate::weblog::push_clf_time;
use crate::TraceFormat;

/// Seconds since the Unix epoch for 1999-01-01 00:00:00 UTC — the fixed
/// origin of every synthetic web log (the paper's year).
pub const BASE_EPOCH: f64 = 915_148_800.0;

/// Seed-stream offset for the grid family (`derive_seed(seed, 2000 + k)`);
/// the reproduction model suites use 1000+k, the web family 3000+k, so the
/// families never share a stream.
const GRID_STREAM: u64 = 2000;
const WEB_STREAM: u64 = 3000;

struct GridSite {
    name: &'static str,
    processors: u64,
    scheduler: SchedulerFlexibility,
    allocation: AllocationFlexibility,
    /// Mean inter-arrival time, seconds.
    mean_arrival: f64,
    /// Lognormal runtime parameters (of ln seconds).
    run_mu: f64,
    run_sigma: f64,
    /// Probability a job is serial; parallel jobs draw a power of two.
    serial_p: f64,
    max_pow: u32,
    users: u64,
    executables: u64,
}

/// Five synthetic grid sites, loosely shaped after the Grid Workloads
/// Archive population: mostly-serial bags of tasks on small sites, wider
/// parallel jobs on the large ones.
const GRID_SITES: [GridSite; 5] = [
    GridSite {
        name: "DAS2",
        processors: 144,
        scheduler: SchedulerFlexibility::BatchQueue,
        allocation: AllocationFlexibility::Unlimited,
        mean_arrival: 90.0,
        run_mu: 4.5,
        run_sigma: 1.6,
        serial_p: 0.55,
        max_pow: 6,
        users: 32,
        executables: 12,
    },
    GridSite {
        name: "Grid5K",
        processors: 512,
        scheduler: SchedulerFlexibility::Backfilling,
        allocation: AllocationFlexibility::Unlimited,
        mean_arrival: 60.0,
        run_mu: 5.0,
        run_sigma: 1.8,
        serial_p: 0.40,
        max_pow: 8,
        users: 64,
        executables: 20,
    },
    GridSite {
        name: "NorduGrid",
        processors: 96,
        scheduler: SchedulerFlexibility::BatchQueue,
        allocation: AllocationFlexibility::Limited,
        mean_arrival: 120.0,
        run_mu: 6.0,
        run_sigma: 1.5,
        serial_p: 0.70,
        max_pow: 4,
        users: 24,
        executables: 10,
    },
    GridSite {
        name: "AuverGrid",
        processors: 475,
        scheduler: SchedulerFlexibility::BatchQueue,
        allocation: AllocationFlexibility::Unlimited,
        mean_arrival: 150.0,
        run_mu: 5.5,
        run_sigma: 1.7,
        serial_p: 0.80,
        max_pow: 5,
        users: 16,
        executables: 8,
    },
    GridSite {
        name: "SHARCNET",
        processors: 3072,
        scheduler: SchedulerFlexibility::Backfilling,
        allocation: AllocationFlexibility::Unlimited,
        mean_arrival: 45.0,
        run_mu: 4.8,
        run_sigma: 2.0,
        serial_p: 0.50,
        max_pow: 7,
        users: 96,
        executables: 30,
    },
];

struct WebServer {
    name: &'static str,
    hosts: u64,
    sections: u64,
    /// Mean inter-arrival time between session starts, seconds.
    mean_arrival: f64,
    /// Probability a session issues another request after each one.
    continue_p: f64,
    /// Lognormal response-size parameters (of ln bytes).
    bytes_mu: f64,
    bytes_sigma: f64,
}

/// Four synthetic web servers with different client populations and
/// session depths.
const WEB_SERVERS: [WebServer; 4] = [
    WebServer {
        name: "wwwA",
        hosts: 40,
        sections: 6,
        mean_arrival: 20.0,
        continue_p: 0.60,
        bytes_mu: 8.5,
        bytes_sigma: 1.2,
    },
    WebServer {
        name: "wwwB",
        hosts: 120,
        sections: 10,
        mean_arrival: 8.0,
        continue_p: 0.70,
        bytes_mu: 9.0,
        bytes_sigma: 1.0,
    },
    WebServer {
        name: "wwwC",
        hosts: 25,
        sections: 4,
        mean_arrival: 45.0,
        continue_p: 0.50,
        bytes_mu: 8.0,
        bytes_sigma: 1.5,
    },
    WebServer {
        name: "wwwD",
        hosts: 60,
        sections: 8,
        mean_arrival: 15.0,
        continue_p: 0.65,
        bytes_mu: 8.8,
        bytes_sigma: 1.1,
    },
];

/// Number of synthetic grid sites.
pub const GRID_SITE_COUNT: usize = GRID_SITES.len();
/// Number of synthetic web servers.
pub const WEB_SERVER_COUNT: usize = WEB_SERVERS.len();

/// Name of grid site `site` (panics when out of range).
pub fn grid_site_name(site: usize) -> &'static str {
    GRID_SITES[site].name
}

/// Name of web server `server` (panics when out of range).
pub fn web_server_name(server: usize) -> &'static str {
    WEB_SERVERS[server].name
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

// Lognormal via Box-Muller; the vendored rand subset has no distributions
// module.
fn lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// Synthesize grid site `site` as GWF text with `jobs` jobs.
/// Fully determined by `(site, jobs, seed)`.
pub fn grid_site_text(site: usize, jobs: usize, seed: u64) -> String {
    let s = &GRID_SITES[site];
    let mut rng = seeded_rng(derive_seed(seed, GRID_STREAM + site as u64));
    let mut submit = 0.0;
    let records: Vec<JobRecord> = (0..jobs)
        .map(|i| {
            submit += exp_sample(&mut rng, s.mean_arrival);
            let mut j = JobRecord::new(i as u64 + 1, submit.floor());
            j.wait_time = exp_sample(&mut rng, 30.0).floor();
            j.run_time = lognormal(&mut rng, s.run_mu, s.run_sigma).ceil().min(1e7);
            let procs = if rng.gen_bool(s.serial_p) {
                1u64
            } else {
                1u64 << rng.gen_range(1..=s.max_pow)
            };
            j.used_procs = procs.min(s.processors) as i64;
            j.avg_cpu_time = (j.run_time * rng.gen_range(0.5f64..1.0)).floor();
            j.requested_procs = j.used_procs;
            j.requested_time = (j.run_time * rng.gen_range(1.0f64..3.0)).ceil();
            j.status = if rng.gen_bool(0.92) {
                JobStatus::Completed
            } else {
                JobStatus::Failed
            };
            j.user_id = rng.gen_range(0..s.users) as i64;
            j.group_id = j.user_id % 8;
            j.executable_id = rng.gen_range(0..s.executables) as i64;
            j.queue = QUEUE_BATCH;
            j
        })
        .collect();
    let trace = NormalizedTrace::new(
        s.name,
        TraceMeta::new(s.processors, s.scheduler, s.allocation),
        records,
    );
    write_gwf(&trace)
}

/// Synthesize web server `server` as Common Log Format text with `sessions`
/// client sessions. Fully determined by `(server, sessions, seed)`.
///
/// The log is ordered by request time, ties in generation order, like a
/// real server's. Lines are written as soon as no later session can sort
/// before them: sessions start in non-decreasing time and a session's
/// requests never precede its start, so when session k starts at second
/// `s`, every pending line at or before `s` comes first. Only the lines
/// of sessions still open wait, as fields rather than text.
pub fn web_server_text(server: usize, sessions: usize, seed: u64) -> String {
    let s = &WEB_SERVERS[server];
    let mut rng = seeded_rng(derive_seed(seed, WEB_STREAM + server as u64));
    let mut out = format!("# Server: {}\n", s.name);
    let mut pending: BinaryHeap<Reverse<WebLine>> = BinaryHeap::new();
    let mut index = 0;
    let mut start = BASE_EPOCH;
    for _ in 0..sessions {
        start += exp_sample(&mut rng, s.mean_arrival);
        let host = rng.gen_range(0..s.hosts);
        let mut t = start.floor() as i64;
        while let Some(Reverse(line)) = pending.peek() {
            if line.t > t {
                break;
            }
            push_web_line(&mut out, s.name, line);
            pending.pop();
        }
        let mut depth = 0usize;
        loop {
            let section = rng.gen_range(0..s.sections);
            let page = rng.gen_range(0..30u32);
            let status = if rng.gen_bool(0.95) {
                200
            } else if rng.gen_bool(0.5) {
                404
            } else {
                500
            };
            let bytes = if rng.gen_bool(0.05) {
                None
            } else {
                Some(lognormal(&mut rng, s.bytes_mu, s.bytes_sigma) as u64)
            };
            pending.push(Reverse(WebLine {
                t,
                index,
                host,
                section,
                page,
                status,
                bytes,
            }));
            index += 1;
            depth += 1;
            if !rng.gen_bool(s.continue_p) || depth >= 50 {
                break;
            }
            // Intra-session think time stays under the 30s session cutoff.
            t += rng.gen_range(1i64..15);
        }
    }
    while let Some(Reverse(line)) = pending.pop() {
        push_web_line(&mut out, s.name, &line);
    }
    out
}

/// One generated request, waiting for its place in the log. Lines order by
/// `(t, index)`: request time, then generation order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct WebLine {
    t: i64,
    index: usize,
    host: u64,
    section: u64,
    page: u32,
    status: u16,
    bytes: Option<u64>,
}

fn push_web_line(out: &mut String, server: &str, line: &WebLine) {
    write!(out, "host{:03}.{server}.example.com - - ", line.host)
        .expect("a String takes every write");
    push_clf_time(out, line.t);
    write!(
        out,
        " \"GET /sec{}/page{}.html HTTP/1.0\" {} ",
        line.section, line.page, line.status
    )
    .expect("a String takes every write");
    match line.bytes {
        Some(bytes) => writeln!(out, "{bytes}").expect("a String takes every write"),
        None => out.push_str("-\n"),
    }
}

fn default_web_meta() -> TraceMeta {
    TraceMeta::new(
        1,
        SchedulerFlexibility::BatchQueue,
        AllocationFlexibility::Unlimited,
    )
}

/// Synthesize all grid sites with `jobs` jobs each, ingest them through
/// the real GWF adapter in parallel, and hand each trace by value to
/// `reduce` in the worker that parsed it (`|t| t` keeps every trace).
/// Deterministic across thread counts.
pub fn grid_suite<R, F>(jobs: usize, seed: u64, threads: usize, reduce: F) -> Vec<R>
where
    R: Send,
    F: Fn(NormalizedTrace) -> R + Sync,
{
    let sites: Vec<usize> = (0..GRID_SITE_COUNT).collect();
    wl_par::par_map(threads, &sites, |&site| {
        // The text is a temporary of this statement: it is freed before
        // `reduce` runs.
        let trace = TraceFormat::Gwf
            .source()
            .read(
                grid_site_name(site),
                &grid_site_text(site, jobs, seed),
                default_web_meta(),
            )
            .expect("synthetic GWF text must parse");
        reduce(trace)
    })
}

/// Synthesize all web servers with `sessions` sessions each, ingest them
/// through the real access-log adapter in parallel, and hand each trace by
/// value to `reduce` in the worker that parsed it. Deterministic across
/// thread counts.
pub fn web_suite<R, F>(sessions: usize, seed: u64, threads: usize, reduce: F) -> Vec<R>
where
    R: Send,
    F: Fn(NormalizedTrace) -> R + Sync,
{
    let servers: Vec<usize> = (0..WEB_SERVER_COUNT).collect();
    wl_par::par_map(threads, &servers, |&server| {
        let trace = TraceFormat::Weblog
            .source()
            .read(
                web_server_name(server),
                &web_server_text(server, sessions, seed),
                default_web_meta(),
            )
            .expect("synthetic CLF text must parse");
        reduce(trace)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gwf::parse_gwf;
    use crate::weblog::{fmt_clf_time, parse_weblog};

    /// The generator as it was before it wrote lines in order: every line
    /// as its own string with its sort key, sorted, then joined. Kept as
    /// the oracle [`web_server_text`] must match byte for byte.
    fn web_server_text_oracle(server: usize, sessions: usize, seed: u64) -> String {
        let s = &WEB_SERVERS[server];
        let mut rng = seeded_rng(derive_seed(seed, WEB_STREAM + server as u64));
        let mut lines: Vec<(i64, usize, String)> = Vec::new();
        let mut start = BASE_EPOCH;
        for _ in 0..sessions {
            start += exp_sample(&mut rng, s.mean_arrival);
            let host = format!(
                "host{:03}.{}.example.com",
                rng.gen_range(0..s.hosts),
                s.name
            );
            let mut t = start.floor() as i64;
            let mut depth = 0usize;
            loop {
                let section = rng.gen_range(0..s.sections);
                let page = rng.gen_range(0..30u32);
                let status = if rng.gen_bool(0.95) {
                    200
                } else if rng.gen_bool(0.5) {
                    404
                } else {
                    500
                };
                let bytes = if rng.gen_bool(0.05) {
                    "-".to_string()
                } else {
                    format!("{}", lognormal(&mut rng, s.bytes_mu, s.bytes_sigma) as u64)
                };
                lines.push((
                    t,
                    lines.len(),
                    format!(
                        "{host} - - {} \"GET /sec{section}/page{page}.html HTTP/1.0\" {status} {bytes}",
                        fmt_clf_time(t as f64)
                    ),
                ));
                depth += 1;
                if !rng.gen_bool(s.continue_p) || depth >= 50 {
                    break;
                }
                t += rng.gen_range(1i64..15);
            }
        }
        lines.sort_by_key(|l| (l.0, l.1));
        let mut out = format!("# Server: {}\n", s.name);
        for (_, _, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn web_text_matches_the_sorting_oracle() {
        let mut rng = seeded_rng(31);
        for case in 0..48 {
            let server = case % WEB_SERVER_COUNT;
            let sessions = match case {
                0..=3 => case,
                _ => rng.gen_range(0..600),
            };
            let seed = rng.gen_range(0..u64::MAX);
            assert_eq!(
                web_server_text(server, sessions, seed),
                web_server_text_oracle(server, sessions, seed),
                "server {server}, {sessions} sessions, seed {seed}"
            );
        }
    }

    #[test]
    fn grid_text_is_deterministic_and_strictly_parseable() {
        let a = grid_site_text(0, 50, 1999);
        let b = grid_site_text(0, 50, 1999);
        assert_eq!(a, b);
        let doc = parse_gwf(&a).expect("synthetic GWF parses strictly");
        assert_eq!(doc.jobs.len(), 50);
        // Different seed, different text.
        assert_ne!(a, grid_site_text(0, 50, 7));
        // Different site, different text.
        assert_ne!(a, grid_site_text(1, 50, 1999));
    }

    #[test]
    fn web_text_is_deterministic_and_strictly_parseable() {
        let a = web_server_text(0, 40, 1999);
        let b = web_server_text(0, 40, 1999);
        assert_eq!(a, b);
        let doc = parse_weblog(&a).expect("synthetic CLF parses strictly");
        assert!(doc.requests.len() >= 40); // at least one request per session
        assert_ne!(a, web_server_text(0, 40, 7));
        assert_ne!(a, web_server_text(1, 40, 1999));
    }

    #[test]
    fn web_log_is_time_ordered() {
        let text = web_server_text(1, 30, 3);
        let doc = parse_weblog(&text).unwrap();
        assert!(doc
            .requests
            .windows(2)
            .all(|p| p[0].time <= p[1].time));
    }

    #[test]
    fn suites_are_bit_identical_across_thread_counts() {
        let g1 = grid_suite(60, 1999, 1, |t| t);
        let g8 = grid_suite(60, 1999, 8, |t| t);
        assert_eq!(g1, g8);
        let w1 = web_suite(40, 1999, 1, |t| t);
        let w8 = web_suite(40, 1999, 8, |t| t);
        assert_eq!(w1, w8);
        for (a, b) in g1.iter().zip(&g8) {
            assert_eq!(a.canonical_digest(), b.canonical_digest());
        }
    }

    #[test]
    fn suites_have_advertised_shapes() {
        let grids = grid_suite(25, 7, 2, |t| t);
        assert_eq!(grids.len(), GRID_SITE_COUNT);
        for (k, g) in grids.iter().enumerate() {
            assert_eq!(g.name, grid_site_name(k));
            assert_eq!(g.len(), 25);
            assert_eq!(g.machine.processors, GRID_SITES[k].processors);
        }
        let webs = web_suite(30, 7, 2, |t| t);
        assert_eq!(webs.len(), WEB_SERVER_COUNT);
        for (k, w) in webs.iter().enumerate() {
            assert_eq!(w.name, web_server_name(k));
            // Sessions may merge when the same host draws overlapping
            // windows, so the job count is bounded by the session count.
            assert!(!w.is_empty() && w.len() <= 30);
            // Peak concurrency became the machine size.
            assert!(w.machine.processors >= 1);
        }
    }

    #[test]
    fn grid_sites_have_distinct_digests() {
        let grids = grid_suite(20, 11, 1, |t| t);
        let mut digests: Vec<u64> = grids.iter().map(|g| g.canonical_digest()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), GRID_SITE_COUNT);
    }
}
