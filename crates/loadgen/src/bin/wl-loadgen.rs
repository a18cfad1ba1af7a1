//! `wl-loadgen` — replay a synthesized arrival process against `wl-serve`.
//!
//! ```text
//! wl-loadgen --addr HOST:PORT [--requests N] [--connections N]
//!            [--process poisson|fgn:H] [--rate R] [--seed N]
//!            [--path /v1/coplot] [--body JSON] [--distinct N]
//!            [--timeout-ms N] [--expect-no-5xx] [--max-p99-ms N]
//! ```
//!
//! Prints the latency/status report to stdout. `--expect-no-5xx` and
//! `--max-p99-ms` turn the run into a pass/fail check for CI.

use std::process::ExitCode;
use std::time::Duration;

use wl_loadgen::{run_load, v2_envelope_template, ArrivalProcess, LoadOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut opts = LoadOptions::default();
    let mut expect_no_5xx = false;
    let mut max_p99_ms: Option<u64> = None;
    let mut api_v2 = false;
    let mut explicit_path = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--expect-no-5xx" => {
                expect_no_5xx = true;
                i += 1;
                continue;
            }
            "--addr" | "--requests" | "--connections" | "--process" | "--rate" | "--seed"
            | "--path" | "--body" | "--distinct" | "--timeout-ms" | "--max-p99-ms" | "--api" => {}
            other => return fail(&format!("unknown flag {other:?}\n{USAGE}")),
        }
        let Some(value) = args.get(i + 1) else {
            return fail(&format!("flag {flag} needs a value"));
        };
        match flag {
            "--addr" => addr = Some(value.clone()),
            "--requests" => match value.parse() {
                Ok(n) if n > 0 => opts.requests = n,
                _ => return fail("--requests needs a positive integer"),
            },
            "--connections" => match value.parse() {
                Ok(n) if n > 0 => opts.connections = n,
                _ => return fail("--connections needs a positive integer"),
            },
            "--process" => match ArrivalProcess::from_flag(value) {
                Some(p) => opts.process = p,
                None => return fail("--process must be `poisson` or `fgn:H` with 0 < H < 1"),
            },
            "--rate" => match value.parse() {
                Ok(r) if r > 0.0 => opts.rate_per_sec = r,
                _ => return fail("--rate needs a positive number (req/s)"),
            },
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return fail("--seed needs an integer"),
            },
            "--path" => {
                opts.path = value.clone();
                explicit_path = true;
            }
            "--api" => match value.as_str() {
                "v1" => api_v2 = false,
                "v2" => api_v2 = true,
                _ => return fail("--api must be `v1` or `v2`"),
            },
            "--body" => opts.body = value.clone(),
            "--distinct" => match value.parse() {
                Ok(n) if n > 0 => opts.distinct = n,
                _ => return fail("--distinct needs a positive integer"),
            },
            "--timeout-ms" => match value.parse() {
                Ok(ms) if ms > 0 => opts.timeout = Duration::from_millis(ms),
                _ => return fail("--timeout-ms needs a positive integer"),
            },
            "--max-p99-ms" => match value.parse() {
                Ok(ms) => max_p99_ms = Some(ms),
                Err(_) => return fail("--max-p99-ms needs an integer"),
            },
            _ => unreachable!(),
        }
        i += 2;
    }

    let Some(addr) = addr else {
        return fail(&format!("--addr is required\n{USAGE}"));
    };
    if api_v2 {
        // Wrap the (possibly `{seed}`-templated) v1 body in the versioned
        // envelope and aim at the dispatch endpoint unless --path overrode it.
        match v2_envelope_template(&opts.body) {
            Some(wrapped) => opts.body = wrapped,
            None => return fail("--api v2 needs a body template with an \"op\" field"),
        }
        if !explicit_path {
            opts.path = "/v2/analyze".into();
        }
    }
    let report = match run_load(&addr, &opts) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot reach {addr}: {e}")),
    };
    println!("{}", report.render());

    let mut failed = false;
    if expect_no_5xx && report.server_errors > 0 {
        eprintln!("wl-loadgen: FAIL — {} 5xx responses", report.server_errors);
        failed = true;
    }
    if expect_no_5xx && report.transport_errors > 0 {
        eprintln!(
            "wl-loadgen: FAIL — {} transport errors",
            report.transport_errors
        );
        failed = true;
    }
    if let Some(bound) = max_p99_ms {
        let (_, p99, _) = report.percentiles();
        if p99 > Duration::from_millis(bound) {
            eprintln!(
                "wl-loadgen: FAIL — p99 {:.2}ms exceeds bound {bound}ms",
                p99.as_secs_f64() * 1e3
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("wl-loadgen: {msg}");
    ExitCode::FAILURE
}

const USAGE: &str = "wl-loadgen — arrival-process load generator for wl-serve

USAGE:
  wl-loadgen --addr HOST:PORT [--requests N] [--connections N]
             [--process poisson|fgn:H] [--rate R] [--seed N]
             [--path /v1/coplot] [--body JSON] [--distinct N] [--api v1|v2]
             [--timeout-ms N] [--expect-no-5xx] [--max-p99-ms N]

  --addr HOST:PORT  target server (required)
  --requests N      total requests (default 100)
  --connections N   keep-alive connections (default 4)
  --process P       arrival model: `poisson` or `fgn:H` (default poisson);
                    fgn:0.8 reproduces the bursty long-range-dependent
                    arrivals the source paper measures in real logs
  --rate R          mean arrival rate in req/s (default 50)
  --seed N          schedule seed — same seed, same schedule (default 1)
  --path P          endpoint (default /v1/coplot)
  --body JSON       body template; `{seed}` cycles 0..distinct (default a
                    models-dataset coplot request)
  --distinct N      distinct `{seed}` values; 1 = maximal sharing
                    (default 1)
  --api v1|v2       v2 wraps the body template in the versioned envelope
                    and targets POST /v2/analyze (default v1; an explicit
                    --path still wins)
  --timeout-ms N    per-call socket timeout (default 60000)
  --expect-no-5xx   exit 1 on any 5xx or transport error
  --max-p99-ms N    exit 1 when p99 latency exceeds N ms";
