//! `wl-serve` — the Co-plot analysis service.
//!
//! ```text
//! wl-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!          [--deadline-ms N] [--idle-timeout-ms N] [--batch-max N]
//!          [--stdin-shutdown]
//!          [--threads N] [--trace text|json] [--metrics-out PATH]
//! ```
//!
//! Prints `wl-serve listening on http://HOST:PORT` once bound (scripts
//! parse this line to learn an ephemeral port), then serves until drained
//! via `POST /v1/shutdown` or — with `--stdin-shutdown` — a single byte on
//! stdin.

use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

use wl_serve::dist::CoordinatorConfig;
use wl_serve::server::{start, ServerConfig};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let rt = match coplot::Runtime::extract(&mut args) {
        Ok(rt) => rt,
        Err(e) => return fail(&e.to_string()),
    };
    let session = match rt.obs_session() {
        Ok(s) => s,
        Err(e) => return fail(&e.to_string()),
    };

    let mut config = ServerConfig {
        threads: rt.threads,
        ..ServerConfig::default()
    };
    let mut stdin_shutdown = false;
    let mut coordinator = false;
    let mut fleet_workers: Vec<String> = Vec::new();
    let mut probe_interval_ms: u64 = CoordinatorConfig::default().probe_interval_ms;
    let mut register_with: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--stdin-shutdown" => {
                stdin_shutdown = true;
                i += 1;
                continue;
            }
            "--coordinator" => {
                coordinator = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" | "--workers" | "--queue" | "--cache" | "--deadline-ms"
            | "--idle-timeout-ms" | "--batch-max" | "--worker" | "--probe-interval-ms"
            | "--register" => {}
            other => return fail(&format!("unknown flag {other:?}\n{USAGE}")),
        }
        let Some(value) = args.get(i + 1) else {
            return fail(&format!("flag {flag} needs a value"));
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--worker" => fleet_workers.push(value.clone()),
            "--probe-interval-ms" => match value.parse() {
                Ok(n) if n > 0 => probe_interval_ms = n,
                _ => return fail("--probe-interval-ms needs a positive integer"),
            },
            "--register" => register_with = Some(value.clone()),
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => return fail("--workers needs a positive integer"),
            },
            "--queue" => match value.parse() {
                Ok(n) if n > 0 => config.queue_capacity = n,
                _ => return fail("--queue needs a positive integer"),
            },
            "--cache" => match value.parse() {
                Ok(n) => config.cache_capacity = n,
                Err(_) => return fail("--cache needs an integer"),
            },
            "--deadline-ms" => match value.parse() {
                Ok(n) if n > 0 => config.default_deadline_ms = Some(n),
                _ => return fail("--deadline-ms needs a positive integer"),
            },
            "--idle-timeout-ms" => match value.parse() {
                Ok(n) if n > 0 => config.idle_timeout_ms = n,
                _ => return fail("--idle-timeout-ms needs a positive integer"),
            },
            "--batch-max" => match value.parse() {
                Ok(n) if n > 0 => config.batch_max = n,
                _ => return fail("--batch-max needs a positive integer"),
            },
            _ => unreachable!(),
        }
        i += 2;
    }

    if coordinator {
        config.coordinator = Some(CoordinatorConfig {
            workers: fleet_workers,
            probe_interval_ms,
        });
    } else if !fleet_workers.is_empty() {
        return fail("--worker requires --coordinator");
    }

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => return fail(&format!("cannot bind: {e}")),
    };
    println!("wl-serve listening on http://{}", handle.addr());
    let _ = std::io::stdout().flush();

    if let Some(coordinator_addr) = register_with {
        // Announce this worker to its coordinator in the background,
        // retrying while the coordinator is still coming up.
        let self_addr = handle.addr().to_string();
        std::thread::spawn(move || {
            for _ in 0..20 {
                if wl_serve::dist::wire::register_with(&coordinator_addr, &self_addr).is_ok() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            eprintln!("wl-serve: could not register with {coordinator_addr}");
        });
    }

    if stdin_shutdown {
        let drainer = handle.drainer();
        std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            // Drain on an actual byte, not on EOF: a server started with
            // stdin closed should keep running.
            if matches!(std::io::stdin().read(&mut byte), Ok(n) if n > 0) {
                drainer.initiate();
            }
        });
    }

    handle.join();
    eprintln!("wl-serve: drained, exiting");
    session.finish();
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("wl-serve: {msg}");
    ExitCode::FAILURE
}

const USAGE: &str = "wl-serve — Co-plot analysis service

USAGE:
  wl-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
           [--deadline-ms N] [--idle-timeout-ms N] [--batch-max N]
           [--stdin-shutdown]
           [--coordinator] [--worker HOST:PORT]... [--probe-interval-ms N]
           [--register HOST:PORT]
           [--threads N] [--trace text|json] [--metrics-out PATH]

  --addr HOST:PORT   bind address (default 127.0.0.1:1999; port 0 = ephemeral)
  --workers N        request worker threads (default 2)
  --queue N          admission queue capacity; full queue answers 503 (default 32)
  --cache N          result-cache entries, 0 disables (default 128)
  --deadline-ms N    default per-request deadline when the request has none
  --idle-timeout-ms N  evict idle connections (mid-request idlers get 408)
                     after this long (default 10000)
  --batch-max N      most same-dataset requests coalesced per batch (default 8)
  --stdin-shutdown   drain gracefully when a byte arrives on stdin
  --coordinator      run as a fleet coordinator: analyses are sharded across
                     registered workers (results byte-identical to one node)
  --worker H:P       (with --coordinator, repeatable) a worker address; more
                     may register at runtime via POST /v2/workers
  --probe-interval-ms N  coordinator health-probe period (default 1000)
  --register H:P     announce this server to a coordinator after binding
  --threads N        engine threads per request (default WL_THREADS, then
                     the available parallelism)
  --trace/--metrics-out  wl-obs session flags (also scraped live at /metrics)

Endpoints: POST /v1/coplot /v1/hurst /v1/subset /v1/stream /v1/shutdown
           POST /v2/analyze /v2/shard /v2/workers;
           GET /v1/datasets /v2/fleet /metrics /healthz";
