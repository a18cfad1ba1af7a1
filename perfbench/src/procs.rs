//! Processes under test: spawning `wl-serve` on an ephemeral port,
//! waiting for it to be healthy, scraping `GET /metrics`, reading its peak
//! memory, and draining it through `POST /v1/shutdown`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wl_obs::parse_json;
use wl_serve::http::http_call;

/// How long a server may take to drain after `/v1/shutdown`.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// A running `wl-serve` process. Dropping it kills and reaps the process;
/// [`Server::shutdown`] is the orderly way out.
pub struct Server {
    child: Child,
    /// `HOST:PORT` it listens on.
    pub addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `wl-serve` with `args` (plus `--addr 127.0.0.1:0`) in `dir`
    /// and wait for its `listening on` line.
    ///
    /// # Errors
    /// The process cannot start or exits before announcing its address.
    pub fn spawn(bin: &Path, args: &[String], dir: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("wl-serve listening on http://")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("wl-serve {args:?} did not announce an address"))
            }
        }
    }

    /// Poll `path` until it answers 200.
    ///
    /// # Errors
    /// No 200 within `limit`.
    pub fn wait_ready(
        &self,
        path: &str,
        limit: Duration,
        ready: impl Fn(&str) -> bool,
    ) -> Result<(), String> {
        let start = Instant::now();
        while start.elapsed() < limit {
            if let Ok((200, _, body)) = http_call(&self.addr, "GET", path, None) {
                if ready(&body) {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!(
            "{} not ready on {path} within {limit:?}",
            self.addr
        ))
    }

    /// Peak resident memory so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// Scrape `GET /metrics`.
    ///
    /// # Errors
    /// Transport failure or a non-200 answer.
    pub fn scrape(&self) -> Result<Scrape, String> {
        match http_call(&self.addr, "GET", "/metrics", None) {
            Ok((200, _, body)) => Ok(Scrape::parse(&body)),
            Ok((status, _, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }

    /// Drain through `POST /v1/shutdown` and wait for the process to exit.
    ///
    /// # Errors
    /// The request fails, or the process does not exit cleanly within the
    /// drain limit (it is then killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = http_call(&self.addr, "POST", "/v1/shutdown", None);
        let start = Instant::now();
        while start.elapsed() < DRAIN_LIMIT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.addr)),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("{}: {e}", self.addr)),
            }
        }
        Err(format!(
            "{} did not drain within {DRAIN_LIMIT:?}",
            self.addr
        ))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a live process, in MB; zero if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of the largest child process reaped so far, in MB
/// (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> f64 {
    /// The 64-bit Linux `struct rusage`: two `timeval`s, then fourteen
    /// `long`s, the first of which is `ru_maxrss` in KB.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // 64-bit Linux `struct rusage` (the crate builds only for such targets,
    // see main.rs), and RUSAGE_CHILDREN is a valid `who`; getrusage writes
    // only into the struct it is given.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) succeeds");
    usage.maxrss as f64 / 1024.0
}

/// Counters and histograms from one `/metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Counter values by name.
    pub counters: BTreeMap<String, f64>,
    /// Histogram `(count, sum)` by name.
    pub hists: BTreeMap<String, (f64, f64)>,
}

impl Scrape {
    /// Parse the JSON-lines body of `/metrics`; unknown lines are skipped.
    pub fn parse(body: &str) -> Scrape {
        let mut out = Scrape::default();
        for line in body.lines() {
            let Ok(v) = parse_json(line) else { continue };
            let (Some(kind), Some(name)) = (
                v.get("type").and_then(|t| t.as_str()),
                v.get("name").and_then(|n| n.as_str()),
            ) else {
                continue;
            };
            let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
            match kind {
                "counter" => {
                    out.counters.insert(name.to_string(), num("value"));
                }
                "histogram" => {
                    out.hists
                        .insert(name.to_string(), (num("count"), num("sum")));
                }
                _ => {}
            }
        }
        out
    }

    /// What changed since `before`: counter and histogram differences.
    pub fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v - before.counter(k)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, (c, s))| {
                    let (c0, s0) = before.hists.get(k).copied().unwrap_or_default();
                    (k.clone(), (c - c0, s - s0))
                })
                .collect(),
        }
    }

    /// A counter, zero when absent.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's mean, zero when absent or empty.
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(count, sum)) if count > 0.0 => sum / count,
            _ => 0.0,
        }
    }

    /// A histogram's `(count, sum)`, zero when absent.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        self.hists.get(name).copied().unwrap_or_default()
    }
}

/// `num / den`, zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parses_and_differences_metrics() {
        let before = Scrape::parse(concat!(
            "{\"type\":\"counter\",\"name\":\"serve.cache.hit\",\"value\":3}\n",
            "{\"type\":\"histogram\",\"name\":\"serve.latency_us.coplot\",\"count\":2,\"sum\":100,\"min\":20,\"max\":80,\"p50\":32,\"p99\":80}\n",
        ));
        let after = Scrape::parse(concat!(
            "{\"type\":\"counter\",\"name\":\"serve.cache.hit\",\"value\":9}\n",
            "{\"type\":\"counter\",\"name\":\"serve.cache.miss\",\"value\":2}\n",
            "{\"type\":\"gauge\",\"name\":\"serve.inflight\",\"value\":1}\n",
            "not json\n",
            "{\"type\":\"histogram\",\"name\":\"serve.latency_us.coplot\",\"count\":6,\"sum\":500,\"min\":20,\"max\":80,\"p50\":32,\"p99\":80}\n",
        ));
        let d = after.since(&before);
        assert_eq!(d.counter("serve.cache.hit"), 6.0);
        assert_eq!(d.counter("serve.cache.miss"), 2.0);
        assert_eq!(d.counter("absent"), 0.0);
        assert_eq!(d.hist("serve.latency_us.coplot"), (4.0, 400.0));
        assert_eq!(d.hist_mean("serve.latency_us.coplot"), 100.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        assert!(peak_rss_mb(std::process::id()) > 0.0);
    }
}
