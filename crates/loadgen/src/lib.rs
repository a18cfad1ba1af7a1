//! `wl-loadgen`: drive a running `wl-serve` with synthesized arrival
//! processes and measure the latency distribution.
//!
//! The paper's subject is exactly the statistical structure of arrivals
//! at parallel machines — Poisson models versus the self-similar,
//! long-range-dependent arrivals real logs show. This crate turns those
//! same two models into *load* on the serving layer:
//!
//! * [`ArrivalProcess::Poisson`] — i.i.d. exponential inter-arrivals, the
//!   memoryless baseline every queueing result assumes;
//! * [`ArrivalProcess::Fgn`] — inter-arrivals modulated by fractional
//!   Gaussian noise (the workspace's own Davies–Harte generator,
//!   [`wl_selfsim::FgnDaviesHarte`]), whose positive long-range
//!   correlation produces the bursts-of-bursts pattern that stresses
//!   admission control far harder than Poisson at the same mean rate.
//!
//! Schedules are deterministic functions of `(process, rate, n, seed)`,
//! so a measured run is replayable. Requests fan out over `connections`
//! keep-alive sockets ([`wl_serve::http::HttpClient`]) round-robin; each
//! connection sends its requests in schedule order, waiting out the gap
//! to each request's scheduled offset (open-loop between connections, but
//! a slow response delays that connection's later sends — mixed-loop, the
//! honest behavior of a finite client pool). The report aggregates
//! status-class counts and nearest-rank latency percentiles.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;
use wl_selfsim::FgnDaviesHarte;
use wl_serve::http::HttpClient;
use wl_stats::seeded_rng;

/// The arrival model driving request send times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times.
    Poisson,
    /// Long-range-dependent arrivals: inter-arrival times modulated by
    /// fractional Gaussian noise with this Hurst parameter (0.5 < H < 1
    /// gives persistent bursts; H = 0.5 degenerates to uncorrelated
    /// noise).
    Fgn {
        /// Hurst parameter of the modulating noise.
        hurst: f64,
    },
}

impl ArrivalProcess {
    /// Parse a `--process` flag value (`poisson` or `fgn:H`, e.g.
    /// `fgn:0.8`).
    pub fn from_flag(value: &str) -> Option<ArrivalProcess> {
        if value == "poisson" {
            return Some(ArrivalProcess::Poisson);
        }
        let hurst = value.strip_prefix("fgn:")?.parse().ok()?;
        if (0.0..1.0).contains(&hurst) {
            Some(ArrivalProcess::Fgn { hurst })
        } else {
            None
        }
    }
}

/// Offsets (from an arbitrary start instant) at which to send `n`
/// requests, at a mean rate of `rate_per_sec`. Deterministic in all
/// arguments.
pub fn schedule(
    process: ArrivalProcess,
    rate_per_sec: f64,
    n: usize,
    seed: u64,
) -> Vec<Duration> {
    let mean_gap = 1.0 / rate_per_sec.max(1e-9);
    let mut rng = seeded_rng(seed);
    let gaps: Vec<f64> = match process {
        ArrivalProcess::Poisson => (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>();
                // Inverse-CDF; 1-u keeps the argument in (0, 1].
                -(1.0 - u).ln() * mean_gap
            })
            .collect(),
        ArrivalProcess::Fgn { hurst } => {
            // Unit-variance fGn modulates the gap around its mean; the
            // clamp keeps gaps nonnegative (bursts = runs of near-zero
            // gaps, which persistent correlation strings together).
            let noise = match FgnDaviesHarte::new(hurst, n.max(2)) {
                Ok(g) => g.generate(&mut rng),
                Err(_) => vec![0.0; n],
            };
            noise
                .into_iter()
                .take(n)
                .map(|g| (mean_gap * (1.0 + 0.8 * g)).max(0.0))
                .collect()
        }
    };
    let mut at = 0.0;
    gaps.into_iter()
        .map(|gap| {
            at += gap;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Wrap a v1 body *template* in the versioned v2 envelope
/// (`{"api_version":2,"op":...,"body":...}`) targeted at `/v2/analyze`.
/// Works on templates, not parsed JSON, because templates may contain the
/// `{seed}` placeholder; the envelope's `op` is lifted from the first
/// `"op":"..."` in the template. `None` when no op can be found.
pub fn v2_envelope_template(template: &str) -> Option<String> {
    let at = template.find("\"op\"")?;
    let rest = template[at + 4..].trim_start().strip_prefix(':')?.trim_start();
    let label = rest.strip_prefix('"')?;
    let end = label.find('"')?;
    let op = &label[..end];
    if op.is_empty() {
        return None;
    }
    Some(format!(
        "{{\"api_version\":2,\"op\":\"{op}\",\"body\":{template}}}"
    ))
}

/// Nearest-rank percentile of an unsorted latency sample (q in [0, 100]).
/// Empty input reports zero.
pub fn percentile_duration(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One load run's parameters.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Total requests to send.
    pub requests: usize,
    /// Keep-alive connections to spread them over.
    pub connections: usize,
    /// Arrival model.
    pub process: ArrivalProcess,
    /// Mean arrival rate, requests per second.
    pub rate_per_sec: f64,
    /// Schedule seed (also varies request bodies, see `distinct`).
    pub seed: u64,
    /// Endpoint path, e.g. `/v1/coplot`.
    pub path: String,
    /// Request body template; `{seed}` is replaced by `request index %
    /// distinct`, controlling how many distinct datasets the run touches
    /// (1 = everything cache/batch-coalesces, large = mostly misses).
    pub body: String,
    /// Distinct `{seed}` substitutions to cycle through.
    pub distinct: u64,
    /// Per-call socket timeout.
    pub timeout: Duration,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            requests: 100,
            connections: 4,
            process: ArrivalProcess::Poisson,
            rate_per_sec: 50.0,
            seed: 1,
            path: "/v1/coplot".into(),
            body: "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":{seed}}"
                .into(),
            distinct: 1,
            timeout: Duration::from_secs(60),
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests attempted.
    pub sent: usize,
    /// 2xx responses.
    pub ok: usize,
    /// 4xx responses.
    pub client_errors: usize,
    /// 5xx responses (503 included — backpressure counts as shed load).
    pub server_errors: usize,
    /// Transport failures (connect/timeout/parse) that survived one
    /// reconnect-and-resend; clean keep-alive closes are retried, not
    /// counted.
    pub transport_errors: usize,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Per-request latencies (successful responses only, any status).
    pub latencies: Vec<Duration>,
}

impl LoadReport {
    /// Achieved request throughput over the run.
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / secs
    }

    /// The standard percentile row: p50 / p99 / p999.
    pub fn percentiles(&self) -> (Duration, Duration, Duration) {
        (
            percentile_duration(&self.latencies, 50.0),
            percentile_duration(&self.latencies, 99.0),
            percentile_duration(&self.latencies, 99.9),
        )
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let (p50, p99, p999) = self.percentiles();
        let max = self.latencies.iter().max().copied().unwrap_or_default();
        format!(
            "sent {} in {:.2}s ({:.1} req/s)\n\
             status  2xx {}  4xx {}  5xx {}  transport-errors {}\n\
             latency p50 {:.2}ms  p99 {:.2}ms  p999 {:.2}ms  max {:.2}ms",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.throughput_per_sec(),
            self.ok,
            self.client_errors,
            self.server_errors,
            self.transport_errors,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            p999.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
        )
    }
}

/// Run one load test against `addr` (e.g. `127.0.0.1:1999`).
///
/// # Errors
/// Only setup failures (no connection could be established at all);
/// per-request transport errors are tallied in the report instead.
pub fn run_load(addr: &str, opts: &LoadOptions) -> io::Result<LoadReport> {
    let offsets = Arc::new(schedule(
        opts.process,
        opts.rate_per_sec,
        opts.requests,
        opts.seed,
    ));
    let connections = opts.connections.clamp(1, opts.requests.max(1));
    // Fail fast if the server is unreachable; worker connections report
    // per-request instead.
    HttpClient::connect(addr)?;

    let started = Instant::now();
    let transport_errors = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::with_capacity(connections);
    for worker in 0..connections {
        let offsets = Arc::clone(&offsets);
        let transport_errors = Arc::clone(&transport_errors);
        let addr = addr.to_string();
        let opts = opts.clone();
        handles.push(std::thread::spawn(move || {
            sender_loop(&addr, &opts, worker, connections, &offsets, started, &transport_errors)
        }));
    }

    let mut ok = 0;
    let mut client_errors = 0;
    let mut server_errors = 0;
    let mut latencies = Vec::with_capacity(opts.requests);
    for handle in handles {
        let outcomes = handle.join().unwrap_or_default();
        for (status, latency) in outcomes {
            match status / 100 {
                2 => ok += 1,
                4 => client_errors += 1,
                5 => server_errors += 1,
                _ => {}
            }
            latencies.push(latency);
        }
    }
    Ok(LoadReport {
        sent: opts.requests,
        ok,
        client_errors,
        server_errors,
        transport_errors: transport_errors.load(Ordering::SeqCst) as usize,
        elapsed: started.elapsed(),
        latencies,
    })
}

/// One connection's sends: requests `worker, worker + stride, ...` of the
/// schedule, each no earlier than its scheduled offset.
fn sender_loop(
    addr: &str,
    opts: &LoadOptions,
    worker: usize,
    stride: usize,
    offsets: &[Duration],
    started: Instant,
    transport_errors: &AtomicU64,
) -> Vec<(u16, Duration)> {
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            transport_errors.fetch_add(
                offsets.iter().skip(worker).step_by(stride).count() as u64,
                Ordering::SeqCst,
            );
            return Vec::new();
        }
    };
    let _ = client.set_timeout(Some(opts.timeout));
    let mut outcomes = Vec::new();
    let mut index = worker;
    while index < offsets.len() {
        if let Some(gap) = offsets[index].checked_sub(started.elapsed()) {
            std::thread::sleep(gap);
        }
        let body = opts
            .body
            .replace("{seed}", &(index as u64 % opts.distinct.max(1)).to_string());
        let sent_at = Instant::now();
        let mut result = client.call("POST", &opts.path, Some(&body));
        if result.is_err() {
            // A server that closed the keep-alive socket between calls
            // (idle eviction, a drain, a `Connection: close` reply)
            // surfaces here; reconnect and resend once before calling it
            // a transport failure. Analysis requests are pure, so the
            // resend is safe, and the measured latency honestly includes
            // the reconnect.
            if let Ok(c) = HttpClient::connect(addr) {
                client = c;
                let _ = client.set_timeout(Some(opts.timeout));
                result = client.call("POST", &opts.path, Some(&body));
            }
        }
        match result {
            Ok((status, headers, _)) => {
                outcomes.push((status, sent_at.elapsed()));
                // An announced close means the next call on this socket
                // would fail: reconnect now, off the latency clock.
                let closing = headers
                    .iter()
                    .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                if closing {
                    match HttpClient::connect(addr) {
                        Ok(c) => {
                            client = c;
                            let _ = client.set_timeout(Some(opts.timeout));
                        }
                        Err(_) => {
                            transport_errors.fetch_add(
                                ((index + stride)..offsets.len()).step_by(stride).count()
                                    as u64,
                                Ordering::SeqCst,
                            );
                            return outcomes;
                        }
                    }
                }
            }
            Err(_) => {
                transport_errors.fetch_add(1, Ordering::SeqCst);
                // The connection may be wedged (timeout mid-response);
                // reconnect for the remaining sends.
                match HttpClient::connect(addr) {
                    Ok(c) => {
                        client = c;
                        let _ = client.set_timeout(Some(opts.timeout));
                    }
                    Err(_) => {
                        transport_errors.fetch_add(
                            ((index + stride)..offsets.len())
                                .step_by(stride)
                                .count() as u64,
                            Ordering::SeqCst,
                        );
                        return outcomes;
                    }
                }
            }
        }
        index += stride;
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_with_the_right_mean() {
        let a = schedule(ArrivalProcess::Poisson, 100.0, 4000, 7);
        let b = schedule(ArrivalProcess::Poisson, 100.0, 4000, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are sorted");
        // Mean inter-arrival ≈ 1/rate (law of large numbers headroom).
        let mean_gap = a.last().unwrap().as_secs_f64() / a.len() as f64;
        assert!((mean_gap - 0.01).abs() < 0.002, "mean gap {mean_gap}");
        let c = schedule(ArrivalProcess::Poisson, 100.0, 4000, 8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn fgn_schedule_is_deterministic_nonnegative_and_burstier() {
        let a = schedule(ArrivalProcess::Fgn { hurst: 0.8 }, 100.0, 2048, 7);
        let b = schedule(ArrivalProcess::Fgn { hurst: 0.8 }, 100.0, 2048, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are sorted");
        // Burstiness: the fGn stream's gap variance (per unit mean)
        // exceeds a same-rate Poisson's gap dispersion once correlation
        // strings near-zero gaps together. Weak check: some gaps clamp to
        // (near) zero while the overall span stays positive.
        let gaps: Vec<f64> = std::iter::once(a[0])
            .chain(a.windows(2).map(|w| w[1] - w[0]))
            .map(|d| d.as_secs_f64())
            .collect();
        assert!(gaps.iter().any(|&g| g < 1e-4), "bursts produce tiny gaps");
        assert!(a.last().unwrap().as_secs_f64() > 1.0, "span stays positive");
    }

    #[test]
    fn process_flag_parsing() {
        assert_eq!(
            ArrivalProcess::from_flag("poisson"),
            Some(ArrivalProcess::Poisson)
        );
        assert_eq!(
            ArrivalProcess::from_flag("fgn:0.8"),
            Some(ArrivalProcess::Fgn { hurst: 0.8 })
        );
        assert_eq!(ArrivalProcess::from_flag("fgn:1.5"), None);
        assert_eq!(ArrivalProcess::from_flag("uniform"), None);
    }

    #[test]
    fn v2_envelope_template_wraps_and_lifts_the_op() {
        let template = LoadOptions::default().body;
        let wrapped = v2_envelope_template(&template).unwrap();
        assert!(wrapped.starts_with("{\"api_version\":2,\"op\":\"coplot\",\"body\":{"));
        assert!(wrapped.contains("{seed}"), "placeholder survives wrapping");
        // Substituted, the wrapped template is a valid v2 envelope that
        // parses back to the same analysis request as the flat v1 body.
        let flat = template.replace("{seed}", "3");
        let v2 = wrapped.replace("{seed}", "3");
        let from_v1 = coplot::Envelope::from_json(&flat).unwrap().into_analysis().unwrap();
        let from_v2 = coplot::Envelope::from_json(&v2).unwrap().into_analysis().unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(v2_envelope_template("{\"dataset\":{}}"), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_duration(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile_duration(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile_duration(&ms, 99.9), Duration::from_millis(100));
        assert_eq!(percentile_duration(&[], 50.0), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(percentile_duration(&one, 99.9), Duration::from_millis(7));
    }
}
