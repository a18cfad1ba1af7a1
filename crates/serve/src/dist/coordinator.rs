//! The coordinator: worker registry with periodic `/healthz` probing,
//! routed shard dispatch with retry on worker loss, and fleet-aggregated
//! metrics.
//!
//! Routing: each request orders the live workers by rendezvous hashing on
//! its dataset digest ([`rendezvous`]). Shard `i` goes to the `i`-th
//! worker of that order and a retry to the next one, so a whole request
//! lands on the digest's first worker, where same-digest requests meet in
//! in-flight sharing, and a subset search's combos windows land on
//! distinct workers.
//!
//! Determinism contract: the coordinator's answer to any analysis is
//! byte-identical to a single-node `wl-serve` for any worker count and
//! any interleaving of completions or worker losses — shard planning and
//! reassembly ([`super::shard`]) are pure functions of the request, and a
//! lost shard is simply re-sent to another live worker (same request,
//! same bytes back). Only *availability* degrades with the fleet: with no
//! live workers the coordinator answers a typed, retryable 503, never a
//! wrong or partial result.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use coplot::{ErrorBody, ShardRequest, ShardResponse};
use wl_obs::{escape_str, JsonValue};

use crate::cache::ResultCache;
use crate::http::Response;
use crate::server::{datasets_digest_of, exec_error_response, Prepared};

use super::{shard, wire};

/// How a coordinator is configured (`wl-serve --coordinator`).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Statically configured worker addresses (`--worker`, repeatable);
    /// more may register at runtime via `POST /v2/workers`.
    pub workers: Vec<String>,
    /// Health-probe period.
    pub probe_interval_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: Vec::new(),
            probe_interval_ms: 1000,
        }
    }
}

struct WorkerEntry {
    addr: String,
    alive: bool,
    shards_ok: u64,
    failures: u64,
}

/// The worker registry plus dispatch bookkeeping. Created once per
/// coordinator server; the reactor and its workers share it behind an
/// `Arc`.
pub struct Coordinator {
    workers: Mutex<Vec<WorkerEntry>>,
    /// Per-shard wire timeout.
    shard_timeout: Duration,
}

impl Coordinator {
    /// Build the registry and spawn the background prober. The prober
    /// holds only a [`Weak`] reference, so it winds down on its next tick
    /// after the server drops the coordinator — no join plumbing needed.
    pub fn start(config: &CoordinatorConfig) -> Arc<Coordinator> {
        let coordinator = Arc::new(Coordinator {
            workers: Mutex::new(
                config
                    .workers
                    .iter()
                    .map(|addr| WorkerEntry {
                        addr: addr.clone(),
                        alive: true,
                        shards_ok: 0,
                        failures: 0,
                    })
                    .collect(),
            ),
            shard_timeout: Duration::from_secs(60),
        });
        let weak: Weak<Coordinator> = Arc::downgrade(&coordinator);
        let interval = Duration::from_millis(config.probe_interval_ms.max(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let Some(c) = weak.upgrade() else { return };
            c.probe_once();
        });
        coordinator
    }

    /// Register a worker (optimistically alive until a dispatch or probe
    /// says otherwise). Re-registering an address revives it. Returns
    /// whether the address was new.
    pub fn register(&self, addr: &str) -> bool {
        let mut workers = self.workers.lock().unwrap();
        if let Some(w) = workers.iter_mut().find(|w| w.addr == addr) {
            w.alive = true;
            return false;
        }
        workers.push(WorkerEntry {
            addr: addr.to_string(),
            alive: true,
            shards_ok: 0,
            failures: 0,
        });
        wl_obs::counter!("serve.fleet.registered", 1);
        true
    }

    /// Total registered workers, dead or alive.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().unwrap().len()
    }

    /// Addresses currently believed alive, in registration order.
    pub fn live(&self) -> Vec<String> {
        self.workers
            .lock()
            .unwrap()
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.addr.clone())
            .collect()
    }

    /// Probe every worker's `/healthz` once, updating liveness. The
    /// background prober calls this on its interval; tests call it
    /// directly.
    pub fn probe_once(&self) {
        // Probe outside the lock: a hung worker must not block dispatch.
        let addrs: Vec<String> = {
            let workers = self.workers.lock().unwrap();
            workers.iter().map(|w| w.addr.clone()).collect()
        };
        let states: Vec<(String, bool)> =
            addrs.into_iter().map(|a| (a.clone(), wire::probe(&a))).collect();
        let mut workers = self.workers.lock().unwrap();
        for (addr, up) in states {
            if let Some(w) = workers.iter_mut().find(|w| w.addr == addr) {
                w.alive = up;
            }
        }
        let live = workers.iter().filter(|w| w.alive).count();
        wl_obs::gauge_set!("serve.fleet.workers_live", live as i64);
    }

    fn mark_dead(&self, addr: &str) {
        let mut workers = self.workers.lock().unwrap();
        if let Some(w) = workers.iter_mut().find(|w| w.addr == addr) {
            w.alive = false;
            w.failures += 1;
        }
        wl_obs::counter!("serve.fleet.worker_lost", 1);
    }

    fn record_ok(&self, addr: &str) {
        let mut workers = self.workers.lock().unwrap();
        if let Some(w) = workers.iter_mut().find(|w| w.addr == addr) {
            w.shards_ok += 1;
        }
    }

    /// The `GET /v2/fleet` body.
    pub fn status_json(&self) -> String {
        let workers = self.workers.lock().unwrap();
        let mut s = String::from("{\"role\":\"coordinator\",\"workers\":[");
        for (i, w) in workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"addr\":\"{}\",\"alive\":{},\"shards_ok\":{},\"failures\":{}}}",
                escape_str(&w.addr),
                w.alive,
                w.shards_ok,
                w.failures
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Why a shard could not be completed.
enum Failure {
    /// No live worker left to try.
    NoWorkers,
    /// A worker answered a typed error — deterministic for the request,
    /// so it is forwarded verbatim (lowest shard index wins, matching
    /// the order a single node would discover it).
    Typed { status: u16, body: String },
}

/// Execute a prepared analysis by sharding it over the fleet. Same
/// content-addressed cache discipline as local execution; the cached
/// bytes are identical either way.
pub(crate) fn execute_via_fleet(
    coordinator: &Coordinator,
    prepared: &Prepared,
    cache: &ResultCache,
) -> Response {
    let canonical = &prepared.canonical;
    let dataset_digest = match datasets_digest_of(canonical) {
        Ok(d) => d,
        Err(e) => return exec_error_response(&e),
    };
    let key = (dataset_digest, prepared.request_digest);
    if let Some(body) = cache.get(key) {
        return Response::json(200, body);
    }
    let live = coordinator.live().len();
    if live == 0 {
        return no_workers_response();
    }
    let parts = shard::plan(canonical, live);
    if parts.is_empty() {
        return fleet_error_response("shard plan is empty");
    }
    wl_obs::counter!("serve.fleet.requests", 1);
    wl_obs::counter!("serve.fleet.shards", parts.len() as u64);

    let results: Vec<Result<ShardResponse, Failure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(index, part)| {
                let shard_req = ShardRequest {
                    base: canonical.clone(),
                    part: *part,
                };
                scope.spawn(move || dispatch_part(coordinator, shard_req, dataset_digest, index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(Failure::NoWorkers)))
            .collect()
    });

    let mut shards = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(s) => shards.push(s),
            Err(Failure::NoWorkers) => return no_workers_response(),
            Err(Failure::Typed { status, body }) => return Response::json(status, body),
        }
    }
    let Some(response) = shard::merge(canonical, shards) else {
        return fleet_error_response("worker answered the wrong shard kind");
    };
    let body = response.to_json();
    cache.put(key, body.clone());
    Response::json(200, body)
}

/// Run one shard to completion: POST it to the `index`-th live worker of
/// the digest's [`rendezvous`] order, and on transport failure or worker
/// overload mark the worker dead and retry on the next live one in that
/// order. Typed worker errors are final — they are properties of the
/// request, not the worker.
fn dispatch_part(
    coordinator: &Coordinator,
    shard_req: ShardRequest,
    digest: u64,
    index: usize,
) -> Result<ShardResponse, Failure> {
    let mut tried: Vec<String> = Vec::new();
    loop {
        let order = rendezvous(digest, &coordinator.live());
        let next = order
            .iter()
            .skip(index)
            .chain(order.iter().take(index))
            .find(|a| !tried.contains(*a));
        let Some(addr) = next.cloned() else {
            return Err(Failure::NoWorkers);
        };
        match wire::post_shard(&addr, &shard_req, coordinator.shard_timeout) {
            Ok(wire::ShardReply::Ok(resp)) => {
                coordinator.record_ok(&addr);
                return Ok(resp);
            }
            Ok(wire::ShardReply::Typed { status: 503, .. }) | Err(_) => {
                // Lost or overloaded worker: resend the shard elsewhere.
                coordinator.mark_dead(&addr);
                tried.push(addr);
                wl_obs::counter!("serve.fleet.retries", 1);
            }
            Ok(wire::ShardReply::Typed { status, body }) => {
                return Err(Failure::Typed { status, body })
            }
        }
    }
}

/// The rendezvous order of `live` for a dataset digest: addresses by
/// descending hash of (digest, address), ties by address. Removing an
/// address leaves the others in their order, so a digest's first worker
/// stays first while it lives.
fn rendezvous(digest: u64, live: &[String]) -> Vec<String> {
    let weight = |addr: &str| {
        // FNV-1a, then SplitMix64's finalizer: addresses that differ in one
        // character still weigh independently.
        let mut z = coplot::api::fnv1a(format!("{digest}/{addr}").as_bytes());
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<(u64, &String)> = live.iter().map(|a| (weight(a), a)).collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    order.into_iter().map(|(_, a)| a.clone()).collect()
}

fn no_workers_response() -> Response {
    let body = ErrorBody::new(
        "no-workers",
        "no live workers registered with this coordinator",
    )
    .with_retry_after_ms(1000);
    Response::json(503, body.to_json()).with_header("retry-after", "1")
}

fn fleet_error_response(message: &str) -> Response {
    let body = ErrorBody::new("fleet-error", message).with_retry_after_ms(1000);
    Response::json(503, body.to_json()).with_header("retry-after", "1")
}

/// `GET /metrics` on a coordinator: the coordinator's own trace document
/// (meta + its span events + its metrics) with every live worker's
/// metric lines merged in by name — counters and gauges sum, histograms
/// combine — so the document still satisfies `trace-check`'s unique-name
/// invariant while reflecting the whole fleet.
pub(crate) fn aggregated_metrics(coordinator: &Coordinator) -> Response {
    let own = crate::server::own_metrics_body();
    let mut merge = MetricMerge::parse_own(&own);
    for addr in coordinator.live() {
        if let Ok(body) = wire::fetch_metrics(&addr) {
            merge.absorb(&body);
        }
    }
    Response {
        status: 200,
        content_type: "application/x-ndjson",
        body: merge.render(),
        extra_headers: Vec::new(),
    }
}

/// One mergeable metric line.
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        p50: u64,
        p99: u64,
    },
}

/// A trace document under merge: non-metric lines (meta, spans) pass
/// through verbatim; metric lines fold into a by-name map.
struct MetricMerge {
    passthrough: String,
    metrics: BTreeMap<String, Metric>,
}

impl MetricMerge {
    /// Start from the coordinator's own document, keeping its meta and
    /// span lines (worker spans are dropped — their thread ids and
    /// timestamps would violate per-thread nesting when interleaved).
    fn parse_own(own: &str) -> MetricMerge {
        let mut merge = MetricMerge {
            passthrough: String::new(),
            metrics: BTreeMap::new(),
        };
        for line in own.lines() {
            if !merge.absorb_metric_line(line) {
                merge.passthrough.push_str(line);
                merge.passthrough.push('\n');
            }
        }
        merge
    }

    /// Merge another document's metric lines; everything else is ignored.
    fn absorb(&mut self, doc: &str) {
        for line in doc.lines() {
            self.absorb_metric_line(line);
        }
    }

    /// Returns whether the line was a metric (and was absorbed).
    fn absorb_metric_line(&mut self, line: &str) -> bool {
        let Ok(v) = wl_obs::parse_json(line) else { return false };
        let Some(kind) = v.get("type").and_then(JsonValue::as_str) else {
            return false;
        };
        let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
            return false;
        };
        let u = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let parsed = match kind {
            "counter" => Metric::Counter(u("value")),
            "gauge" => Metric::Gauge(
                v.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0) as i64,
            ),
            "histogram" => Metric::Histogram {
                count: u("count"),
                sum: u("sum"),
                min: u("min"),
                max: u("max"),
                p50: u("p50"),
                p99: u("p99"),
            },
            _ => return false,
        };
        match self.metrics.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(parsed);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                merge_metric(e.get_mut(), parsed);
            }
        }
        true
    }

    /// Re-emit: passthrough lines first (meta, spans — their original
    /// order), then every merged metric sorted by name, in the same line
    /// formats the exporter uses.
    fn render(&self) -> String {
        let mut out = self.passthrough.clone();
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(value) => out.push_str(&format!(
                    "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
                    escape_str(name)
                )),
                Metric::Gauge(value) => out.push_str(&format!(
                    "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}\n",
                    escape_str(name)
                )),
                Metric::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    p50,
                    p99,
                } => out.push_str(&format!(
                    "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max},\"p50\":{p50},\"p99\":{p99}}}\n",
                    escape_str(name)
                )),
            }
        }
        out
    }
}

/// Fold `add` into `into` (same name; kinds should match — on a kind
/// mismatch the first writer wins rather than corrupting the document).
fn merge_metric(into: &mut Metric, add: Metric) {
    match (into, add) {
        (Metric::Counter(a), Metric::Counter(b)) => *a = a.wrapping_add(b),
        (Metric::Gauge(a), Metric::Gauge(b)) => *a = a.wrapping_add(b),
        (
            Metric::Histogram {
                count,
                sum,
                min,
                max,
                p50,
                p99,
            },
            Metric::Histogram {
                count: c2,
                sum: s2,
                min: m2,
                max: x2,
                p50: p50b,
                p99: p99b,
            },
        ) => {
            // Empty sides export min = 0; keep the real minimum of the
            // non-empty sides.
            *min = match (*count, c2) {
                (0, _) => m2,
                (_, 0) => *min,
                _ => (*min).min(m2),
            };
            *count = count.wrapping_add(c2);
            *sum = sum.wrapping_add(s2);
            *max = (*max).max(x2);
            // Quantiles are per-process approximations; the fleet view
            // keeps the conservative (largest) estimate.
            *p50 = (*p50).max(p50b);
            *p99 = (*p99).max(p99b);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_with(workers: &[&str]) -> CoordinatorConfig {
        CoordinatorConfig {
            workers: workers.iter().map(|s| s.to_string()).collect(),
            probe_interval_ms: 3_600_000, // effectively off for tests
        }
    }

    #[test]
    fn registration_revives_and_deduplicates() {
        let c = Coordinator::start(&config_with(&["127.0.0.1:1"]));
        assert!(!c.register("127.0.0.1:1"), "already known");
        assert!(c.register("127.0.0.1:2"), "new");
        assert_eq!(c.live(), vec!["127.0.0.1:1", "127.0.0.1:2"]);
        c.mark_dead("127.0.0.1:2");
        assert_eq!(c.live(), vec!["127.0.0.1:1"]);
        c.register("127.0.0.1:2");
        assert_eq!(c.live().len(), 2, "re-registration revives");
    }

    #[test]
    fn status_json_reports_every_worker() {
        let c = Coordinator::start(&config_with(&["127.0.0.1:9", "10.0.0.1:80"]));
        c.mark_dead("10.0.0.1:80");
        let v = wl_obs::parse_json(&c.status_json()).unwrap();
        assert_eq!(v.get("role").and_then(JsonValue::as_str), Some("coordinator"));
        let JsonValue::Array(workers) = v.get("workers").unwrap() else {
            panic!("workers should be an array");
        };
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].get("alive").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(workers[1].get("alive").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(workers[1].get("failures").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn metric_merge_sums_by_name_and_stays_trace_clean() {
        let own = concat!(
            "{\"type\":\"meta\",\"format\":\"wl-obs\",\"version\":1,\"span_events\":0,\"events_dropped\":0}\n",
            "{\"type\":\"counter\",\"name\":\"serve.http.200\",\"value\":3}\n",
            "{\"type\":\"gauge\",\"name\":\"serve.inflight\",\"value\":1}\n",
            "{\"type\":\"histogram\",\"name\":\"serve.latency_us.coplot\",\"count\":2,\"sum\":100,\"min\":20,\"max\":80,\"p50\":32,\"p99\":80}\n",
        );
        let worker = concat!(
            "{\"type\":\"meta\",\"format\":\"wl-obs\",\"version\":1,\"span_events\":0,\"events_dropped\":0}\n",
            "{\"type\":\"span\",\"event\":\"enter\",\"name\":\"x\",\"ts_ns\":1,\"thread\":7,\"depth\":0}\n",
            "{\"type\":\"counter\",\"name\":\"serve.http.200\",\"value\":5}\n",
            "{\"type\":\"counter\",\"name\":\"serve.shard.executed\",\"value\":4}\n",
            "{\"type\":\"histogram\",\"name\":\"serve.latency_us.coplot\",\"count\":1,\"sum\":10,\"min\":10,\"max\":10,\"p50\":10,\"p99\":10}\n",
        );
        let mut merge = MetricMerge::parse_own(own);
        merge.absorb(worker);
        let doc = merge.render();
        // Worker span lines are dropped; worker metrics merged.
        assert!(!doc.contains("\"type\":\"span\""));
        assert!(doc.contains("{\"type\":\"counter\",\"name\":\"serve.http.200\",\"value\":8}"));
        assert!(doc.contains("{\"type\":\"counter\",\"name\":\"serve.shard.executed\",\"value\":4}"));
        assert!(doc.contains(
            "{\"type\":\"histogram\",\"name\":\"serve.latency_us.coplot\",\"count\":3,\"sum\":110,\"min\":10,\"max\":80,\"p50\":32,\"p99\":80}"
        ));
        let stats = wl_obs::check_trace(&doc).expect("merged doc passes trace-check");
        assert_eq!(stats.metrics, 4);
    }

    #[test]
    fn empty_histogram_sides_do_not_poison_min() {
        let mut m = Metric::Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p99: 0,
        };
        merge_metric(
            &mut m,
            Metric::Histogram {
                count: 2,
                sum: 50,
                min: 20,
                max: 30,
                p50: 25,
                p99: 30,
            },
        );
        let Metric::Histogram { count, min, .. } = m else { panic!() };
        assert_eq!((count, min), (2, 20));
    }

    #[test]
    fn rendezvous_order_is_a_stable_permutation_of_the_live_workers() {
        let live: Vec<String> = (1..=5).map(|p| format!("127.0.0.1:{p}")).collect();
        for digest in [0u64, 7, u64::MAX] {
            let order = rendezvous(digest, &live);
            assert_eq!(order, rendezvous(digest, &live), "deterministic");
            let mut sorted = order.clone();
            sorted.sort();
            assert_eq!(sorted, live, "a permutation of the live workers");
            // Losing any worker but the first keeps the first first.
            for lost in &order[1..] {
                let rest: Vec<String> = live.iter().filter(|a| *a != lost).cloned().collect();
                assert_eq!(rendezvous(digest, &rest)[0], order[0]);
            }
        }
        // Digests spread: over 64 of them, each of two workers leads some.
        let pair = &live[..2];
        for addr in pair {
            assert!(
                (0..64).any(|d| &rendezvous(d, pair)[0] == addr),
                "{addr} never comes first"
            );
        }
    }

    #[test]
    fn fleet_error_bodies_are_typed_and_retryable() {
        let r = no_workers_response();
        assert_eq!(r.status, 503);
        let v = wl_obs::parse_json(&r.body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(JsonValue::as_str), Some("no-workers"));
        assert_eq!(err.get("retry_after_ms").and_then(JsonValue::as_u64), Some(1000));
        assert!(r
            .extra_headers
            .iter()
            .any(|(n, val)| n == "retry-after" && val == "1"));
    }
}
