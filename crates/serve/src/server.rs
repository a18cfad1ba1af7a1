//! The `wl-serve` server: its public handle and configuration, plus the
//! request logic its connection layer runs — the route table
//! (`classify`), request preparation and execution (`prepare_analysis` /
//! `execute_prepared`), typed error bodies, and per-endpoint metrics. The
//! connection layer itself — one `poll(2)` reactor thread plus a worker
//! pool, with bounded admission (a full queue answers 503 +
//! `Retry-After`) and request batching — lives in [`crate::event`].
//!
//! Graceful drain: `POST /v1/shutdown` (or [`ServerHandle::initiate_drain`])
//! stops accepting; admitted requests finish and flush, and
//! [`ServerHandle::join`] returns once everything is drained.
//!
//! Instrumentation (all behind the `wl-obs` registry, scraped at
//! `GET /metrics` as the same JSON-lines format `trace-check` validates):
//! per-endpoint latency histograms (`serve.latency_us.*`), response-status
//! counters (`serve.http.*`), cache counters (`serve.cache.*`), and the
//! `serve.queue.depth` / `serve.inflight` gauges.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use coplot::{AnalysisRequest, Envelope, EnvelopePayload, ErrorBody, Operation};

use crate::batch::{BatchKey, BatchMemo};
use crate::cache::ResultCache;
use crate::datasets;
use crate::dist::{Coordinator, CoordinatorConfig};
use crate::event::EventHandle;
use crate::exec::{self, ExecConfig, ExecError};
use crate::http::{Request, Response};

pub use crate::event::Drainer;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request worker threads.
    pub workers: usize,
    /// Admission queue capacity; a full queue answers 503.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables).
    pub cache_capacity: usize,
    /// Engine threads per request.
    pub threads: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Evict connections idle this long. Mid-request idlers (slowloris)
    /// get a 408; idle keep-alive connections close silently.
    pub idle_timeout_ms: u64,
    /// Most requests coalesced into one batch.
    pub batch_max: usize,
    /// Run as a fleet coordinator (`wl-serve --coordinator`): analyses are
    /// sharded across the configured workers instead of executed locally,
    /// `/v2/workers` accepts registrations and `/v2/fleet` reports status.
    /// `None` (the default) is an ordinary single-node server / worker.
    pub coordinator: Option<CoordinatorConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:1999".into(),
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 128,
            threads: wl_par::default_threads(),
            default_deadline_ms: None,
            idle_timeout_ms: 10_000,
            batch_max: 8,
            coordinator: None,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](ServerHandle::shutdown) or [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    reactor: EventHandle,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A drain trigger usable from other threads.
    pub fn drainer(&self) -> Drainer {
        self.reactor.drainer()
    }

    /// Begin draining without waiting.
    pub fn initiate_drain(&self) {
        self.drainer().initiate();
    }

    /// Wait until the server has drained (the reactor stopped accepting
    /// and every admitted request finished).
    pub fn join(self) {
        self.reactor.join();
    }

    /// Initiate drain and wait for it to complete.
    pub fn shutdown(self) {
        self.initiate_drain();
        self.join();
    }
}

/// Bind and start the reactor and its workers, returning immediately.
///
/// Arms the `wl-obs` registry so `GET /metrics` has data to export; the
/// numeric pipeline's guarantees are unaffected (instrumentation never
/// changes results, only records them).
///
/// # Errors
/// Any `bind` failure.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    wl_obs::set_enabled(true);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let coordinator = config.coordinator.as_ref().map(Coordinator::start);
    let reactor = crate::event::start(listener, config, coordinator)?;
    Ok(ServerHandle { addr, reactor })
}

/// Which endpoint a request hit, for the per-endpoint latency histograms.
/// (One `hist_record!` call site per endpoint: the macro interns its metric
/// name per site, so names must be literals.)
#[derive(Clone, Copy)]
pub(crate) enum Endpoint {
    Health,
    Metrics,
    Datasets,
    Coplot,
    Hurst,
    Subset,
    Analyze,
    Shard,
    Fleet,
    Stream,
    Shutdown,
    Other,
}

impl Endpoint {
    pub(crate) fn record_latency(self, us: u64) {
        match self {
            Endpoint::Health => wl_obs::hist_record!("serve.latency_us.healthz", us),
            Endpoint::Metrics => wl_obs::hist_record!("serve.latency_us.metrics", us),
            Endpoint::Datasets => wl_obs::hist_record!("serve.latency_us.datasets", us),
            Endpoint::Coplot => wl_obs::hist_record!("serve.latency_us.coplot", us),
            Endpoint::Hurst => wl_obs::hist_record!("serve.latency_us.hurst", us),
            Endpoint::Subset => wl_obs::hist_record!("serve.latency_us.subset", us),
            Endpoint::Analyze => wl_obs::hist_record!("serve.latency_us.analyze", us),
            Endpoint::Shard => wl_obs::hist_record!("serve.latency_us.shard", us),
            Endpoint::Fleet => wl_obs::hist_record!("serve.latency_us.fleet", us),
            Endpoint::Stream => wl_obs::hist_record!("serve.latency_us.stream", us),
            Endpoint::Shutdown => wl_obs::hist_record!("serve.latency_us.shutdown", us),
            Endpoint::Other => wl_obs::hist_record!("serve.latency_us.other", us),
        }
    }
}

pub(crate) fn record_status(status: u16) {
    match status {
        200 => wl_obs::counter!("serve.http.200", 1),
        400 => wl_obs::counter!("serve.http.400", 1),
        404 => wl_obs::counter!("serve.http.404", 1),
        405 => wl_obs::counter!("serve.http.405", 1),
        408 => wl_obs::counter!("serve.http.408", 1),
        422 => wl_obs::counter!("serve.http.422", 1),
        503 => wl_obs::counter!("serve.http.503", 1),
        504 => wl_obs::counter!("serve.http.504", 1),
        _ => wl_obs::counter!("serve.http.other", 1),
    }
}

/// Where a request goes, decided from the request line alone; the reactor
/// answers `Inline` routes itself and dispatches the rest to the worker
/// pool.
pub(crate) enum Routed {
    /// Answerable immediately (health, datasets, 404/405).
    Inline(Response, Endpoint),
    /// `GET /metrics` — inline on a single node, but a coordinator scrapes
    /// its workers, so the caller decides where that network work runs.
    Metrics,
    /// Drain trigger: the caller initiates its model's drain and answers.
    Shutdown,
    /// An analysis POST bound for the executor. `None` means
    /// `POST /v2/analyze`, which carries its op in the envelope; `Some`
    /// is a `/v1/*` endpoint that must match the body's op.
    Analysis(Option<Operation>, Endpoint),
    /// A `/v2/shard` POST bound for the shard executor.
    Shard,
    /// Fleet control plane (registration / status), answered inline.
    Fleet(FleetRoute),
    /// A `/v1/stream` session bound for the executor.
    Stream,
}

/// Which fleet control-plane endpoint a request hit.
#[derive(Clone, Copy)]
pub(crate) enum FleetRoute {
    /// `POST /v2/workers` — a worker announcing itself.
    Register,
    /// `GET /v2/fleet` — worker table with liveness and shard counts.
    Status,
}

pub(crate) fn classify(request: &Request) -> Routed {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => {
            Routed::Inline(Response::json(200, health_body()), Endpoint::Health)
        }
        ("GET", "/metrics") => Routed::Metrics,
        ("GET", "/v1/datasets") => Routed::Inline(
            Response::json(200, datasets::datasets_json()),
            Endpoint::Datasets,
        ),
        ("POST", "/v1/coplot") => Routed::Analysis(Some(Operation::Coplot), Endpoint::Coplot),
        ("POST", "/v1/hurst") => Routed::Analysis(Some(Operation::Hurst), Endpoint::Hurst),
        ("POST", "/v1/subset") => Routed::Analysis(Some(Operation::Subset), Endpoint::Subset),
        ("POST", "/v2/analyze") => Routed::Analysis(None, Endpoint::Analyze),
        ("POST", "/v2/shard") => Routed::Shard,
        ("POST", "/v2/workers") => Routed::Fleet(FleetRoute::Register),
        ("GET", "/v2/fleet") => Routed::Fleet(FleetRoute::Status),
        ("POST", "/v1/stream") => Routed::Stream,
        ("POST", "/v1/shutdown") => Routed::Shutdown,
        (_, path)
            if matches!(
                path,
                "/healthz" | "/metrics" | "/v1/datasets" | "/v1/coplot" | "/v1/hurst"
                    | "/v1/subset" | "/v1/stream" | "/v1/shutdown" | "/v2/analyze"
                    | "/v2/shard" | "/v2/workers" | "/v2/fleet"
            ) =>
        {
            Routed::Inline(
                Response::json(
                    405,
                    error_body(
                        "method-not-allowed",
                        &format!("{} is not supported on {path}", request.method),
                    ),
                ),
                Endpoint::Other,
            )
        }
        (_, path) => Routed::Inline(
            Response::json(404, error_body("not-found", &format!("no route for {path}"))),
            Endpoint::Other,
        ),
    }
}

/// The `GET /healthz` body: liveness plus the wire-API versions this
/// server speaks, so clients (and fleet probes) can negotiate without a
/// second round trip.
pub(crate) fn health_body() -> String {
    format!(
        "{{\"status\":\"ok\",\"api_versions\":{}}}",
        datasets::api_versions_json()
    )
}

/// This process's own metrics document (what a single node serves at
/// `GET /metrics`, and the base a coordinator merges worker metrics into).
pub(crate) fn own_metrics_body() -> String {
    let snapshot = wl_obs::registry().snapshot();
    wl_obs::export_json_lines(&snapshot, &[])
}

pub(crate) fn own_metrics_response() -> Response {
    Response {
        status: 200,
        content_type: "application/x-ndjson",
        body: own_metrics_body(),
        extra_headers: Vec::new(),
    }
}

/// Answer a fleet control-plane request. On a non-coordinator both
/// endpoints are a typed 404: the route exists, but this process has no
/// worker table to serve.
pub(crate) fn fleet_response(
    request: &Request,
    route: FleetRoute,
    coordinator: Option<&Coordinator>,
) -> Response {
    let Some(coordinator) = coordinator else {
        return Response::json(
            404,
            error_body(
                "not-coordinator",
                "this wl-serve is not running in coordinator mode",
            ),
        );
    };
    match route {
        FleetRoute::Register => {
            let addr = std::str::from_utf8(&request.body)
                .ok()
                .and_then(|body| wl_obs::parse_json(body).ok())
                .and_then(|v| v.get("addr").and_then(|a| a.as_str().map(String::from)));
            let Some(addr) = addr else {
                return Response::json(
                    400,
                    error_body("bad-schema", "registration body must be {\"addr\":\"host:port\"}"),
                );
            };
            let new = coordinator.register(&addr);
            Response::json(
                200,
                format!(
                    "{{\"registered\":\"{}\",\"known\":{},\"new\":{}}}",
                    wl_obs::escape_str(&addr),
                    coordinator.worker_count(),
                    new
                ),
            )
        }
        FleetRoute::Status => Response::json(200, coordinator.status_json()),
    }
}

/// A validated analysis request, ready to execute: the cheap, pure part of
/// request handling (parse, op check, canonicalize, digest) split out so
/// the event reactor can run it inline — answering 400s without spending a
/// worker — and hand workers only well-formed jobs.
pub(crate) struct Prepared {
    pub canonical: AnalysisRequest,
    pub request_digest: u64,
}

impl Prepared {
    /// How this request may batch: named datasets digest without I/O, so
    /// the digest doubles as the batch key; path datasets would need file
    /// reads to digest and stay solo.
    pub(crate) fn batch_key(&self) -> BatchKey {
        if !matches!(self.canonical.dataset, coplot::DatasetSpec::Named(_)) {
            // Digesting a path dataset reads files — too slow for the
            // reactor thread, and path requests rarely repeat anyway.
            return BatchKey::Solo;
        }
        match datasets::dataset_digest(
            &self.canonical.dataset,
            self.canonical.jobs,
            self.canonical.seed,
            self.canonical.format.as_deref(),
        ) {
            Ok(d) => BatchKey::Shared(d),
            Err(_) => BatchKey::Solo,
        }
    }
}

/// Parse and validate one analysis POST down to its canonical request.
/// Every analysis endpoint — `/v1/*` and `/v2/analyze` — funnels through
/// the versioned [`Envelope`]: a bare body is v1 by definition, so the v1
/// wire format (and its digests) is untouched, while `/v2/analyze` passes
/// `expected_op = None` and takes its op from the envelope.
///
/// # Errors
/// The ready-to-send 400 response.
pub(crate) fn prepare_analysis(
    request: &Request,
    expected_op: Option<Operation>,
) -> Result<Prepared, Response> {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Err(Response::json(400, error_body("bad-json", "body is not UTF-8")));
    };
    let envelope = match Envelope::from_json(body) {
        Ok(e) => e,
        Err(e) => return Err(Response::json(400, error_body(e.kind.label(), &e.message))),
    };
    let parsed = match envelope.payload {
        EnvelopePayload::Analysis(r) => r,
        EnvelopePayload::Shard(_) => {
            return Err(Response::json(
                400,
                error_body(
                    "bad-schema",
                    "shard requests belong on /v2/shard, not an analysis endpoint",
                ),
            ))
        }
    };
    if let Some(expected_op) = expected_op {
        if parsed.op != expected_op {
            return Err(Response::json(
                400,
                error_body(
                    "bad-value",
                    &format!(
                        "request op {:?} does not match endpoint /v1/{}",
                        parsed.op.label(),
                        expected_op.label()
                    ),
                ),
            ));
        }
    }
    let canonical = match parsed.canonicalize() {
        Ok(r) => r,
        Err(e) => return Err(Response::json(400, error_body(e.kind.label(), &e.message))),
    };
    // The digest cannot fail past canonicalization.
    let request_digest = match canonical.canonical_digest() {
        Ok(d) => d,
        Err(e) => return Err(Response::json(400, error_body(e.kind.label(), &e.message))),
    };
    Ok(Prepared {
        canonical,
        request_digest,
    })
}

/// Execute a prepared analysis request: digest the dataset, consult the
/// result cache, run against the batch's memo, cache, respond. Never
/// panics a worker and never answers 500 — every failure maps to a typed
/// 4xx/5xx.
pub(crate) fn execute_prepared(
    prepared: &Prepared,
    config: &ServerConfig,
    cache: &ResultCache,
    memo: &BatchMemo,
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
    let deadline_ms = canonical.deadline_ms.or(config.default_deadline_ms);
    let cfg = ExecConfig {
        threads: config.threads,
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
    };
    match exec::execute_with_memo(canonical, &cfg, Some(memo)) {
        Ok(outcome) => {
            let body = outcome.response.to_json();
            cache.put(key, body.clone());
            Response::json(200, body)
        }
        Err(e) => exec_error_response(&e),
    }
}

/// The dataset half of the result-cache key for a canonical request —
/// shared by local execution and the coordinator (same key, same cached
/// bytes, whichever path computed them).
pub(crate) fn datasets_digest_of(canonical: &AnalysisRequest) -> Result<u64, ExecError> {
    datasets::dataset_digest(
        &canonical.dataset,
        canonical.jobs,
        canonical.seed,
        canonical.format.as_deref(),
    )
}

/// Handle one `/v1/stream` POST: split the body into the JSON header line
/// and the trace text, run the windowed session, answer JSON lines.
/// Sessions are not cached: the response is large relative to analysis
/// responses and the body (an entire trace) would dominate the key.
pub(crate) fn stream_response(request: &Request, threads: usize) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::json(400, error_body("bad-json", "body is not UTF-8"));
    };
    let (options, text) = match crate::stream::parse_stream_request(body) {
        Ok(parts) => parts,
        Err(e) => return Response::json(400, error_body(e.kind.label(), &e.message)),
    };
    match crate::stream::run_stream_text(text, &options, threads) {
        Ok(lines) => Response {
            status: 200,
            content_type: "application/x-ndjson",
            body: lines,
            extra_headers: Vec::new(),
        },
        Err(e) => exec_error_response(&e),
    }
}

pub(crate) fn exec_error_response(e: &ExecError) -> Response {
    match e {
        ExecError::Api(a) => Response::json(400, error_body(a.kind.label(), &a.message)),
        ExecError::DatasetNotFound(m) => Response::json(404, error_body("not-found", m)),
        ExecError::Analysis(coplot::CoplotError::DeadlineExceeded { .. }) => {
            Response::json(504, error_body("deadline", &e.to_string()))
        }
        ExecError::Analysis(other) => Response::json(422, error_body("analysis", &other.to_string())),
    }
}

/// The service's uniform error body — one [`ErrorBody`] shape across
/// every v1, v2 and shard endpoint.
pub(crate) fn error_body(kind: &str, message: &str) -> String {
    ErrorBody::new(kind, message).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_valid_json() {
        let body = error_body("bad-json", "expected \"value\" near\nline 2");
        let v = wl_obs::parse_json(&body).unwrap();
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("bad-json"));
        assert!(err
            .get("message")
            .and_then(|m| m.as_str())
            .unwrap()
            .contains("line 2"));
    }
}
