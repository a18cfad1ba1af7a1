//! Distributed-mode tests: a coordinator sharding work across real
//! worker servers must be **byte-identical** to a single node for every
//! fleet size and thread count, survive losing a worker mid-shard, and
//! answer every fleet-specific failure with a typed error — never a 500.
//!
//! Every server binds `127.0.0.1:0`; fleets are wired up by passing the
//! workers' bound addresses to the coordinator's config (or by runtime
//! registration via `POST /v2/workers`).

use std::io::Read;
use std::net::{SocketAddr, TcpListener};

use wl_serve::dist::CoordinatorConfig;
use wl_serve::http::http_call;
use wl_serve::{start, ServerConfig, ServerHandle};

fn server(threads: usize, coordinator: Option<CoordinatorConfig>) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        threads,
        default_deadline_ms: None,
        coordinator,
        ..ServerConfig::default()
    };
    start(config).expect("bind test server")
}

/// A coordinator plus `n` plain workers, pre-wired through the config.
fn fleet(n: usize, threads: usize) -> (ServerHandle, Vec<ServerHandle>) {
    let workers: Vec<ServerHandle> = (0..n).map(|_| server(threads, None)).collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = server(
        threads,
        Some(CoordinatorConfig {
            workers: addrs,
            // Long interval: these tests exercise dispatch-time failure
            // handling, not the background prober.
            probe_interval_ms: 3_600_000,
        }),
    );
    (coordinator, workers)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    http_call(&addr.to_string(), "GET", path, None).expect("http GET")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    http_call(&addr.to_string(), "POST", path, Some(body)).expect("http POST")
}

fn error_kind(body: &str) -> String {
    let v = wl_obs::parse_json(body).expect("error body is JSON");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .map(str::to_string)
        .unwrap_or_else(|| panic!("no error.kind in {body}"))
}

/// The three shardable analyses, all on the cheap `models` dataset
/// (5 workloads, 150 synthesized jobs).
fn op_bodies(seed: u64) -> [(&'static str, String); 3] {
    [
        (
            "coplot",
            format!("{{\"op\":\"coplot\",\"dataset\":{{\"name\":\"models\"}},\"jobs\":150,\"seed\":{seed}}}"),
        ),
        (
            "hurst",
            format!("{{\"op\":\"hurst\",\"dataset\":{{\"name\":\"models\"}},\"jobs\":150,\"seed\":{seed}}}"),
        ),
        (
            "subset",
            format!("{{\"op\":\"subset\",\"dataset\":{{\"name\":\"models\"}},\"jobs\":150,\"seed\":{seed},\"subset_size\":2,\"top\":3}}"),
        ),
    ]
}

fn v2_envelope(flat: &str) -> String {
    let op = wl_obs::parse_json(flat)
        .ok()
        .and_then(|v| v.get("op").and_then(|o| o.as_str()).map(str::to_string))
        .expect("flat body has an op");
    format!("{{\"api_version\":2,\"op\":\"{op}\",\"body\":{flat}}}")
}

/// The tentpole guarantee: for every worker count and thread count, a
/// coordinator's answer is the same *bytes* a single node produces —
/// over both the v1 endpoints and the v2 envelope.
#[test]
fn fleet_is_byte_identical_to_single_node_across_sizes_and_threads() {
    for threads in [1usize, 8] {
        let single = server(threads, None);
        let golden: Vec<(String, String)> = op_bodies(7)
            .iter()
            .map(|(op, body)| {
                let (status, _, resp) = post(single.addr(), &format!("/v1/{op}"), body);
                assert_eq!(status, 200, "single-node {op}: {resp}");
                (format!("/v1/{op}"), resp)
            })
            .collect();
        single.shutdown();

        for n in [1usize, 2, 3] {
            let (coordinator, workers) = fleet(n, threads);
            for ((path, want), (_, body)) in golden.iter().zip(op_bodies(7).iter()) {
                let (status, _, resp) = post(coordinator.addr(), path, body);
                assert_eq!(status, 200, "workers={n} threads={threads} {path}: {resp}");
                assert_eq!(
                    &resp, want,
                    "workers={n} threads={threads} {path}: fleet answer drifted"
                );
                // The same request through the v2 envelope: same bytes.
                let (status, _, v2_resp) =
                    post(coordinator.addr(), "/v2/analyze", &v2_envelope(body));
                assert_eq!(status, 200, "v2 analyze on fleet: {v2_resp}");
                assert_eq!(&v2_resp, want, "workers={n} threads={threads} v2 {path}");
            }
            coordinator.shutdown();
            for w in workers {
                w.shutdown();
            }
        }
    }
}

/// A "worker" that accepts the coordinator's connection, reads part of
/// the request, then drops the socket — a process killed mid-shard.
fn doomed_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let mut buf = [0u8; 256];
            let _ = conn.read(&mut buf);
            // Drop: the dispatcher sees a transport error mid-request.
        }
    });
    addr
}

#[test]
fn worker_killed_mid_shard_is_retried_to_completion() {
    // Coplot travels whole to one worker; a subset search splits into two
    // combos shards, one per worker, so the doomed worker is always tried.
    let requests: Vec<(u64, &str, String)> = (0..4u64)
        .flat_map(|seed| {
            let [coplot, _, subset] = op_bodies(seed);
            [(seed, coplot.0, coplot.1), (seed, subset.0, subset.1)]
        })
        .collect();
    let single = server(2, None);
    let golden: Vec<String> = requests
        .iter()
        .map(|(_, op, body)| {
            let (status, _, resp) = post(single.addr(), &format!("/v1/{op}"), body);
            assert_eq!(status, 200, "{resp}");
            resp
        })
        .collect();
    single.shutdown();

    // Fleet of one real worker plus one that dies mid-shard.
    let real = server(2, None);
    let doomed = doomed_worker();
    let coordinator = server(
        2,
        Some(CoordinatorConfig {
            workers: vec![doomed.to_string(), real.addr().to_string()],
            probe_interval_ms: 3_600_000,
        }),
    );

    // Saturate: several concurrent analyses, each losing whichever shards
    // landed on the doomed worker.
    let answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|(seed, op, body)| {
                let addr = coordinator.addr();
                scope.spawn(move || {
                    let (status, _, resp) = post(addr, &format!("/v1/{op}"), body);
                    assert_eq!(status, 200, "{op} seed {seed} under worker loss: {resp}");
                    resp
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((seed, op, _), (resp, want)) in requests.iter().zip(answers.iter().zip(&golden)) {
        assert_eq!(
            resp, want,
            "{op} seed {seed}: retried fleet answer drifted from single-node"
        );
    }

    // The loss is visible: the doomed worker is marked dead in the fleet
    // status and the retry/loss counters moved.
    let (status, _, body) = get(coordinator.addr(), "/v2/fleet");
    assert_eq!(status, 200, "{body}");
    let v = wl_obs::parse_json(&body).unwrap();
    let wl_obs::JsonValue::Array(entries) = v.get("workers").unwrap().clone() else {
        panic!("workers is not an array: {body}");
    };
    let alive_of = |addr: &str| {
        entries
            .iter()
            .find(|w| w.get("addr").and_then(|a| a.as_str()) == Some(addr))
            .and_then(|w| w.get("alive").and_then(|a| a.as_bool()))
            .unwrap_or_else(|| panic!("worker {addr} missing from {body}"))
    };
    assert!(!alive_of(&doomed.to_string()), "doomed worker marked dead");
    assert!(alive_of(&real.addr().to_string()), "real worker still live");

    let (_, _, metrics) = get(coordinator.addr(), "/metrics");
    assert!(metrics.contains("serve.fleet.worker_lost"), "loss counted");
    assert!(metrics.contains("serve.fleet.retries"), "retries counted");

    coordinator.shutdown();
    real.shutdown();
}

#[test]
fn no_live_workers_is_a_typed_retryable_503() {
    let coordinator = server(
        2,
        Some(CoordinatorConfig {
            workers: vec![],
            probe_interval_ms: 3_600_000,
        }),
    );
    let (status, headers, body) = post(coordinator.addr(), "/v1/coplot", &op_bodies(1)[0].1);
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_kind(&body), "no-workers");
    assert!(
        body.contains("\"retry_after_ms\""),
        "body advises a retry: {body}"
    );
    assert!(
        headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
        "503 carries retry-after: {headers:?}"
    );
    coordinator.shutdown();
}

/// Runtime registration: a worker announced over `POST /v2/workers`
/// serves analyses exactly like a config-wired one.
#[test]
fn runtime_registration_brings_a_worker_into_service() {
    let single = server(2, None);
    let (status, _, golden) = post(single.addr(), "/v1/hurst", &op_bodies(3)[1].1);
    assert_eq!(status, 200, "{golden}");
    single.shutdown();

    let worker = server(2, None);
    let coordinator = server(
        2,
        Some(CoordinatorConfig {
            workers: vec![],
            probe_interval_ms: 3_600_000,
        }),
    );
    let reg = format!("{{\"addr\":\"{}\"}}", worker.addr());
    let (status, _, body) = post(coordinator.addr(), "/v2/workers", &reg);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"new\":true"), "first registration: {body}");
    assert!(body.contains("\"known\":1"), "{body}");
    // Re-registration is idempotent.
    let (status, _, body) = post(coordinator.addr(), "/v2/workers", &reg);
    assert_eq!(status, 200);
    assert!(body.contains("\"new\":false"), "re-registration: {body}");
    assert!(body.contains("\"known\":1"), "{body}");

    let (status, _, resp) = post(coordinator.addr(), "/v1/hurst", &op_bodies(3)[1].1);
    assert_eq!(status, 200, "{resp}");
    assert_eq!(resp, golden, "registered-worker fleet answer drifted");

    // Malformed registration is a typed 400.
    let (status, _, body) = post(coordinator.addr(), "/v2/workers", "{\"addr\":7}");
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body), "bad-schema");

    coordinator.shutdown();
    worker.shutdown();
}

/// The coordinator's `/metrics` aggregates the fleet and still passes
/// trace-check.
#[test]
fn aggregated_metrics_pass_trace_check() {
    let (coordinator, workers) = fleet(2, 2);
    let (status, _, resp) = post(coordinator.addr(), "/v1/coplot", &op_bodies(9)[0].1);
    assert_eq!(status, 200, "{resp}");
    let (status, headers, body) = get(coordinator.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(k, v)| k == "content-type" && v == "application/x-ndjson"));
    let stats = wl_obs::check_trace(&body).expect("aggregated /metrics passes trace-check");
    assert!(stats.metrics > 0, "aggregated document is non-empty");
    assert!(
        body.contains("serve.fleet.requests"),
        "fleet counters present: {body}"
    );
    coordinator.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// `/v2/analyze` and the legacy `/v1/*` endpoints answer the same
/// request with the same bytes on an ordinary (non-fleet) node.
#[test]
fn v2_analyze_matches_v1_byte_for_byte() {
    let single = server(2, None);
    for (op, body) in op_bodies(5) {
        let (status, _, v1) = post(single.addr(), &format!("/v1/{op}"), &body);
        assert_eq!(status, 200, "{v1}");
        let (status, _, v2) = post(single.addr(), "/v2/analyze", &v2_envelope(&body));
        assert_eq!(status, 200, "{v2}");
        assert_eq!(v1, v2, "{op}: v1 and v2 bodies must be byte-identical");
    }
    // A flat v1 body with an explicit `"api_version":1` is tolerated.
    let versioned =
        "{\"api_version\":1,\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":5}";
    let (status, _, resp) = post(single.addr(), "/v1/coplot", versioned);
    assert_eq!(status, 200, "{resp}");
    single.shutdown();
}

/// A well-formed shard request executes on any plain node and parses as
/// a [`coplot::ShardResponse`] of the matching kind.
#[test]
fn shard_endpoint_executes_a_combo_window() {
    let single = server(2, None);
    // No alienation ceiling: every combination of the window is kept.
    let base = "{\"op\":\"subset\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":7,\"subset_size\":2,\"max_alienation\":1.0}";
    let body = format!(
        "{{\"api_version\":2,\"op\":\"shard\",\"body\":{{\"base\":{base},\"part\":{{\"kind\":\"combos\",\"lo\":0,\"hi\":2}}}}}}"
    );
    let (status, _, resp) = post(single.addr(), "/v2/shard", &body);
    assert_eq!(status, 200, "{resp}");
    let parsed = coplot::ShardResponse::from_json(&resp).expect("shard response parses");
    let coplot::ShardResponse::Subset { entries } = parsed else {
        panic!("wrong shard kind: {resp}");
    };
    assert_eq!(entries.len(), 2, "two-combination window");
    assert!(entries.iter().all(|e| e.variables.len() == 2), "{resp}");
    single.shutdown();
}

/// Same-digest requests meet on one worker: with no result cache in
/// front, three identical coplot requests all travel whole to the
/// digest's first worker in rendezvous order.
#[test]
fn same_digest_requests_meet_on_one_worker() {
    let workers: Vec<ServerHandle> = (0..2).map(|_| server(2, None)).collect();
    let coordinator = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: 0,
        threads: 2,
        coordinator: Some(CoordinatorConfig {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            probe_interval_ms: 3_600_000,
        }),
        ..ServerConfig::default()
    })
    .expect("bind test coordinator");
    let body = &op_bodies(11)[0].1;
    let mut answers = Vec::new();
    for _ in 0..3 {
        let (status, _, resp) = post(coordinator.addr(), "/v1/coplot", body);
        assert_eq!(status, 200, "{resp}");
        answers.push(resp);
    }
    assert!(answers.iter().all(|a| a == &answers[0]));

    let (status, _, fleet) = get(coordinator.addr(), "/v2/fleet");
    assert_eq!(status, 200, "{fleet}");
    let v = wl_obs::parse_json(&fleet).unwrap();
    let wl_obs::JsonValue::Array(entries) = v.get("workers").unwrap().clone() else {
        panic!("workers is not an array: {fleet}");
    };
    let mut shards_ok: Vec<u64> = entries
        .iter()
        .map(|w| w.get("shards_ok").and_then(|n| n.as_u64()).unwrap())
        .collect();
    shards_ok.sort_unstable();
    assert_eq!(shards_ok, vec![0, 3], "all three on one worker: {fleet}");

    coordinator.shutdown();
    for w in workers {
        w.shutdown();
    }
}

/// The never-500 table, extended over every v2 and shard error kind.
#[test]
fn v2_and_shard_errors_are_typed_never_500() {
    let single = server(2, None);
    let addr = single.addr();
    let [(_, flat), (_, hurst), (_, subset)] = op_bodies(1);
    let shard = |base: &str, part: &str| {
        format!(
            "{{\"api_version\":2,\"op\":\"shard\",\"body\":{{\"base\":{base},\"part\":{part}}}}}"
        )
    };
    // (path, body, expected status, expected error kind)
    let table: Vec<(&str, String, u16, &str)> = vec![
        ("/v2/analyze", "{not json".into(), 400, "bad-json"),
        // Unknown api_version is a *typed* rejection, on both surfaces.
        (
            "/v2/analyze",
            format!("{{\"api_version\":3,\"op\":\"coplot\",\"body\":{flat}}}"),
            400,
            "bad-version",
        ),
        (
            "/v1/coplot",
            "{\"api_version\":9,\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"}}".into(),
            400,
            "bad-version",
        ),
        // Envelope shape errors.
        (
            "/v2/analyze",
            "{\"api_version\":2,\"op\":\"coplot\"}".into(),
            400,
            "bad-schema",
        ),
        (
            "/v2/analyze",
            format!("{{\"api_version\":2,\"op\":\"hurst\",\"body\":{flat}}}"),
            400,
            "bad-schema",
        ),
        // Payload/endpoint crossings.
        (
            "/v2/analyze",
            shard(&flat, "{\"kind\":\"whole\"}"),
            400,
            "bad-schema",
        ),
        (
            "/v2/shard",
            format!("{{\"api_version\":2,\"op\":\"coplot\",\"body\":{flat}}}"),
            400,
            "bad-schema",
        ),
        // Shard range and part/op pairing errors.
        (
            "/v2/shard",
            shard(&subset, "{\"kind\":\"combos\",\"lo\":2,\"hi\":2}"),
            400,
            "bad-value",
        ),
        (
            "/v2/shard",
            shard(&flat, "{\"kind\":\"combos\",\"lo\":0,\"hi\":1}"),
            400,
            "bad-value",
        ),
        // The deleted grains are unknown part kinds.
        (
            "/v2/shard",
            shard(&flat, "{\"kind\":\"restarts\",\"lo\":0,\"hi\":1}"),
            400,
            "bad-schema",
        ),
        (
            "/v2/shard",
            shard(&hurst, "{\"kind\":\"rows\",\"lo\":0,\"hi\":1}"),
            400,
            "bad-schema",
        ),
        // A combos window past the search space's end (C(8,2) = 28) is an
        // executor-side 422.
        (
            "/v2/shard",
            shard(&subset, "{\"kind\":\"combos\",\"lo\":28,\"hi\":40}"),
            422,
            "analysis",
        ),
    ];
    for (path, body, want_status, want_kind) in &table {
        let (status, _, resp) = post(addr, path, body);
        assert_eq!(status, *want_status, "{path} body {body:?} -> {resp}");
        assert_eq!(error_kind(&resp), *want_kind, "{path} body {body:?}");
    }

    // Wrong methods on the v2 surface are 405s, not 500s or hangs.
    for path in ["/v2/analyze", "/v2/shard", "/v2/workers"] {
        let (status, _, resp) = get(addr, path);
        assert_eq!(status, 405, "GET {path}: {resp}");
        assert_eq!(error_kind(&resp), "method-not-allowed", "GET {path}");
    }
    let (status, _, resp) = post(addr, "/v2/fleet", "");
    assert_eq!(status, 405, "POST /v2/fleet: {resp}");
    assert_eq!(error_kind(&resp), "method-not-allowed");

    // Fleet control endpoints on a non-coordinator are typed 404s.
    for (method, path) in [("GET", "/v2/fleet"), ("POST", "/v2/workers")] {
        let body = if method == "POST" {
            Some("{\"addr\":\"127.0.0.1:1\"}")
        } else {
            None
        };
        let (status, _, resp) =
            http_call(&addr.to_string(), method, path, body).expect("http call");
        assert_eq!(status, 404, "{method} {path}: {resp}");
        assert_eq!(error_kind(&resp), "not-coordinator", "{method} {path}");
    }
    single.shutdown();
}
