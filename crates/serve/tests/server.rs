//! End-to-end tests for the `wl-serve` HTTP service: routing, typed
//! errors (never a 500), caching, deadlines, and graceful drain
//! (bounded-queue saturation is in `event_load.rs`).
//!
//! Every server binds `127.0.0.1:0` so tests run in parallel without
//! port conflicts. The `wl-obs` registry is process-global, so metric
//! assertions check presence, not exact counts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wl_serve::http::http_call;
use wl_serve::{start, ServerConfig, ServerHandle};

fn test_server(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 16,
        threads: 2,
        default_deadline_ms: None,
        ..ServerConfig::default()
    };
    configure(&mut config);
    start(config).expect("bind test server")
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

/// A cheap coplot request body (models = 5 workloads, small job count —
/// but at least 150 jobs so the Jann model can be re-fitted to the
/// synthesized CTC log).
fn coplot_body(seed: u64) -> String {
    format!(
        "{{\"op\":\"coplot\",\"dataset\":{{\"name\":\"models\"}},\"jobs\":150,\"seed\":{seed}}}"
    )
}

#[test]
fn healthz_and_datasets() {
    let server = test_server(|_| {});
    let addr = server.addr();
    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(
        (status, body.as_str()),
        (200, "{\"status\":\"ok\",\"api_versions\":[1,2]}")
    );

    let (status, _, body) = get(addr, "/v1/datasets");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"api_versions\":[1,2]"),
        "datasets advertises the supported api versions: {body}"
    );
    let v = wl_obs::parse_json(&body).expect("datasets JSON");
    let wl_obs::JsonValue::Array(entries) = v.get("datasets").expect("datasets field").clone()
    else {
        panic!("datasets is not an array: {body}");
    };
    let names: Vec<String> = entries
        .iter()
        .map(|d| d.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(
        names,
        ["table1", "table2", "models", "table3", "grid", "web", "crossdomain"]
    );
    let formats: Vec<String> = entries
        .iter()
        .map(|d| d.get("format").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(
        formats,
        ["swf", "swf", "swf", "swf", "gwf", "weblog", "synthetic"]
    );
    server.shutdown();
}

#[test]
fn bad_requests_get_typed_400s_never_500() {
    let server = test_server(|_| {});
    let addr = server.addr();
    // (body, expected error kind) — one row per failure class.
    let table = [
        ("{not json", "bad-json"),
        ("[1,2,3]", "bad-schema"),
        ("{\"dataset\":{\"name\":\"models\"}}", "bad-schema"),
        ("{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":0}", "bad-value"),
        // op/endpoint mismatch
        ("{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"}}", "bad-value"),
    ];
    for (body, want_kind) in table {
        let (status, _, resp) = post(addr, "/v1/coplot", body);
        assert_eq!(status, 400, "body {body:?} -> {resp}");
        assert_eq!(error_kind(&resp), want_kind, "body {body:?}");
    }
    // Non-UTF-8 body.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            b"POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\nconnection: close\r\n\r\n\xff\xfe",
        )
        .unwrap();
    let mut raw = String::new();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    raw.push_str(&String::from_utf8_lossy(&buf));
    assert!(raw.starts_with("HTTP/1.1 400"), "got {raw}");
    // Malformed HTTP gets a typed 400 too.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let raw = String::from_utf8_lossy(&buf);
    assert!(raw.starts_with("HTTP/1.1 400"), "got {raw}");
    assert!(raw.contains("bad-http"), "got {raw}");
    server.shutdown();
}

#[test]
fn routing_404_405_and_unknown_dataset() {
    let server = test_server(|_| {});
    let addr = server.addr();

    let (status, _, body) = get(addr, "/v1/nope");
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "not-found");

    let (status, _, body) = get(addr, "/v1/coplot");
    assert_eq!(status, 405);
    assert_eq!(error_kind(&body), "method-not-allowed");

    let (status, _, body) = post(
        addr,
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"tableXL\"}}",
    );
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "not-found");
    assert!(body.contains("table1"), "404 lists available datasets: {body}");

    // A dataset path that does not exist on disk is also not-found.
    let (status, _, body) = post(
        addr,
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"paths\":[\"/no/such/file.swf\",\"b.swf\",\"c.swf\"]}}",
    );
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "not-found");
    server.shutdown();
}

#[test]
fn cache_hits_are_byte_identical() {
    let server = test_server(|_| {});
    let addr = server.addr();
    let body = coplot_body(42);

    let (status, _, first) = post(addr, "/v1/coplot", &body);
    assert_eq!(status, 200, "{first}");
    let (status, _, second) = post(addr, "/v1/coplot", &body);
    assert_eq!(status, 200);
    assert_eq!(first, second, "cache hit must be byte-identical");

    // A semantically identical request with different field order and an
    // added deadline still hits the cache (canonical digest ignores both).
    let reordered =
        "{\"seed\":42,\"jobs\":150,\"dataset\":{\"name\":\"models\"},\"op\":\"coplot\",\"deadline_ms\":60000}";
    let (status, _, third) = post(addr, "/v1/coplot", reordered);
    assert_eq!(status, 200);
    assert_eq!(first, third, "canonicalized requests share a cache entry");

    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve.cache.hit"),
        "metrics export the cache hit counter"
    );
    assert!(metrics.contains("serve.cache.miss"));
    server.shutdown();
}

#[test]
fn responses_parse_as_analysis_responses() {
    let server = test_server(|_| {});
    let addr = server.addr();

    let (status, _, body) = post(addr, "/v1/coplot", &coplot_body(7));
    assert_eq!(status, 200);
    let parsed = coplot::AnalysisResponse::from_json(&body).expect("coplot response parses");
    assert_eq!(parsed.to_json(), body, "response JSON round-trips exactly");

    let (status, _, body) = post(
        addr,
        "/v1/hurst",
        "{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":7}",
    );
    assert_eq!(status, 200, "{body}");
    let parsed = coplot::AnalysisResponse::from_json(&body).expect("hurst response parses");
    assert_eq!(parsed.to_json(), body);

    let (status, _, body) = post(
        addr,
        "/v1/subset",
        "{\"op\":\"subset\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":7,\"subset_size\":3,\"top\":2}",
    );
    assert_eq!(status, 200, "{body}");
    let parsed = coplot::AnalysisResponse::from_json(&body).expect("subset response parses");
    assert_eq!(parsed.to_json(), body);
    server.shutdown();
}

#[test]
fn expired_deadline_is_a_504() {
    let server = test_server(|_| {});
    let addr = server.addr();
    let body =
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"table3\"},\"jobs\":2000,\"seed\":9,\"deadline_ms\":1}";
    let (status, _, resp) = post(addr, "/v1/coplot", body);
    assert_eq!(status, 504, "{resp}");
    assert_eq!(error_kind(&resp), "deadline");
    server.shutdown();
}

#[test]
fn metrics_are_a_valid_trace_document() {
    let server = test_server(|_| {});
    let addr = server.addr();
    // Touch a few endpoints so histograms and counters exist.
    let _ = get(addr, "/healthz");
    let _ = post(addr, "/v1/coplot", &coplot_body(11));
    let (status, headers, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(k, v)| k == "content-type" && v == "application/x-ndjson"));
    let stats = wl_obs::check_trace(&body).expect("/metrics passes trace-check");
    assert!(stats.metrics > 0, "metrics document is non-empty");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let server = test_server(|_| {});
    let addr = server.addr();
    // Prime with a real request so drain has completed work behind it.
    let (status, _, _) = post(addr, "/v1/coplot", &coplot_body(55));
    assert_eq!(status, 200);

    let (status, _, body) = post(addr, "/v1/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "draining\n"));

    // join() returns once the accept loop and workers have stopped.
    server.join();

    // The listener is gone: new connections are refused (or time out).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    assert!(refused, "drained server no longer accepts connections");
}
