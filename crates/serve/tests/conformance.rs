//! Protocol-conformance suite for the event-driven connection model:
//! pipelining, trickled requests, size caps, malformed request lines,
//! keep-alive semantics, and idle-timeout eviction. The contract under
//! test: every abusive input gets a *typed* 4xx (or a clean close) —
//! never a hang, never a 500.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wl_serve::http::{http_call, HttpClient};
use wl_serve::{start, ServerConfig, ServerHandle};

fn test_server(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 16,
        threads: 2,
        ..ServerConfig::default()
    };
    configure(&mut config);
    start(config).expect("bind test server")
}

/// Raw socket with a read timeout: conformance tests must never hang on a
/// server bug.
fn raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
}

fn read_all(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    // Three requests in one write; the middle one is a 404 so order is
    // observable; the last closes.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
              GET /v1/nope HTTP/1.1\r\nhost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    let raw = read_all(&mut stream);
    let statuses: Vec<&str> = raw
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|s| s.split(' ').next().unwrap())
        .collect();
    assert_eq!(statuses, ["200", "404", "200"], "in request order: {raw}");
    server.shutdown();
}

#[test]
fn pipelined_analysis_posts_answer_in_order() {
    let server = test_server(|_| {});
    let addr = server.addr().to_string();
    let body = |seed: u64| {
        format!("{{\"op\":\"coplot\",\"dataset\":{{\"name\":\"models\"}},\"jobs\":150,\"seed\":{seed}}}")
    };
    // Seed 4 is cached, so the reactor answers it at admission; seed 3 is
    // a miss that a worker computes. The hit must wait its turn.
    let (status, _, hit_body) = http_call(&addr, "POST", "/v1/coplot", Some(&body(4))).unwrap();
    assert_eq!(status, 200, "{hit_body}");
    let (miss, hit) = (body(3), body(4));
    let one = format!(
        "POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{miss}",
        miss.len()
    );
    let two = format!(
        "POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{hit}",
        hit.len()
    );
    let mut stream = raw(server.addr());
    stream.write_all(format!("{one}{two}").as_bytes()).unwrap();
    let raw = read_all(&mut stream);
    assert_eq!(
        raw.matches("HTTP/1.1 200").count(),
        2,
        "both pipelined analyses answered: {raw}"
    );
    let (_, _, miss_body) = http_call(&addr, "POST", "/v1/coplot", Some(&body(3))).unwrap();
    let first = raw.find(&miss_body).expect("the miss is answered");
    let second = raw.find(&hit_body).expect("the hit is answered");
    assert!(first < second, "the hit waits behind the miss: {raw}");
    server.shutdown();
}

#[test]
fn byte_at_a_time_request_still_parses() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    for byte in b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n" {
        stream.write_all(&[*byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let raw = read_all(&mut stream);
    assert!(raw.starts_with("HTTP/1.1 200"), "trickled request: {raw}");
    assert!(
        raw.ends_with("\"api_versions\":[1,2]}"),
        "body intact: {raw}"
    );
    server.shutdown();
}

#[test]
fn oversized_head_is_a_400_not_a_hang() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nx-filler: ")
        .unwrap();
    // Push the head past its 16 KiB cap without ever sending the
    // terminator: the server must fail it incrementally.
    let filler = vec![b'a'; 20 * 1024];
    let _ = stream.write_all(&filler);
    let raw = read_all(&mut stream);
    assert!(raw.starts_with("HTTP/1.1 400"), "oversized head: {raw}");
    assert!(raw.contains("bad-http"), "typed error: {raw}");
    server.shutdown();
}

#[test]
fn oversized_announced_body_is_rejected_before_upload() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    // 8 MiB announced, zero bytes sent: the 400 must arrive immediately
    // (the cap is enforced from Content-Length, not after the upload).
    stream
        .write_all(
            b"POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-length: 8388608\r\n\r\n",
        )
        .unwrap();
    let raw = read_all(&mut stream);
    assert!(raw.starts_with("HTTP/1.1 400"), "oversized body: {raw}");
    assert!(raw.contains("bad-http"), "typed error: {raw}");
    server.shutdown();
}

#[test]
fn deeply_nested_json_body_is_a_typed_400() {
    let server = test_server(|_| {});
    let addr = server.addr().to_string();
    // 20 KB of `[`: a parser recursing once per level without a limit
    // overflows its thread's stack and aborts the whole server.
    let deep = "[".repeat(20_000);
    let (status, _, body) = http_call(&addr, "POST", "/v1/coplot", Some(&deep)).unwrap();
    assert_eq!(status, 400, "deep body: {body}");
    assert!(
        body.contains("\"kind\":\"bad-json\""),
        "typed error: {body}"
    );
    let (status, _, body) = http_call(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "the server still serves: {body}");
    server.shutdown();
}

#[test]
fn malformed_request_lines_get_typed_400s() {
    let server = test_server(|_| {});
    for garbage in [
        "NONSENSE\r\n\r\n",
        "GET\r\n\r\n",
        "GET /healthz HTTP/9.9\r\n\r\n",
        "\r\n\r\n",
    ] {
        let mut stream = raw(server.addr());
        stream.write_all(garbage.as_bytes()).unwrap();
        let raw = read_all(&mut stream);
        assert!(
            raw.starts_with("HTTP/1.1 400"),
            "garbage {garbage:?}: {raw}"
        );
        assert!(raw.contains("bad-http"), "typed error for {garbage:?}");
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = test_server(|_| {});
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    client.set_timeout(Some(Duration::from_secs(20))).unwrap();
    for _ in 0..5 {
        let (status, headers, body) = client.call("GET", "/healthz", None).unwrap();
        assert_eq!(
            (status, body.as_str()),
            (200, "{\"status\":\"ok\",\"api_versions\":[1,2]}")
        );
        assert!(
            headers
                .iter()
                .any(|(k, v)| k == "connection" && v == "keep-alive"),
            "server advertises keep-alive: {headers:?}"
        );
    }
    server.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let raw = read_all(&mut stream); // read_to_end returning proves the server closed
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains("connection: close"),
        "server echoes the close decision: {raw}"
    );
    server.shutdown();
}

#[test]
fn http_10_defaults_to_close() {
    let server = test_server(|_| {});
    let mut stream = raw(server.addr());
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: t\r\n\r\n")
        .unwrap();
    let raw = read_all(&mut stream);
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("connection: close"), "1.0 closes: {raw}");
    server.shutdown();
}

#[test]
fn slowloris_mid_request_gets_408_and_eviction() {
    let server = test_server(|c| c.idle_timeout_ms = 200);
    let mut stream = raw(server.addr());
    // A partial head, then silence: the classic slowloris hold.
    stream
        .write_all(b"POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-le")
        .unwrap();
    let raw = read_all(&mut stream); // returns once the server evicts
    assert!(raw.starts_with("HTTP/1.1 408"), "slowloris eviction: {raw}");
    assert!(raw.contains("timeout"), "typed error: {raw}");

    let (_, _, metrics) =
        wl_serve::http::http_call(&server.addr().to_string(), "GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("serve.conn.idle_evicted"),
        "eviction is counted"
    );
    assert!(metrics.contains("serve.http.408"), "408s are counted");
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_closes_silently() {
    let server = test_server(|c| c.idle_timeout_ms = 200);
    let mut client = HttpClient::connect(&server.addr().to_string()).unwrap();
    client.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let (status, _, _) = client.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    // Now idle past the timeout: the server closes without a 408 (no
    // request is in flight, so there is nothing to answer).
    std::thread::sleep(Duration::from_millis(600));
    let err = client.call("GET", "/healthz", None);
    assert!(
        err.is_err(),
        "evicted connection no longer serves: {err:?}"
    );
    // The server itself is healthy — only the idle connection was dropped.
    let (status, _, _) =
        wl_serve::http::http_call(&server.addr().to_string(), "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}
