//! Load-path behavior of the event-driven model: saturation (503 +
//! `Retry-After` while admitted work completes), graceful drain
//! mid-flight — via `POST /v1/shutdown`, via [`wl_serve::Drainer`], and
//! via `--stdin-shutdown` on the real binary — always with connections
//! mid-read when the drain lands.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use wl_serve::http::{http_call, HttpClient};
use wl_serve::{start, ServerConfig, ServerHandle};

/// Slow enough (≈0.5 s release, ≈2.6 s debug) to hold a worker while the
/// test probes the queue around it.
const SLOW_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"table3\"},\"jobs\":20000,\"seed\":7}";
const FAST_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":3}";

fn test_server(configure: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 0,
        threads: 2,
        ..ServerConfig::default()
    };
    configure(&mut config);
    start(config).expect("bind test server")
}

fn post_coplot(addr: String, body: &'static str) -> std::thread::JoinHandle<(u16, String)> {
    std::thread::spawn(move || {
        let (status, _, body) = http_call(&addr, "POST", "/v1/coplot", Some(body)).unwrap();
        (status, body)
    })
}

#[test]
fn saturated_queue_answers_503_while_admitted_work_completes() {
    let server = test_server(|c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let addr = server.addr().to_string();

    let a = post_coplot(addr.clone(), SLOW_BODY); // taken by the only worker
    std::thread::sleep(Duration::from_millis(250));
    let b = post_coplot(addr.clone(), SLOW_BODY); // fills the queue
    std::thread::sleep(Duration::from_millis(150));

    let mut c = HttpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let (status, headers, body) = c.call("POST", "/v1/coplot", Some(FAST_BODY)).unwrap();
    assert_eq!(status, 503, "over capacity: {body}");
    assert!(
        headers.iter().any(|(k, v)| k == "retry-after" && v == "1"),
        "retry-after advertised: {headers:?}"
    );
    assert!(body.contains("overloaded"), "typed rejection: {body}");
    let (_, _, metrics) = c.call("GET", "/metrics", None).unwrap();
    assert!(
        metrics.contains("serve.queue.rejected"),
        "the rejection is counted in /metrics"
    );

    // The rejection costs a response, not the connection.
    let (status, _, _) = c.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "connection survives the 503");

    let (status_a, body_a) = a.join().unwrap();
    let (status_b, body_b) = b.join().unwrap();
    assert_eq!(status_a, 200, "in-flight work unaffected: {body_a}");
    assert_eq!(status_b, 200, "queued work completed: {body_b}");

    // Capacity freed: the same socket's retry now succeeds.
    let (status, _, body) = c.call("POST", "/v1/coplot", Some(FAST_BODY)).unwrap();
    assert_eq!(status, 200, "retry after backoff: {body}");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_drains_gracefully_mid_flight() {
    let server = test_server(|_| {});
    let addr = server.addr().to_string();

    let inflight = post_coplot(addr.clone(), SLOW_BODY);
    std::thread::sleep(Duration::from_millis(250));

    // A connection caught mid-read (half a request line) when the drain
    // lands.
    let mut mid_read = TcpStream::connect(server.addr()).unwrap();
    mid_read
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    mid_read
        .write_all(b"POST /v1/coplot HTTP/1.1\r\nhost: t\r\ncontent-le")
        .unwrap();

    let (status, _, body) = http_call(&addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "draining\n"));

    let (status, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "in-flight request finished during drain: {body}");

    let addr = server.addr();
    server.join(); // returns only once fully drained

    // The unfinished connection was dropped without a response…
    let mut rest = Vec::new();
    let _ = mid_read.read_to_end(&mut rest);
    assert!(
        rest.is_empty(),
        "no response owed to an unfinished request: {:?}",
        String::from_utf8_lossy(&rest)
    );
    // …and the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after drain"
    );
}

#[test]
fn drainer_initiated_drain_completes_in_flight_work() {
    // The same trigger the binary's --stdin-shutdown watcher uses.
    let server = test_server(|_| {});
    let addr = server.addr().to_string();

    let inflight = post_coplot(addr.clone(), SLOW_BODY);
    std::thread::sleep(Duration::from_millis(250));

    let mut idle = HttpClient::connect(&addr).unwrap();
    idle.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let (status, _, _) = idle.call("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    server.initiate_drain();
    let (status, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "busy connection finished: {body}");
    server.join();

    assert!(
        idle.call("GET", "/healthz", None).is_err(),
        "idle keep-alive connection dropped by the drain"
    );
}

#[test]
fn stdin_shutdown_drains_under_load() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_wl-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--stdin-shutdown",
            "--workers",
            "2",
            "--cache",
            "0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wl-serve");

    // The banner line announces the ephemeral port.
    let mut stdout = child.stdout.take().unwrap();
    let mut banner = Vec::new();
    let mut byte = [0u8; 1];
    while !banner.ends_with(b"\n") {
        let n = stdout.read(&mut byte).expect("read banner");
        assert!(n > 0, "server exited before binding");
        banner.push(byte[0]);
    }
    let banner = String::from_utf8(banner).unwrap();
    let addr = banner
        .rsplit("http://")
        .next()
        .expect("banner carries the address")
        .trim()
        .to_string();

    let inflight = post_coplot(addr, SLOW_BODY);
    std::thread::sleep(Duration::from_millis(250));
    // One byte on stdin initiates the drain while the request is running.
    child.stdin.take().unwrap().write_all(b"q").unwrap();

    let (status, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "request survived the stdin shutdown: {body}");
    let exit = child.wait().expect("wait for wl-serve");
    assert!(exit.success(), "clean exit after drain: {exit:?}");
}
