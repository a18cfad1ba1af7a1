//! Load-path behavior of the event-driven model: saturation (503 +
//! `Retry-After` while admitted work completes, and result-cache hits
//! answered at admission even then), graceful drain mid-flight — via
//! `POST /v1/shutdown`, via [`wl_serve::Drainer`], and via
//! `--stdin-shutdown` on the real binary — always with connections
//! mid-read when the drain lands.
//!
//! The saturation tests hold the only worker on a FIFO
//! ([`common::HeldDataset`]) and wait on the process-wide
//! `serve.inflight` gauge, so every test that runs a server in this
//! process takes one lock.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use common::{spawn_wl_serve, wait_for_inflight, HeldDataset};
use wl_serve::http::{http_call, HttpClient};
use wl_serve::{start, ServerConfig, ServerHandle};

/// Slow enough (≈0.2 s release) that the drain tests' connections are
/// usually still busy when the drain lands; they pass either way.
const SLOW_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"table3\"},\"jobs\":20000,\"seed\":7}";
const FAST_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":3}";
/// [`FAST_BODY`] on other seeds: misses when [`FAST_BODY`] is cached.
const MISS_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":4}";
const OTHER_MISS_BODY: &str =
    "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":5}";

/// Serializes the in-process servers of this file around the
/// process-wide gauges.
static GAUGES: Mutex<()> = Mutex::new(());

fn gauges() -> MutexGuard<'static, ()> {
    GAUGES.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// A POST running on a thread of its own; joins to `(status, body)`.
type Pending = std::thread::JoinHandle<(u16, String)>;

fn post_coplot(addr: String, body: impl Into<String>) -> Pending {
    let body = body.into();
    std::thread::spawn(move || {
        let (status, _, body) = http_call(&addr, "POST", "/v1/coplot", Some(&body)).unwrap();
        (status, body)
    })
}

/// With one worker and a one-slot queue: the worker is held running `a`
/// and the queue holds `b` (a miss), so the queue is full. Returns `a`'s
/// FIFO for [`HeldDataset::release`].
fn saturate(addr: &str, held: &HeldDataset) -> (std::fs::File, Pending, Pending) {
    let a = post_coplot(addr.to_string(), held.body());
    let fifo = held.wait_for_worker(); // the only worker is running `a`
    let b = post_coplot(addr.to_string(), MISS_BODY);
    wait_for_inflight(addr, 2); // `b` is queued
    (fifo, a, b)
}

#[test]
fn saturated_queue_answers_503_while_admitted_work_completes() {
    let _gauges = gauges();
    let server = test_server(|c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let addr = server.addr().to_string();
    let held = HeldDataset::new("saturated");
    let (fifo, a, b) = saturate(&addr, &held);

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

    held.release(fifo);
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
fn cache_hit_is_answered_while_the_queue_is_full() {
    let _gauges = gauges();
    let server = test_server(|c| {
        c.workers = 1;
        c.queue_capacity = 1;
        c.cache_capacity = 16;
    });
    let addr = server.addr().to_string();
    let mut c = HttpClient::connect(&addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let (status, _, warm) = c.call("POST", "/v1/coplot", Some(FAST_BODY)).unwrap();
    assert_eq!(status, 200, "{warm}");

    let held = HeldDataset::new("hit-while-full");
    let (fifo, a, b) = saturate(&addr, &held);

    // A miss needs a queue slot and bounces...
    let (status, _, body) = c.call("POST", "/v1/coplot", Some(OTHER_MISS_BODY)).unwrap();
    assert_eq!(status, 503, "a miss over capacity: {body}");
    // ...but a hit needs none: the reactor answers it from the cache.
    let (status, _, hit) = c.call("POST", "/v1/coplot", Some(FAST_BODY)).unwrap();
    assert_eq!(status, 200, "a hit over capacity: {hit}");
    assert_eq!(hit, warm, "the hit is the cached bytes");

    held.release(fifo);
    let (status_a, body_a) = a.join().unwrap();
    let (status_b, body_b) = b.join().unwrap();
    assert_eq!((status_a, status_b), (200, 200), "{body_a}\n{body_b}");
    server.shutdown();
}

#[test]
fn shutdown_endpoint_drains_gracefully_mid_flight() {
    let _gauges = gauges();
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
    let _gauges = gauges();
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
    let mut server = spawn_wl_serve(&["--stdin-shutdown", "--workers", "2", "--cache", "0"]);

    let inflight = post_coplot(server.addr.clone(), SLOW_BODY);
    std::thread::sleep(Duration::from_millis(250));
    // One byte on stdin initiates the drain while the request is running.
    server.child.stdin.take().unwrap().write_all(b"q").unwrap();

    let (status, body) = inflight.join().unwrap();
    assert_eq!(status, 200, "request survived the stdin shutdown: {body}");
    let exit = server.child.wait().expect("wait for wl-serve");
    assert!(exit.success(), "clean exit after drain: {exit:?}");
}
