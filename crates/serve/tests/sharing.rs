//! In-flight dataset sharing at the server boundary: requests on one
//! dataset digest that are running or queued together load it once (and
//! only those share), shared responses are byte-identical to in-process
//! execution ([`wl_serve::execute`]), and the `serve.dataset.*` counters
//! land in a `/metrics` export that passes trace validation.
//!
//! Two scenario shapes, both with 10000-job datasets so the first request
//! is still loading or analysing while the rest are admitted:
//! * running together — one worker per request, so every request runs at
//!   once; each digest group's leader goes first, and once both leaders
//!   are admitted the followers join their leaders' live slots;
//! * queued together — one worker, so no two requests ever run at once;
//!   the requests alternate digests in the queue and a later request
//!   shares the load of an earlier one on its digest because its queued
//!   requests held the slot meanwhile.
//!
//! The `wl-obs` counters are process-wide, so the tests take one lock:
//! nothing else in the process moves them between two snapshots.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use coplot::AnalysisRequest;
use wl_serve::http::http_call;
use wl_serve::{execute, start, ExecConfig, ServerConfig, ServerHandle};

/// One digest group: one dataset (models, 10000 jobs, seed 3), three
/// analyses. The digest covers the dataset, not the operation, so these
/// share a load while their analyses stay per-request. The first entry
/// is the leader.
const GROUP: [(&str, &str); 3] = [
    (
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":10000,\"seed\":3}",
    ),
    (
        "/v1/hurst",
        "{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"},\"jobs\":10000,\"seed\":3}",
    ),
    (
        "/v1/subset",
        "{\"op\":\"subset\",\"dataset\":{\"name\":\"models\"},\"jobs\":10000,\"seed\":3,\"subset_size\":3,\"top\":2}",
    ),
];

/// A second digest group (seed 4), in flight at the same time: it must
/// load on its own, never from the seed-3 slot.
const OTHER_GROUP: [(&str, &str); 2] = [
    (
        "/v1/coplot",
        "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":10000,\"seed\":4}",
    ),
    (
        "/v1/hurst",
        "{\"op\":\"hurst\",\"dataset\":{\"name\":\"models\"},\"jobs\":10000,\"seed\":4}",
    ),
];

const REQUESTS: usize = GROUP.len() + OTHER_GROUP.len();

/// Serializes the tests of this file around the process-wide counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn server_with(workers: usize, threads: usize) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 32,
        cache_capacity: 0, // no result cache: every answer is computed
        threads,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn fetch_metrics(addr: &str) -> String {
    let (status, _, body) = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    body
}

/// The integer `value` of the JSON-lines metric named `name` (0 when it
/// has not been emitted yet).
fn metric_value(metrics: &str, name: &str) -> i64 {
    let Some(line) = metrics
        .lines()
        .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
    else {
        return 0;
    };
    let rest = line
        .split("\"value\":")
        .nth(1)
        .unwrap_or_else(|| panic!("metric {name} has no value: {line}"));
    rest.split(|c: char| c != '-' && !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

fn spawn_posts(
    addr: &str,
    posts: &[(&'static str, &'static str)],
) -> Vec<std::thread::JoinHandle<(u16, String)>> {
    posts
        .iter()
        .map(|&(path, body)| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let (status, _, body) = http_call(&addr, "POST", path, Some(body)).unwrap();
                (status, body)
            })
        })
        .collect()
}

/// Block until `n` requests are admitted (`serve.inflight` reaches `n`).
fn wait_for_inflight(addr: &str, n: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while metric_value(&fetch_metrics(addr), "serve.inflight") < n {
        assert!(Instant::now() < deadline, "{n} requests were never in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Golden answers from in-process execution: every request alone, with no
/// slot shared and no cache. Computed before a metric snapshot, since
/// `execute` loads (and counts) too.
fn golden(posts: &[(&str, &str)], threads: usize) -> Vec<String> {
    posts
        .iter()
        .map(|&(_, body)| {
            let request = AnalysisRequest::from_json(body).unwrap();
            execute(&request, &ExecConfig::new(threads))
                .unwrap()
                .response
                .to_json()
        })
        .collect()
}

/// Join the POST threads and check every answer against its golden bytes.
fn assert_answers(
    handles: Vec<std::thread::JoinHandle<(u16, String)>>,
    golden: &[String],
    threads: usize,
) {
    assert_eq!(handles.len(), golden.len());
    for (handle, golden_body) in handles.into_iter().zip(golden) {
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, 200, "threads={threads}: {body}");
        assert_eq!(&body, golden_body, "byte-identical at threads={threads}");
    }
}

/// The `serve.dataset.{loads,shared}` growth between two exports.
fn dataset_deltas(before: &str, after: &str) -> (i64, i64) {
    let delta = |name| metric_value(after, name) - metric_value(before, name);
    (delta("serve.dataset.loads"), delta("serve.dataset.shared"))
}

#[test]
fn overlapping_requests_share_one_load_per_digest() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    for threads in [1usize, 8] {
        let golden_group = golden(&GROUP, threads);
        let golden_other = golden(&OTHER_GROUP, threads);

        let server = server_with(REQUESTS, threads);
        let addr = server.addr().to_string();
        let before = fetch_metrics(&addr);

        let mut group = spawn_posts(&addr, &GROUP[..1]);
        let mut other = spawn_posts(&addr, &OTHER_GROUP[..1]);
        wait_for_inflight(&addr, 2);
        group.extend(spawn_posts(&addr, &GROUP[1..]));
        other.extend(spawn_posts(&addr, &OTHER_GROUP[1..]));
        assert_answers(group, &golden_group, threads);
        assert_answers(other, &golden_other, threads);

        let after = fetch_metrics(&addr);
        assert_eq!(
            dataset_deltas(&before, &after),
            (2, (REQUESTS - 2) as i64),
            "one load per digest group, every follower shared (threads={threads})"
        );

        // The whole export — the serve.dataset.* counters included —
        // validates as a wl-obs trace.
        let stats = wl_obs::check_trace(&after).expect("metrics export validates");
        assert!(stats.metrics > 0, "export carries metric lines");
        server.shutdown();
    }
}

#[test]
fn queued_requests_share_the_load_of_a_request_ahead() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let threads = 2;
    // Digests alternate in the queue, as on a saturated server asked for
    // two datasets in turn.
    let posts = [GROUP[0], OTHER_GROUP[0], GROUP[1], OTHER_GROUP[1], GROUP[2]];
    let golden_posts = golden(&posts, threads);

    let server = server_with(1, threads);
    let addr = server.addr().to_string();
    let before = fetch_metrics(&addr);

    // One at a time, so the queue order is the send order.
    let mut handles = Vec::new();
    for (i, post) in posts.iter().enumerate() {
        handles.extend(spawn_posts(&addr, std::slice::from_ref(post)));
        wait_for_inflight(&addr, i as i64 + 1);
    }
    assert_answers(handles, &golden_posts, threads);

    let after = fetch_metrics(&addr);
    assert_eq!(
        dataset_deltas(&before, &after),
        (2, (posts.len() - 2) as i64),
        "one load per digest, though no two requests ever ran at once"
    );
    server.shutdown();
}
