//! What requests share at the server boundary.
//!
//! In-flight dataset sharing: requests on one dataset digest that are
//! running or queued together load it once (and only those share),
//! shared responses are byte-identical to in-process execution
//! ([`wl_serve::execute`]), and the `serve.dataset.*` counters land in a
//! `/metrics` export that passes trace validation. Two scenario shapes,
//! both with 10000-job datasets so the first request is still loading or
//! analysing while the rest are admitted:
//! * running together — one worker per request, so every request runs at
//!   once; each digest group's leader goes first, and once both leaders
//!   are admitted the followers join their leaders' live slots;
//! * queued together — one worker, so no two requests ever run at once;
//!   the requests alternate digests in the queue and a later request
//!   shares the load of an earlier one on its digest because its queued
//!   requests held the slot meanwhile. A fleet worker behind a
//!   coordinator shares the same way, shard by shard.
//!
//! Result-cache hits: identical requests count one miss and then only
//! hits, on one node and on a coordinator, though the reactor and then a
//! worker may look a request up.
//!
//! fGn amplitudes: a server whose amplitude table is warm answers with
//! the bytes of one that computes every amplitude afresh.
//!
//! The `wl-obs` counters are process-wide, so the tests take one lock:
//! nothing else in the process moves them between two snapshots.

mod common;

use std::sync::{Mutex, PoisonError};

use common::{fetch_metrics, metric_value, spawn_wl_serve, wait_for_inflight};
use coplot::AnalysisRequest;
use wl_serve::dist::CoordinatorConfig;
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

#[test]
fn fleet_worker_shares_in_flight_loads() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let threads = 2;
    // The queued-together shape, one step away: a coordinator sends each
    // request to its one worker as a shard, and the worker holds each
    // shard's dataset slot from admission as it does an analysis's.
    let posts = [GROUP[0], OTHER_GROUP[0], GROUP[1], OTHER_GROUP[1], GROUP[2]];
    let golden_posts = golden(&posts, threads);

    let worker = spawn_wl_serve(&["--workers", "1", "--threads", "2", "--cache", "0"]);
    let worker_addr = worker.addr.clone();
    let coordinator = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: posts.len(),
        cache_capacity: 0,
        threads,
        coordinator: Some(CoordinatorConfig {
            workers: vec![worker_addr.clone()],
            probe_interval_ms: 3_600_000,
        }),
        ..ServerConfig::default()
    })
    .expect("bind test coordinator");
    let addr = coordinator.addr().to_string();

    // One at a time, so the worker's queue order is the send order.
    let mut handles = Vec::new();
    for (i, post) in posts.iter().enumerate() {
        handles.extend(spawn_posts(&addr, std::slice::from_ref(post)));
        wait_for_inflight(&worker_addr, i as i64 + 1);
    }
    assert_answers(handles, &golden_posts, threads);

    // The worker runs in a process of its own: its counters are its own.
    let metrics = fetch_metrics(&worker_addr);
    assert_eq!(
        (
            metric_value(&metrics, "serve.dataset.loads"),
            metric_value(&metrics, "serve.dataset.shared"),
        ),
        (2, (posts.len() - 2) as i64),
        "one load per digest on the worker"
    );
    coordinator.shutdown();
    worker.shutdown();
}

/// `n` identical POSTs of `body` to `addr`: every answer 200 with the
/// first answer's bytes. Returns the `serve.cache.{miss,hit}` growth in
/// this process's registry.
fn post_identical(addr: &str, body: &str, n: i64) -> (i64, i64) {
    let own = || wl_obs::export_json_lines(&wl_obs::registry().snapshot(), &[]);
    let before = own();
    let mut first: Option<String> = None;
    for _ in 0..n {
        let (status, _, resp) = http_call(addr, "POST", "/v1/coplot", Some(body)).unwrap();
        assert_eq!(status, 200, "{resp}");
        assert_eq!(first.get_or_insert_with(|| resp.clone()), &resp);
    }
    let after = own();
    let delta = |name| metric_value(&after, name) - metric_value(&before, name);
    (delta("serve.cache.miss"), delta("serve.cache.hit"))
}

#[test]
fn identical_requests_count_one_miss_then_hits() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    const N: i64 = 5;
    let body = "{\"op\":\"coplot\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":21}";
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 16,
        threads: 2,
        ..ServerConfig::default()
    };

    let server = start(config.clone()).expect("bind test server");
    assert_eq!(
        post_identical(&server.addr().to_string(), body, N),
        (1, N - 1),
        "one node"
    );
    server.shutdown();

    // The coordinator's worker runs in a process of its own, so only the
    // coordinator's lookups reach this process's counters.
    let worker = spawn_wl_serve(&["--workers", "1", "--threads", "2"]);
    let worker_addr = worker.addr.clone();
    let coordinator = start(ServerConfig {
        coordinator: Some(CoordinatorConfig {
            workers: vec![worker_addr.clone()],
            probe_interval_ms: 3_600_000,
        }),
        ..config
    })
    .expect("bind test coordinator");
    assert_eq!(
        post_identical(&coordinator.addr().to_string(), body, N),
        (1, N - 1),
        "coordinator"
    );
    coordinator.shutdown();
    worker.shutdown();
}

#[test]
fn warm_amplitude_table_answers_the_bytes_of_a_cold_one() {
    // Each wl-serve process starts with an empty amplitude table, and
    // `--cache 0` makes every answer a fresh synthesis.
    let body = |seed: u64| {
        format!("{{\"op\":\"coplot\",\"dataset\":{{\"name\":\"table1\"}},\"jobs\":1024,\"seed\":{seed}}}")
    };
    let serve = |seeds: &[u64]| -> (Vec<String>, String, String) {
        let server = spawn_wl_serve(&["--workers", "1", "--threads", "2", "--cache", "0"]);
        let addr = server.addr.clone();
        let mut bodies = Vec::new();
        let mut after_first = String::new();
        for &seed in seeds {
            let (status, _, resp) = http_call(&addr, "POST", "/v1/coplot", Some(&body(seed))).unwrap();
            assert_eq!(status, 200, "{resp}");
            bodies.push(resp);
            if after_first.is_empty() {
                after_first = fetch_metrics(&addr);
            }
        }
        let after_all = fetch_metrics(&addr);
        server.shutdown();
        (bodies, after_first, after_all)
    };
    let (cold_a, _, _) = serve(&[1999]);
    let (cold_b, _, _) = serve(&[7]);
    let (warm, after_first, after_all) = serve(&[1999, 7, 1999, 7]);
    // table1's seeds share their (H, m) keys: after the first load,
    // every amplitude comes from the table.
    let delta = |name| metric_value(&after_all, name) - metric_value(&after_first, name);
    assert_eq!(delta("fgn.amps.miss"), 0, "warm loads compute no amplitudes");
    assert!(delta("fgn.amps.hit") > 0);
    assert_eq!(warm[0], cold_a[0]);
    for (i, cold) in [(1, &cold_b[0]), (2, &cold_a[0]), (3, &cold_b[0])] {
        assert_eq!(&warm[i], cold, "request {i} with the table warm");
    }
}
