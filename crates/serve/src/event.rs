//! The server's connection layer: one reactor thread drives every socket
//! non-blocking through `poll(2)` ([`wl_par::poll`]), and a worker pool
//! executes fully-parsed requests.
//!
//! Division of labor:
//!
//! * The **reactor** owns the listener and every connection. Per turn it
//!   polls for readiness, accepts, reads into per-connection buffers,
//!   parses incrementally ([`crate::http::try_parse`] — pipelining falls
//!   out of the `consumed` offset), answers cheap endpoints, 4xx replies
//!   and result-cache hits on named datasets inline, and dispatches the
//!   remaining analysis/shard/stream work to the queue — an analysis or
//!   fleet shard of a named dataset holding its digest's in-flight slot
//!   from there on, so requests queued or running together on one digest
//!   load it once (see [`crate::exec`]). It never blocks on a socket and
//!   never runs an analysis: a slow client costs a table slot, not a
//!   thread.
//! * **Workers** pop one job at a time from a plain FIFO, execute it,
//!   serialize the response, and hand the bytes back through the
//!   completion list, waking the reactor via its self-pipe
//!   ([`wl_par::poll::Waker`]).
//!
//! Connection life cycle: accept → (read ⇄ parse ⇄ dispatch → write)* →
//! close. One request per connection is outstanding at a time (pipelined
//! bytes wait in the buffer — responses stay in request order by
//! construction). Idle connections are evicted on a deadline: mid-request
//! idlers (slowloris) get a typed 408, idle keep-alive connections close
//! silently. Admission is bounded by `queue_capacity`; a full queue
//! answers 503 + `Retry-After` inline without dropping the connection. A
//! result-cache hit needs no queue slot, so it is answered even then.
//!
//! Drain: stop accepting, drop idle connections, answer any further
//! parsed requests 503 `draining`, let dispatched work finish and flush,
//! then exit once no connection, queued job, or in-flight job remains.
//! Completions for connections that died meanwhile are dropped by
//! connection id (ids are never reused).

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wl_par::poll::{waker, PollSet, WakeReceiver, Waker};

use crate::cache::ResultCache;
use crate::dist::coordinator::{aggregated_metrics, execute_via_fleet};
use crate::dist::Coordinator;
use crate::exec::{DatasetSlot, InFlight};
use crate::http::{try_parse, HttpError, ParseStatus, Request, Response};
use crate::server::{
    classify, error_body, execute_prepared, fleet_response, own_metrics_response, prepare,
    record_status, stream_response, Endpoint, Prepared, Routed, ServerConfig,
};

/// One unit of work bound for the pool: a fully-parsed, validated request
/// plus everything needed to answer it without touching the connection.
struct Job {
    conn: u64,
    keep_alive: bool,
    started: Instant,
    endpoint: Endpoint,
    kind: JobKind,
}

enum JobKind {
    /// An analysis or a `/v2/shard` POST (workers in a fleet run these),
    /// with its dataset's in-flight slot when that was held at admission
    /// ([`Prepared::named_dataset_digest`]).
    Analysis(Prepared, Option<Arc<DatasetSlot>>),
    Stream(Request),
    /// Coordinator `GET /metrics`: scraping workers is network I/O, so it
    /// runs on the pool, never the reactor.
    FleetMetrics,
}

/// A finished job: response bytes ready to splice into the connection's
/// write buffer.
struct Completion {
    conn: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// State shared between the reactor and the workers.
pub(crate) struct EventShared {
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    draining: AtomicBool,
    inflight: AtomicI64,
    cache: ResultCache,
    datasets: InFlight,
    waker: Waker,
    coordinator: Option<Arc<Coordinator>>,
}

/// A cloneable drain trigger (for signal/stdin watchers).
#[derive(Clone)]
pub struct Drainer {
    shared: Arc<EventShared>,
}

impl Drainer {
    /// Begin draining: stop accepting, let in-flight work finish.
    pub fn initiate(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        self.shared.waker.wake();
    }
}

/// The running event server: reactor thread + worker pool.
pub(crate) struct EventHandle {
    shared: Arc<EventShared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventHandle {
    pub(crate) fn drainer(&self) -> Drainer {
        Drainer {
            shared: Arc::clone(&self.shared),
        }
    }

    pub(crate) fn join(mut self) {
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Start the reactor and workers on an already-bound, non-blocking
/// listener.
pub(crate) fn start(
    listener: TcpListener,
    config: ServerConfig,
    coordinator: Option<Arc<Coordinator>>,
) -> io::Result<EventHandle> {
    let (wake_tx, wake_rx) = waker()?;
    let shared = Arc::new(EventShared {
        cache: ResultCache::new(config.cache_capacity),
        config,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        draining: AtomicBool::new(false),
        inflight: AtomicI64::new(0),
        datasets: InFlight::default(),
        waker: wake_tx,
        coordinator,
    });

    let workers = (0..shared.config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let reactor_shared = Arc::clone(&shared);
    let reactor =
        std::thread::spawn(move || reactor_loop(&listener, wake_rx, &reactor_shared));

    Ok(EventHandle {
        shared,
        reactor: Some(reactor),
        workers,
    })
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Received, not-yet-parsed bytes (pipelined requests queue up here).
    buf: Vec<u8>,
    /// Response bytes awaiting the socket.
    out: Vec<u8>,
    /// How much of `out` has been written.
    out_pos: usize,
    /// A request from this connection is queued or executing; reads pause
    /// until its completion lands (this is what keeps responses ordered).
    busy: bool,
    /// Close once `out` drains (explicit `Connection: close`, errors,
    /// drain).
    close_after_write: bool,
    /// Peer half-closed; stop reading but finish pending writes.
    stop_reading: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            busy: false,
            close_after_write: false,
            stop_reading: false,
            last_activity: Instant::now(),
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Record a response (already counted in metrics by the caller) for
    /// writing, honoring its keep-alive decision.
    fn push_response(&mut self, response: &Response, keep_alive: bool) {
        self.out.extend_from_slice(&response.to_bytes(keep_alive));
        if !keep_alive {
            self.close_after_write = true;
        }
    }
}

/// What a connection should do next after an I/O step.
#[derive(PartialEq)]
enum Fate {
    Alive,
    Dead,
}

fn reactor_loop(listener: &TcpListener, mut wake_rx: WakeReceiver, shared: &Arc<EventShared>) {
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_id: u64 = 0;
    let mut set = PollSet::new();
    let idle_timeout = Duration::from_millis(shared.config.idle_timeout_ms.max(1));

    loop {
        let draining = shared.draining.load(Ordering::SeqCst);
        if draining {
            // Drop connections with nothing in flight and nothing to
            // write; everything else finishes its work, flushes, closes.
            conns.retain(|_, c| {
                let keep = c.busy || c.has_output();
                if keep {
                    c.close_after_write = true;
                } else {
                    wl_obs::counter!("serve.conn.closed", 1);
                }
                keep
            });
            wl_obs::gauge_set!("serve.conn.open", conns.len() as i64);
            let queue_empty = shared.queue.lock().unwrap().is_empty();
            if conns.is_empty()
                && queue_empty
                && shared.inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
        }

        // Register interest: the listener (unless draining), the waker,
        // and every connection that wants to read or write.
        set.clear();
        let listener_slot =
            (!draining).then(|| set.push(listener.as_raw_fd(), true, false));
        let wake_slot = set.push(wake_rx.fd(), true, false);
        let mut slots: Vec<(u64, usize)> = Vec::with_capacity(conns.len());
        for (&id, conn) in &conns {
            let read = !conn.busy && !conn.stop_reading && !draining;
            let write = conn.has_output();
            if read || write {
                slots.push((id, set.push(conn.stream.as_raw_fd(), read, write)));
            }
        }

        let _ = set.wait(Some(Duration::from_millis(100)));

        if set.readiness(wake_slot).readable {
            wake_rx.drain();
        }

        // Completions first: they free connections to read their next
        // pipelined request in this same turn.
        let completions = std::mem::take(&mut *shared.completions.lock().unwrap());
        for c in completions {
            let Some(conn) = conns.get_mut(&c.conn) else {
                continue; // connection died while the job ran
            };
            conn.out.extend_from_slice(&c.bytes);
            conn.busy = false;
            conn.close_after_write |= c.close;
            conn.last_activity = Instant::now();
            let mut fate = match dispatch_buffered(c.conn, conn, shared, draining) {
                Ok(f) | Err(f) => f,
            };
            if fate == Fate::Alive {
                fate = match write_some(conn) {
                    Ok(f) | Err(f) => f,
                };
            }
            if fate == Fate::Dead {
                close_conn(&mut conns, c.conn);
            }
        }

        // New connections.
        if listener_slot.is_some_and(|s| set.readiness(s).readable) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        wl_obs::counter!("serve.conn.accepted", 1);
                        conns.insert(next_id, Conn::new(stream));
                        next_id += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Connection I/O.
        for (id, slot) in slots {
            let ready = set.readiness(slot);
            if !ready.any() {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let mut fate = Fate::Alive;
            if ready.readable && fate == Fate::Alive {
                fate = read_some(conn);
                if fate == Fate::Alive {
                    fate = match dispatch_buffered(id, conn, shared, draining) {
                        Ok(f) | Err(f) => f,
                    };
                }
            }
            if (ready.writable || conn.has_output()) && fate == Fate::Alive {
                fate = match write_some(conn) {
                    Ok(f) | Err(f) => f,
                };
            }
            if ready.error && fate == Fate::Alive && !conn.busy && !conn.has_output() {
                fate = Fate::Dead;
            }
            if fate == Fate::Dead {
                close_conn(&mut conns, id);
            }
        }

        // Idle eviction. Busy connections are exempt (their budget is the
        // request deadline, not the socket timeout).
        if !draining {
            let now = Instant::now();
            let evict: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| !c.busy && now - c.last_activity >= idle_timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in evict {
                let conn = conns.get_mut(&id).expect("listed above");
                wl_obs::counter!("serve.conn.idle_evicted", 1);
                if !conn.buf.is_empty() && !conn.has_output() {
                    // Mid-request (slowloris): a typed timeout, then close.
                    let response = Response::json(
                        408,
                        error_body("timeout", "request not completed within idle timeout"),
                    );
                    record_status(408);
                    conn.push_response(&response, false);
                    let _ = write_some(conn);
                }
                close_conn(&mut conns, id);
            }
            wl_obs::gauge_set!("serve.conn.open", conns.len() as i64);
        }
    }

    // Wake any worker still parked so it can observe the drain and exit.
    shared.available.notify_all();
}

fn close_conn(conns: &mut BTreeMap<u64, Conn>, id: u64) {
    if conns.remove(&id).is_some() {
        wl_obs::counter!("serve.conn.closed", 1);
    }
}

/// Drain the socket into the connection buffer without blocking.
fn read_some(conn: &mut Conn) -> Fate {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.stop_reading = true;
                // Half-close: keep the connection only if something is
                // still owed to the peer.
                return if conn.busy || conn.has_output() {
                    Fate::Alive
                } else {
                    Fate::Dead
                };
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < chunk.len() {
                    return Fate::Alive;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Fate::Alive,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Fate::Dead,
        }
    }
}

/// Flush pending output. `Err(Dead)` means the peer is gone or the
/// close-after-write point was reached.
fn write_some(conn: &mut Conn) -> Result<Fate, Fate> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(Fate::Dead),
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fate::Alive),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Fate::Dead),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.close_after_write {
        return Err(Fate::Dead);
    }
    Ok(Fate::Alive)
}

/// Parse and handle every complete request sitting in the buffer, until
/// the connection goes busy (a job was dispatched), the buffer runs dry,
/// or the request stream turns malformed. `Err(Dead)` asks the caller to
/// drop the connection now.
fn dispatch_buffered(
    id: u64,
    conn: &mut Conn,
    shared: &Arc<EventShared>,
    draining: bool,
) -> Result<Fate, Fate> {
    while !conn.busy && !conn.close_after_write {
        let (request, consumed) = match try_parse(&conn.buf) {
            Ok(ParseStatus::Incomplete) => return Ok(Fate::Alive),
            Ok(ParseStatus::Complete { request, consumed }) => (request, consumed),
            Err(HttpError::Malformed(m)) => {
                conn.buf.clear();
                let response = Response::json(400, error_body("bad-http", &m));
                record_status(400);
                Endpoint::Other.record_latency(0);
                conn.push_response(&response, false);
                return Ok(Fate::Alive); // flushed, then closed, by the caller
            }
        };
        conn.buf.drain(..consumed);
        let started = Instant::now();
        let keep_alive = request.wants_keep_alive() && !draining;

        if draining {
            let response = Response::json(
                503,
                error_body("draining", "server is draining; connection closing"),
            );
            record_status(503);
            conn.push_response(&response, false);
            continue;
        }

        match classify(&request) {
            Routed::Inline(response, endpoint) => {
                record_status(response.status);
                endpoint.record_latency(started.elapsed().as_micros() as u64);
                conn.push_response(&response, keep_alive);
            }
            Routed::Metrics => {
                if shared.coordinator.is_some() {
                    // Scraping the fleet blocks on sockets; pool it.
                    enqueue(
                        conn,
                        shared,
                        Job {
                            conn: id,
                            keep_alive,
                            started,
                            endpoint: Endpoint::Metrics,
                            kind: JobKind::FleetMetrics,
                        },
                    );
                } else {
                    let response = own_metrics_response();
                    record_status(response.status);
                    Endpoint::Metrics.record_latency(started.elapsed().as_micros() as u64);
                    conn.push_response(&response, keep_alive);
                }
            }
            Routed::Fleet(fleet_route) => {
                let response =
                    fleet_response(&request, fleet_route, shared.coordinator.as_deref());
                record_status(response.status);
                Endpoint::Fleet.record_latency(started.elapsed().as_micros() as u64);
                conn.push_response(&response, keep_alive);
            }
            Routed::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                shared.available.notify_all();
                let response = Response::text(200, "draining\n");
                record_status(200);
                Endpoint::Shutdown.record_latency(started.elapsed().as_micros() as u64);
                conn.push_response(&response, false);
            }
            Routed::Analysis(expect, endpoint) => match prepare(&request, expect) {
                Err(response) => {
                    record_status(response.status);
                    endpoint.record_latency(started.elapsed().as_micros() as u64);
                    conn.push_response(&response, keep_alive);
                }
                Ok(prepared) => {
                    let digest = prepared.named_dataset_digest();
                    // A coordinator fills the same key, so it answers its
                    // hits here too.
                    let hit = digest
                        .and_then(|d| shared.cache.lookup((d, prepared.request_digest)));
                    if let Some(body) = hit {
                        let response = Response::json(200, body);
                        record_status(200);
                        endpoint.record_latency(started.elapsed().as_micros() as u64);
                        conn.push_response(&response, keep_alive);
                        continue;
                    }
                    // Held while queued, so a request waiting behind
                    // another on its digest finds the dataset loaded. A
                    // coordinator loads datasets only for the shards it
                    // is sent.
                    let slot = digest
                        .filter(|_| shared.coordinator.is_none() || prepared.part.is_some())
                        .map(|digest| shared.datasets.hold(digest));
                    enqueue(
                        conn,
                        shared,
                        Job {
                            conn: id,
                            keep_alive,
                            started,
                            endpoint,
                            kind: JobKind::Analysis(prepared, slot),
                        },
                    );
                }
            },
            Routed::Stream => {
                enqueue(
                    conn,
                    shared,
                    Job {
                        conn: id,
                        keep_alive,
                        started,
                        endpoint: Endpoint::Stream,
                        kind: JobKind::Stream(request),
                    },
                );
            }
        }
    }
    Ok(Fate::Alive)
}

/// Admit a job to the worker queue, or answer 503 + `Retry-After` inline
/// when the queue is at capacity (the connection survives the rejection —
/// the client can retry on the same socket).
fn enqueue(conn: &mut Conn, shared: &Arc<EventShared>, job: Job) {
    let keep_alive = job.keep_alive;
    let admitted = {
        let mut queue = shared.queue.lock().unwrap();
        if queue.len() >= shared.config.queue_capacity {
            false
        } else {
            queue.push_back(job);
            wl_obs::gauge_set!("serve.queue.depth", queue.len() as i64);
            true
        }
    };
    if admitted {
        conn.busy = true;
        let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        wl_obs::gauge_set!("serve.inflight", inflight);
        shared.available.notify_one();
    } else {
        wl_obs::counter!("serve.queue.rejected", 1);
        let response = Response::json(
            503,
            error_body("overloaded", "admission queue full; retry shortly"),
        )
        .with_header("retry-after", "1");
        record_status(503);
        conn.push_response(&response, keep_alive);
    }
}

/// Worker: pop one job, execute it, push the serialized response back to
/// the reactor.
fn worker_loop(shared: &Arc<EventShared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    wl_obs::gauge_set!("serve.queue.depth", queue.len() as i64);
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap();
                queue = guard;
            }
        };
        let response = match job.kind {
            JobKind::Analysis(prepared, slot) => match shared.coordinator.as_deref() {
                Some(c) if prepared.part.is_none() => {
                    execute_via_fleet(c, &prepared, &shared.cache)
                }
                _ => execute_prepared(
                    &prepared,
                    &shared.config,
                    &shared.cache,
                    &shared.datasets,
                    slot,
                ),
            },
            JobKind::Stream(request) => stream_response(&request, shared.config.threads),
            JobKind::FleetMetrics => match shared.coordinator.as_deref() {
                Some(c) => aggregated_metrics(c),
                None => own_metrics_response(),
            },
        };
        record_status(response.status);
        job.endpoint
            .record_latency(job.started.elapsed().as_micros() as u64);
        shared.completions.lock().unwrap().push(Completion {
            conn: job.conn,
            bytes: response.to_bytes(job.keep_alive),
            close: !job.keep_alive,
        });
        let inflight = shared.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        wl_obs::gauge_set!("serve.inflight", inflight);
        shared.waker.wake();
    }
}
