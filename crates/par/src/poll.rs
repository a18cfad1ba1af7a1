//! Readiness polling and cross-thread wakeup for event-driven servers.
//!
//! `wl-serve`'s event loop multiplexes thousands of non-blocking sockets
//! from one thread; this module supplies the two primitives that requires,
//! keeping the workspace's no-external-deps pattern:
//!
//! * [`PollSet`] — a thin, safe wrapper over the `poll(2)` system call via
//!   a two-line FFI declaration (no `libc` crate). The caller registers
//!   file descriptors with read/write interest each iteration and asks
//!   which are ready. `poll` is O(fds) per call where `epoll` is O(ready),
//!   but it needs no registration lifecycle, has no kernel object to leak,
//!   and at the few-thousand-connection scale this workspace targets the
//!   scan cost is dwarfed by request handling; the interface below is
//!   shaped so an epoll backend could be swapped in without touching
//!   callers.
//! * [`Waker`] — a self-pipe built from [`std::os::unix::net::UnixStream::pair`]
//!   (std-only, no `pipe(2)` FFI): worker threads call [`Waker::wake`] when
//!   a response is ready and the poll loop, which includes the read end in
//!   its [`PollSet`], returns immediately instead of waiting out its
//!   timeout.
//!
//! Both are Unix-only (`poll(2)`, socket pairs); the workspace's CI and
//! deployment targets are Linux.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`: identical layout on every Unix this
/// workspace targets.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    /// `poll(2)`. `nfds_t` is `unsigned long` on Linux and the BSDs.
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Readiness of one registered descriptor after [`PollSet::wait`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Readiness {
    /// Data (or a pending accept, or EOF) can be read without blocking.
    pub readable: bool,
    /// The descriptor can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the
    /// connection should be torn down after draining any readable data.
    pub error: bool,
}

impl Readiness {
    /// Any event at all.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.error
    }
}

/// A reusable `poll(2)` fd set. The intended pattern is rebuild-per-turn:
/// `clear`, `push` every live descriptor with its current interest, `wait`,
/// then inspect [`PollSet::readiness`] by the index `push` returned.
#[derive(Debug, Default)]
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// An empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Drop all registered descriptors (keeps the allocation).
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Register `fd` with the given interest; returns the slot index to
    /// pass to [`PollSet::readiness`] after [`PollSet::wait`].
    pub fn push(&mut self, fd: RawFd, read: bool, write: bool) -> usize {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Registered descriptors.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Block until at least one descriptor is ready or `timeout` elapses
    /// (`None` = wait indefinitely). Returns the number of ready
    /// descriptors (0 on timeout). `EINTR` is retried internally.
    ///
    /// # Errors
    /// Any other `poll(2)` failure.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0 < t < 1ms timeout does not busy-spin.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: the pointer and length describe `self.fds`, a live,
            // exclusively borrowed buffer of `#[repr(C)]` pollfds, which is
            // all poll(2) reads and writes.
            let rc = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as _, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Readiness of the descriptor registered at `index`.
    ///
    /// # Panics
    /// Panics when `index` was not returned by `push` since the last
    /// `clear`.
    pub fn readiness(&self, index: usize) -> Readiness {
        let revents = self.fds[index].revents;
        Readiness {
            readable: revents & POLLIN != 0,
            writable: revents & POLLOUT != 0,
            error: revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }
}

/// The wake signal for a poll loop: any thread holding a clone can make a
/// blocked [`PollSet::wait`] return immediately.
///
/// Built on a non-blocking [`UnixStream`] pair. Wakes coalesce: a byte is
/// only written when the pipe is empty-ish (a full pipe means a wake is
/// already pending), and [`Waker::drain`] consumes everything at once, so
/// any number of `wake` calls cost at most one syscall round trip.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

/// The poll-loop end of a [`Waker`]: register [`WakeReceiver::fd`] for
/// read interest, and [`WakeReceiver::drain`] it when it turns readable.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

/// Create a connected waker pair.
///
/// # Errors
/// Socket-pair creation failure.
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, WakeReceiver { rx }))
}

impl Waker {
    /// Wake the poll loop. Never blocks: if the pipe is full a wake is
    /// already pending and the write is dropped.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1]);
    }
}

impl WakeReceiver {
    /// The descriptor to register for read interest.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume all pending wake bytes.
    pub fn drain(&mut self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn timeout_expires_with_nothing_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut set = PollSet::new();
        let idx = set.push(listener.as_raw_fd(), true, false);
        let started = Instant::now();
        let ready = set.wait(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(ready, 0);
        assert!(!set.readiness(idx).any());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn pending_accept_is_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut set = PollSet::new();
        let idx = set.push(listener.as_raw_fd(), true, false);
        let ready = set.wait(Some(Duration::from_secs(2))).unwrap();
        assert!(ready >= 1);
        assert!(set.readiness(idx).readable);
    }

    #[test]
    fn data_and_writability_are_reported_per_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"x").unwrap();

        let mut set = PollSet::new();
        let r = set.push(server.as_raw_fd(), true, false);
        let w = set.push(server.as_raw_fd(), false, true);
        set.wait(Some(Duration::from_secs(2))).unwrap();
        assert!(set.readiness(r).readable);
        assert!(!set.readiness(r).writable, "no write interest on slot r");
        assert!(set.readiness(w).writable, "idle socket is writable");
    }

    #[test]
    fn hangup_is_an_error_event() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        drop(client);
        // Give the FIN a moment to land.
        std::thread::sleep(Duration::from_millis(20));
        let mut set = PollSet::new();
        let idx = set.push(server.as_raw_fd(), true, false);
        set.wait(Some(Duration::from_secs(2))).unwrap();
        let ready = set.readiness(idx);
        assert!(ready.readable || ready.error, "{ready:?}");
        let mut s = server;
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF after hangup");
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        let (waker, mut rx) = waker().unwrap();
        // Keep one clone alive: dropping the last Waker closes the write
        // end, which reads as a permanent EOF wake.
        let thread_waker = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            thread_waker.wake();
            thread_waker.wake(); // coalesces
        });
        let mut set = PollSet::new();
        let idx = set.push(rx.fd(), true, false);
        let started = Instant::now();
        let ready = set.wait(Some(Duration::from_secs(5))).unwrap();
        assert!(ready >= 1);
        assert!(set.readiness(idx).readable);
        assert!(started.elapsed() < Duration::from_secs(4), "woken, not timed out");
        // Both wakes have landed once the waking thread has exited.
        handle.join().unwrap();
        rx.drain();
        // Drained: the next wait times out instead of spinning on stale bytes.
        set.clear();
        set.push(rx.fd(), true, false);
        assert_eq!(set.wait(Some(Duration::from_millis(20))).unwrap(), 0);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        let mut set = PollSet::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        set.push(listener.as_raw_fd(), true, false);
        // Must not translate to timeout 0 (busy spin) — just returns 0 ready.
        let ready = set.wait(Some(Duration::from_micros(100))).unwrap();
        assert_eq!(ready, 0);
    }
}
