//! Helpers shared by the `wl-serve` integration tests: reading counters
//! and gauges from a metrics export, running the real binary in a process
//! of its own, and holding a worker on a condition the test controls.

// Each test file uses its own subset of these helpers.
#![allow(dead_code)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use wl_serve::http::http_call;

/// `GET /metrics` from the server at `addr`.
pub fn fetch_metrics(addr: &str) -> String {
    let (status, _, body) = http_call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    body
}

/// The integer `value` of the JSON-lines metric named `name` (0 when it
/// has not been emitted yet).
pub fn metric_value(metrics: &str, name: &str) -> i64 {
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

/// Block until `n` requests are admitted (`serve.inflight` reaches `n`).
/// The gauge is process-wide: callers keep other servers in the process
/// quiet meanwhile.
pub fn wait_for_inflight(addr: &str, n: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while metric_value(&fetch_metrics(addr), "serve.inflight") < n {
        assert!(Instant::now() < deadline, "{n} requests were never in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A `wl-serve` process started by [`spawn_wl_serve`]. Dropping it kills
/// and reaps the process unless it has already exited, so a test that
/// panics before [`shutdown`](WlServe::shutdown) leaves no server behind.
pub struct WlServe {
    /// The process; tests may write to its stdin and wait for it.
    pub child: Child,
    /// The address its banner line announced.
    pub addr: String,
}

impl WlServe {
    /// Drain the server through `POST /v1/shutdown` and wait for a clean
    /// exit.
    pub fn shutdown(mut self) {
        let (status, _, _) = http_call(&self.addr, "POST", "/v1/shutdown", None).unwrap();
        assert_eq!(status, 200);
        let exit = self.child.wait().expect("wait for wl-serve");
        assert!(exit.success(), "clean exit after drain: {exit:?}");
    }
}

impl Drop for WlServe {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Start the `wl-serve` binary on an ephemeral port with `args`.
pub fn spawn_wl_serve(args: &[&str]) -> WlServe {
    let child = Command::new(env!("CARGO_BIN_EXE_wl-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wl-serve");
    // Guard the process before reading the banner, which may panic.
    let mut server = WlServe {
        child,
        addr: String::new(),
    };
    let mut stdout = server.child.stdout.take().unwrap();
    let mut banner = Vec::new();
    let mut byte = [0u8; 1];
    while !banner.ends_with(b"\n") {
        let n = stdout.read(&mut byte).expect("read banner");
        assert!(n > 0, "server exited before binding");
        banner.push(byte[0]);
    }
    let banner = String::from_utf8(banner).unwrap();
    server.addr = banner
        .rsplit("http://")
        .next()
        .expect("banner carries the address")
        .trim()
        .to_string();
    server
}

/// A three-file SWF path dataset whose first file is a FIFO: a worker
/// that runs a request on it blocks opening that file until the test
/// lets it go, so the test, not the clock, decides when the request
/// finishes.
pub struct HeldDataset {
    dir: PathBuf,
    fifo: PathBuf,
    text: String,
    body: String,
}

impl HeldDataset {
    /// Build the dataset in a directory of its own; `tag` must be unique
    /// among the tests of one process.
    pub fn new(tag: &str) -> HeldDataset {
        let dir = std::env::temp_dir().join(format!(
            "wl-serve-held-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = wl_repro::Options {
            seed: 5,
            jobs: 300,
            threads: 1,
            ..wl_repro::Options::default()
        };
        let texts: Vec<String> = wl_repro::production_suite(&opts)
            .iter()
            .take(3)
            .map(wl_swf::write_swf)
            .collect();
        let fifo = dir.join("held.swf");
        let made = Command::new("mkfifo").arg(&fifo).status().expect("run mkfifo");
        assert!(made.success(), "mkfifo {}", fifo.display());
        let mut paths = vec![fifo.clone()];
        for (i, text) in texts.iter().enumerate().skip(1) {
            let path = dir.join(format!("w{i}.swf"));
            std::fs::write(&path, text).unwrap();
            paths.push(path);
        }
        let quoted: Vec<String> = paths.iter().map(|p| format!("\"{}\"", p.display())).collect();
        let body = format!(
            "{{\"op\":\"coplot\",\"dataset\":{{\"paths\":[{}]}},\"seed\":7}}",
            quoted.join(",")
        );
        HeldDataset {
            dir,
            fifo,
            text: texts[0].clone(),
            body,
        }
    }

    /// The `/v1/coplot` request body on this dataset.
    pub fn body(&self) -> String {
        self.body.clone()
    }

    /// Block until a worker opens the FIFO, that is, runs a request on
    /// this dataset. The worker then waits for [`release`](Self::release).
    pub fn wait_for_worker(&self) -> File {
        // Opening a FIFO's write end blocks until a reader opens it. The
        // open runs on its own thread so that a worker that never comes
        // fails the test instead of hanging it; that thread is then left
        // blocked until the process exits.
        let (tx, rx) = mpsc::channel();
        let fifo = self.fifo.clone();
        std::thread::spawn(move || {
            let _ = tx.send(OpenOptions::new().write(true).open(fifo));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a worker opens the held dataset within 60 s")
            .expect("open the FIFO's write end")
    }

    /// Let the worker go. A worker reads a path dataset twice, to digest
    /// it and to load it, so a regular file with the same text replaces
    /// the FIFO before the worker gets the text through it; the second
    /// read then finds the file, and no second writer has to meet it.
    pub fn release(&self, mut fifo: File) {
        let regular = self.dir.join("held.tmp");
        std::fs::write(&regular, &self.text).unwrap();
        std::fs::rename(&regular, &self.fifo).unwrap();
        fifo.write_all(self.text.as_bytes()).unwrap();
    }
}

impl Drop for HeldDataset {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
