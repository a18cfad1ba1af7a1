//! Golden drift-sequence pins for the streaming windowed Co-plot stack.
//!
//! Three guarantees from the streaming refactor are pinned here:
//! 1. `wl stream` prints byte-identical JSON lines at `--threads 1` and
//!    `--threads 8` (warm refinement is RNG-free, cold restarts reduce
//!    deterministically, so the whole event sequence is thread-invariant),
//! 2. the CLI output equals the `POST /v1/stream` response body for the
//!    same trace and options (both run `wl_serve::run_stream_text`), and
//! 3. the opening of the drift sequence for a fixed synthetic grid trace
//!    is pinned byte-for-byte: two pending windows, then the first (cold)
//!    frame with its dropped constant variable, and
//! 4. a whole 32-window stream (warm frames, cold fallbacks, a short final
//!    window) equals `tests/golden/stream.txt` at `--threads 1` and `8`.
//!
//! Any change to window sealing, normalization, MDS, Procrustes alignment,
//! or the JSON field order shows up as a diff in these pins — update them
//! deliberately. The golden is regenerated with
//!
//! ```text
//! wl generate grid --site 0 --jobs 4000 --seed 42 --out site0.gwf
//! wl stream site0.gwf --window 128 --seed 1999 --threads 1 > tests/golden/stream.txt
//! ```

use std::process::Command;

use wl_serve::http::http_call;
use wl_serve::{start, ServerConfig, ServerHandle};

fn wl_stdout(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_wl"))
        .args(args)
        .output()
        .expect("run wl");
    assert!(
        output.status.success(),
        "wl {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("wl stdout is UTF-8")
}

fn parity_server() -> (ServerHandle, String) {
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        threads: 2,
        default_deadline_ms: None,
        ..ServerConfig::default()
    })
    .expect("bind parity server");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Synthesize a `jobs`-job grid site-0 trace (seed 42) into a directory
/// of the calling test's own (the tests run in parallel, so a shared path
/// would let one test read the file while another rewrites it) and return
/// its path.
fn grid_trace(test: &str, jobs: &str) -> String {
    let dir = std::env::temp_dir().join(format!("wl_stream_parity_{test}"));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("site0.gwf");
    let path = path.to_str().expect("UTF-8 temp path").to_string();
    wl_stdout(&[
        "generate", "grid", "--site", "0", "--jobs", jobs, "--seed", "42", "--out", &path,
    ]);
    path
}

const STREAM_ARGS: [&str; 4] = ["--window", "30", "--seed", "1999"];

#[test]
fn stream_is_thread_invariant() {
    let path = grid_trace("stream_is_thread_invariant", "150");
    let mut one = vec!["stream", path.as_str()];
    one.extend(STREAM_ARGS);
    let mut eight = one.clone();
    one.extend(["--threads", "1"]);
    eight.extend(["--threads", "8"]);
    let stdout_1 = wl_stdout(&one);
    let stdout_8 = wl_stdout(&eight);
    assert_eq!(
        stdout_1, stdout_8,
        "stream event sequence must be bit-identical for any thread count"
    );
    assert_eq!(stdout_1.lines().count(), 5, "150 jobs / 30 = 5 windows");
}

#[test]
fn stream_cli_matches_server_body() {
    let path = grid_trace("stream_cli_matches_server_body", "150");
    let mut cli = vec!["stream", path.as_str()];
    cli.extend(STREAM_ARGS);
    cli.extend(["--threads", "2"]);
    let stdout = wl_stdout(&cli);

    let text = std::fs::read_to_string(&path).expect("read fixture trace");
    let header = "{\"name\":\"site0\",\"format\":\"gwf\",\"jobs_per_window\":30,\"seed\":1999}";
    let body = format!("{header}\n{text}");
    let (server, addr) = parity_server();
    let (status, headers, response) =
        http_call(&addr, "POST", "/v1/stream", Some(&body)).expect("POST /v1/stream");
    assert_eq!(status, 200, "{response}");
    let content_type = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-type"))
        .map(|(_, v)| v.as_str());
    assert_eq!(content_type, Some("application/x-ndjson"));
    assert_eq!(
        stdout, response,
        "wl stream output must equal the /v1/stream response body"
    );
    server.shutdown();
}

/// The opening of the drift sequence, byte-for-byte: grid site 0, 150
/// jobs, seed 42, 30-job windows, MDS seed 1999. Two pending windows
/// (below `MIN_FRAME_WINDOWS`), then the first cold frame — zero
/// alienation for 3 observations, the constant `Nm` column dropped, no
/// drift block yet.
#[test]
fn drift_sequence_prefix_is_pinned() {
    let path = grid_trace("drift_sequence_prefix_is_pinned", "150");
    let mut cli = vec!["stream", path.as_str()];
    cli.extend(STREAM_ARGS);
    cli.extend(["--threads", "2"]);
    let stdout = wl_stdout(&cli);
    let prefix: Vec<&str> = stdout.lines().take(3).collect();
    assert_eq!(
        prefix[0],
        "{\"type\":\"pending\",\"window\":1,\"name\":\"w1\",\"jobs\":30}"
    );
    assert_eq!(
        prefix[1],
        "{\"type\":\"pending\",\"window\":2,\"name\":\"w2\",\"jobs\":30}"
    );
    assert_eq!(
        prefix[2],
        "{\"type\":\"frame\",\"window\":3,\"name\":\"w3\",\"jobs\":30,\"theta\":0,\"warm\":false,\"iterations\":191,\"observations\":[\"w1\",\"w2\",\"w3\"],\"coords\":[[-0.407893999253851,-0.731154109088207],[-0.7551617478063029,0.5987883883149158],[1.1630557470601537,0.1323657207732912]],\"arrows\":[{\"name\":\"Rm\",\"angle\":3.11218657206968,\"correlation\":1},{\"name\":\"Ri\",\"angle\":0.8756890177011771,\"correlation\":1.0000000000000002},{\"name\":\"Ni\",\"angle\":-2.3494598554005317,\"correlation\":1.0000000000000002},{\"name\":\"Cm\",\"angle\":-0.5122945817735162,\"correlation\":1},{\"name\":\"Ci\",\"angle\":1.8130382382869414,\"correlation\":1},{\"name\":\"Im\",\"angle\":-0.8601018649885751,\"correlation\":1},{\"name\":\"Ii\",\"angle\":-2.3833666012431367,\"correlation\":1}],\"removed\":[\"Nm\"],\"drift\":null,\"hurst\":0.5543466019201924}"
    );
    // Every later window warm-starts from this frame and reports drift.
    for line in stdout.lines().skip(3) {
        assert!(line.contains("\"warm\":true"), "{line}");
        assert!(line.contains("\"drift\":{"), "{line}");
    }
}

/// The whole stream of a 4000-job trace in 128-job windows: 2 pending
/// lines and 30 frames, 19 of them cold, 7 dropping the constant `Nm`, and
/// a final window of 32 jobs — byte for byte, at one and at eight threads.
#[test]
fn whole_stream_matches_golden() {
    let path = grid_trace("whole_stream_matches_golden", "4000");
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/stream.txt");
    let want = std::fs::read_to_string(golden_path).expect("read tests/golden/stream.txt");
    assert_eq!(want.lines().count(), 32);
    for threads in ["1", "8"] {
        let mut args = vec!["stream", path.as_str()];
        args.extend(["--window", "128", "--seed", "1999", "--threads", threads]);
        let got = wl_stdout(&args);
        assert!(
            got == want,
            "wl stream --threads {threads} diverges from tests/golden/stream.txt"
        );
    }
}
