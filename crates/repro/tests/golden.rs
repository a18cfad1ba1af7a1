//! Golden snapshot tests: the canonical reproduction outputs must be
//! byte-exact, at every thread count.
//!
//! The snapshots under `tests/golden/` (repo root) pin `table1`, `table3`,
//! `fig4`, `modelstats` and `subset_search` stdout for the canonical run
//! (`--seed 1999 --jobs 8192`). Every pipeline behind them — synthesis,
//! statistics, Hurst estimation, the Co-plot engine, the shared-cache
//! subset search — is seeded and thread-count-invariant, so the snapshot
//! holds for `--threads 1` and `--threads 8` alike. A diff here means an
//! intentional output change (regenerate the snapshot and say so in the
//! change description) or a real determinism regression.
//!
//! Regenerate with:
//! ```text
//! cargo run --bin table1 -- --seed 1999 --jobs 8192 --threads 1 > tests/golden/table1.txt
//! cargo run --bin table3 -- --seed 1999 --jobs 8192 --threads 1 > tests/golden/table3.txt
//! cargo run --bin fig4 -- --seed 1999 --jobs 8192 --threads 1 > tests/golden/fig4.txt
//! cargo run --bin modelstats -- --seed 1999 --jobs 8192 --threads 1 > tests/golden/modelstats.txt
//! cargo run --bin subset_search -- --seed 1999 --jobs 8192 --threads 1 > tests/golden/subset_search.txt
//! ```

use std::process::Command;

/// Canonical flags, minus `--threads`.
const CANONICAL: [&str; 4] = ["--seed", "1999", "--jobs", "8192"];

fn golden(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
    std::fs::read_to_string(format!("{path}{name}.txt"))
        .unwrap_or_else(|e| panic!("missing golden snapshot {name}: {e}"))
}

/// Run a repro binary in a scratch directory (so SVG side outputs never
/// land in the repo) and return its stdout.
fn run(exe: &str, threads: &str) -> String {
    let scratch = std::env::temp_dir().join(format!(
        "wl-golden-{}-t{threads}",
        std::path::Path::new(exe)
            .file_stem()
            .unwrap()
            .to_string_lossy()
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(exe)
        .args(CANONICAL)
        .args(["--threads", threads])
        .current_dir(&scratch)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_matches_golden(exe: &str, name: &str, threads: &str) {
    let got = run(exe, threads);
    let want = golden(name);
    assert!(
        got == want,
        "{name} --threads {threads} diverges from tests/golden/{name}.txt \
         ({} vs {} bytes); first differing line: {:?}",
        got.len(),
        want.len(),
        got.lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}: got {g:?}, want {w:?}", i + 1)),
    );
}

#[test]
fn table1_matches_golden_single_thread() {
    assert_matches_golden(env!("CARGO_BIN_EXE_table1"), "table1", "1");
}

#[test]
fn table1_matches_golden_eight_threads() {
    assert_matches_golden(env!("CARGO_BIN_EXE_table1"), "table1", "8");
}

#[test]
fn table3_matches_golden_single_thread() {
    assert_matches_golden(env!("CARGO_BIN_EXE_table3"), "table3", "1");
}

#[test]
fn table3_matches_golden_eight_threads() {
    assert_matches_golden(env!("CARGO_BIN_EXE_table3"), "table3", "8");
}

#[test]
fn fig4_matches_golden_single_thread() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig4"), "fig4", "1");
}

#[test]
fn fig4_matches_golden_eight_threads() {
    assert_matches_golden(env!("CARGO_BIN_EXE_fig4"), "fig4", "8");
}

#[test]
fn modelstats_matches_golden_single_thread() {
    assert_matches_golden(env!("CARGO_BIN_EXE_modelstats"), "modelstats", "1");
}

#[test]
fn modelstats_matches_golden_eight_threads() {
    assert_matches_golden(env!("CARGO_BIN_EXE_modelstats"), "modelstats", "8");
}

#[test]
fn subset_search_matches_golden_single_thread() {
    assert_matches_golden(env!("CARGO_BIN_EXE_subset_search"), "subset_search", "1");
}

#[test]
fn subset_search_matches_golden_eight_threads() {
    assert_matches_golden(env!("CARGO_BIN_EXE_subset_search"), "subset_search", "8");
}

/// Tracing must not leak into stdout: the snapshot holds even with
/// `--trace json` armed (the trace goes to stderr).
#[test]
fn trace_does_not_perturb_stdout() {
    let scratch = std::env::temp_dir().join("wl-golden-traced");
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(CANONICAL)
        .args(["--threads", "1", "--trace", "json"])
        .current_dir(&scratch)
        .output()
        .expect("run table1 --trace json");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        golden("table1"),
        "--trace json changed stdout"
    );
    assert!(
        !out.stderr.is_empty(),
        "--trace json produced no trace on stderr"
    );
}

/// Figure 4 needs the CTC log twice (a row, and the log Jann is re-fitted
/// to) but synthesizes it once: six machine logs in all.
#[test]
fn fig4_synthesizes_each_machine_log_once() {
    let scratch = std::env::temp_dir().join("wl-golden-machine-logs");
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig4"))
        .args(["--jobs", "512", "--threads", "2", "--trace", "json"])
        .current_dir(&scratch)
        .output()
        .expect("run fig4 --trace json");
    assert!(out.status.success());
    let trace = String::from_utf8(out.stderr).expect("trace is UTF-8");
    let counter = |name: &str| {
        let prefix = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
        trace
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|rest| rest.trim_end_matches('}').parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name} counter in the trace"))
    };
    assert_eq!(counter("logsynth.machine_logs"), 6);
    assert_eq!(counter("logsynth.workloads"), 10);
}
