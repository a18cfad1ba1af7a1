//! Golden-trace test: `wl coplot --trace json` must emit a well-formed
//! JSON-lines trace on stderr — validated by the in-repo checker
//! ([`wl_obs::check_trace`], the same code behind the `trace-check`
//! binary) — while leaving stdout byte-identical to an untraced run.

use std::path::PathBuf;
use std::process::Command;

fn wl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wl"))
}

/// Generate three small deterministic workload files to co-plot.
fn fixture_files(dir: &PathBuf) -> Vec<String> {
    std::fs::create_dir_all(dir).unwrap();
    let mut paths = Vec::new();
    for (model, seed) in [("ctc", "1"), ("kth", "2"), ("nasa", "3")] {
        let path = dir.join(format!("{model}.swf"));
        let out = wl()
            .args(["generate", model, "--jobs", "300", "--seed", seed])
            .args(["--out", path.to_str().unwrap()])
            .output()
            .expect("run wl generate");
        assert!(
            out.status.success(),
            "wl generate {model} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        paths.push(path.to_str().unwrap().to_string());
    }
    paths
}

#[test]
fn coplot_trace_json_passes_the_checker() {
    let dir = std::env::temp_dir().join("wl-golden-trace");
    let files = fixture_files(&dir);

    let untraced = wl()
        .arg("coplot")
        .args(&files)
        .args(["--threads", "2", "--seed", "1999"])
        .output()
        .expect("run wl coplot");
    assert!(untraced.status.success());
    assert!(
        untraced.stderr.is_empty(),
        "untraced run wrote to stderr: {}",
        String::from_utf8_lossy(&untraced.stderr)
    );

    let traced = wl()
        .arg("coplot")
        .args(&files)
        .args(["--threads", "2", "--seed", "1999"])
        .args(["--trace", "json"])
        .output()
        .expect("run wl coplot --trace json");
    assert!(traced.status.success());

    // Tracing is stderr-only: stdout must match the untraced run exactly.
    assert_eq!(
        traced.stdout, untraced.stdout,
        "--trace json perturbed stdout"
    );

    let trace = String::from_utf8(traced.stderr).expect("trace is UTF-8");
    let stats = wl_obs::check_trace(&trace)
        .unwrap_or_else(|e| panic!("trace failed validation: {e}\n--- trace ---\n{trace}"));
    assert!(stats.span_events >= 2, "no spans recorded: {stats:?}");
    assert!(stats.metrics >= 5, "too few metrics: {stats:?}");
    assert!(stats.threads >= 1);

    // The engine pipeline must show up by name.
    for needle in ["engine.prepare", "mds.restarts", "swf.jobs_parsed"] {
        assert!(
            trace.contains(needle),
            "trace is missing {needle:?}:\n{trace}"
        );
    }
}

#[test]
fn metrics_out_file_passes_the_checker() {
    let dir = std::env::temp_dir().join("wl-golden-trace-metrics");
    let files = fixture_files(&dir);
    let metrics_path = dir.join("metrics.jsonl");

    let out = wl()
        .arg("coplot")
        .args(&files)
        .args(["--threads", "1", "--seed", "1999"])
        .args(["--metrics-out", metrics_path.to_str().unwrap()])
        .output()
        .expect("run wl coplot --metrics-out");
    assert!(
        out.status.success(),
        "wl coplot --metrics-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let stats = wl_obs::check_trace(&doc).expect("metrics file is a valid trace");
    assert!(stats.metrics >= 5, "too few metrics: {stats:?}");
}

#[test]
fn bad_trace_format_is_rejected_up_front() {
    let out = wl()
        .args(["coplot", "--trace", "yaml"])
        .output()
        .expect("run wl");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid --trace format"), "stderr: {err}");
}

/// A non-finite float flag is a typed `bad-value` error: the request is
/// canonicalized before the v2 envelope, whose encoder cannot write NaN or
/// infinity.
#[test]
fn non_finite_float_flags_are_bad_values() {
    for args in [
        ["coplot", "@table1", "--min-corr", "nan"],
        ["subset", "@table1", "--max-alienation", "inf"],
    ] {
        let out = wl().args(args).output().expect("run wl");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("wl: bad-value: "), "{args:?} stderr: {err}");
    }
}
