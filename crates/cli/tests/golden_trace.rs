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

/// A reader that closes early (`wl ... | head -1`) ends the run quietly:
/// exit 0, no panic from a failed stdout write.
#[test]
fn closed_reader_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = wl()
        .args(["generate", "ctc", "--jobs", "20000", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run wl generate");
    // About 1.5 MB of SWF: far more than a pipe buffers, so `wl` is still
    // writing when the pipe closes.
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.starts_with(';'), "first line: {line:?}");
    let out = child.wait_with_output().expect("wait for wl");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

/// `--help` after a subcommand prints the usage and succeeds, as `wl
/// --help` does, instead of being read as a flag that takes a value.
#[test]
fn subcommand_help_prints_the_usage() {
    for command in ["stream", "coplot"] {
        for help in ["--help", "-h"] {
            let out = wl().args([command, help]).output().expect("run wl");
            assert_eq!(out.status.code(), Some(0), "wl {command} {help}");
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(
                text.starts_with("wl — parallel workload analysis"),
                "{text}"
            );
            assert!(text.contains("wl stream <file>"), "{text}");
        }
    }
}

/// `wl homogeneity` maps only the variables that vary across the log and
/// its periods and names the ones it dropped: CTC's median parallelism
/// `Pm` is the same in every period.
#[test]
fn homogeneity_drops_constant_variables() {
    let dir = std::env::temp_dir().join("wl-golden-trace-homogeneity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ctc.swf");
    let out = wl()
        .args(["generate", "ctc", "--jobs", "4000", "--seed", "3"])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .expect("run wl generate");
    assert!(out.status.success());
    let out = wl()
        .args(["homogeneity", path.to_str().unwrap()])
        .output()
        .expect("run wl homogeneity");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dropped = text
        .lines()
        .find_map(|l| l.strip_prefix("dropped constant variables: "))
        .unwrap_or_else(|| panic!("no dropped variables reported: {text}"));
    assert!(dropped.split(',').any(|v| v == "Pm"), "{text}");
    assert!(text.contains("verdict: "), "{text}");
}
