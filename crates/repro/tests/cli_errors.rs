//! Bad command lines and failed runs end with a message and an exit code,
//! never a panic: `--help` exits 0 with the usage on stdout, a bad flag or
//! value exits 2 with `<bin>: <message>` and the usage on stderr, a Jann
//! re-fit on a log too small to fit exits 1 with the re-fit error, and a
//! reader that closes the pipe early ends the run with exit 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// Run a repro binary in a scratch directory (so SVG side outputs never
/// land in the repo).
fn run(exe: &str, args: &[&str]) -> Output {
    let stem = std::path::Path::new(exe).file_stem().unwrap().to_string_lossy().into_owned();
    let scratch = std::env::temp_dir().join(format!("wl-cli-errors-{stem}"));
    std::fs::create_dir_all(&scratch).unwrap();
    Command::new(exe)
        .args(args)
        .current_dir(&scratch)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// `exe args` exits with `code`, its stderr starts with `<bin>: ` and
/// holds `needle`, and nothing panicked.
fn assert_fails(exe: &str, args: &[&str], code: i32, needle: &str) {
    let out = run(exe, args);
    let stderr = text(&out.stderr);
    let bin = std::path::Path::new(exe).file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
    assert!(
        stderr.starts_with(&format!("{bin}: ")),
        "{bin} {args:?}: stderr should name the program: {stderr:?}"
    );
    assert!(stderr.contains(needle), "{bin} {args:?}: {needle:?} not in {stderr:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} wrote to stdout");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for exe in [env!("CARGO_BIN_EXE_subset_search"), env!("CARGO_BIN_EXE_table1")] {
        for flag in ["--help", "-h"] {
            let out = run(exe, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{exe} {flag}");
            let stdout = text(&out.stdout);
            assert!(stdout.starts_with("usage: "), "{exe} {flag}: {stdout:?}");
            assert!(stdout.contains("--jobs N"), "{exe} {flag}: {stdout:?}");
            assert!(out.stderr.is_empty(), "{exe} {flag}: {}", text(&out.stderr));
        }
    }
}

#[test]
fn bad_flags_and_values_exit_two() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    assert_fails(table1, &["--bogus"], 2, "unknown flag \"--bogus\"");
    assert_fails(table1, &["--seed", "x"], 2, "--seed needs an integer");
    assert_fails(table1, &["--seed"], 2, "--seed needs a value");
    assert_fails(table1, &["--jobs", "-3"], 2, "--jobs needs an integer");
    assert_fails(table1, &["--jobs", "0"], 2, "--jobs needs a positive integer");
    assert_fails(table1, &["--threads", "0"], 2, "--threads");
    assert_fails(table1, &["--trace", "xml"], 2, "xml");
    assert_fails(table1, &["--metrics-out"], 2, "--metrics-out needs a value");
    for exe in [
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_subset_search"),
    ] {
        assert_fails(exe, &["--jobs", "0"], 2, "--jobs needs a positive integer");
        assert_fails(exe, &["--bogus"], 2, "usage: ");
    }
}

#[test]
fn failed_jann_refit_exits_one() {
    for exe in [
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_modelstats"),
    ] {
        assert_fails(
            exe,
            &["--jobs", "50", "--threads", "2"],
            1,
            "cannot re-fit the Jann model to a 50-job CTC log",
        );
    }
}

#[test]
fn closed_reader_ends_the_run_with_exit_zero() {
    // `subset_search | head -1`: the first line prints before the search,
    // the rest after it, so every later write meets a closed pipe. The
    // traced run still exports a whole trace to stderr.
    let mut child = Command::new(env!("CARGO_BIN_EXE_subset_search"))
        .args(["--jobs", "1024", "--threads", "2", "--trace", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn subset_search");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader (and with it the pipe's read end) is dropped by now.
    assert!(first.starts_with("searching"), "first line {first:?}");
    let out = child.wait_with_output().expect("wait for subset_search");
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr {stderr:?}");
    assert!(
        !stderr.contains("panicked at"),
        "subset_search panicked: {stderr}"
    );
    let trace = wl_obs::check_trace(&stderr).unwrap_or_else(|e| panic!("{e}: {stderr}"));
    assert!(trace.metrics > 0, "no metrics in {stderr:?}");
}
