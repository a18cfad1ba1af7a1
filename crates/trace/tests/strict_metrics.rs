//! Pins of the strict parse path: for SWF, GWF and CLF text, the typed
//! error (line, kind, message) a malformed document gives, and the
//! per-format `<fmt>.lines`, `<fmt>.header_lines`, `<fmt>.jobs_parsed` and
//! `<fmt>.skip.<kind>` counter deltas every parse records.
//!
//! This file is its own test binary, so nothing else in the process
//! touches these counters; the tests in it take one lock so their deltas
//! do not interleave.

use std::sync::Mutex;

use wl_trace::{
    parse_gwf, parse_swf, parse_weblog, AllocationFlexibility, ParseError, ParseErrorKind,
    SchedulerFlexibility, TraceFormat, TraceMeta,
};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

const KINDS: [ParseErrorKind; 6] = [
    ParseErrorKind::FieldCount,
    ParseErrorKind::NotNumeric,
    ParseErrorKind::NegativeId,
    ParseErrorKind::NonFinite,
    ParseErrorKind::BadTimestamp,
    ParseErrorKind::BadRequest,
];

/// The counter deltas of one parse: lines, header lines, jobs parsed, and
/// the skip counter of each kind in [`KINDS`] order.
#[derive(Debug, PartialEq, Eq)]
struct Deltas {
    lines: u64,
    header_lines: u64,
    jobs_parsed: u64,
    skips: [u64; 6],
}

fn counters(format: TraceFormat) -> Deltas {
    let snap = wl_obs::registry().snapshot();
    Deltas {
        lines: snap.counter(format.lines_counter()),
        header_lines: snap.counter(format.header_counter()),
        jobs_parsed: snap.counter(format.jobs_counter()),
        skips: KINDS.map(|k| snap.counter(format.skip_counter(k))),
    }
}

/// Run `parse` with the registry armed and return what it gave and the
/// counter deltas it recorded.
fn measured<T>(format: TraceFormat, parse: impl FnOnce() -> T) -> (T, Deltas) {
    wl_obs::set_enabled(true);
    let before = counters(format);
    let out = parse();
    let after = counters(format);
    let mut skips = [0; 6];
    for (i, s) in skips.iter_mut().enumerate() {
        *s = after.skips[i] - before.skips[i];
    }
    let deltas = Deltas {
        lines: after.lines - before.lines,
        header_lines: after.header_lines - before.header_lines,
        jobs_parsed: after.jobs_parsed - before.jobs_parsed,
        skips,
    };
    (out, deltas)
}

fn deltas(
    lines: u64,
    header_lines: u64,
    jobs_parsed: u64,
    failed: Option<ParseErrorKind>,
) -> Deltas {
    Deltas {
        lines,
        header_lines,
        jobs_parsed,
        skips: KINDS.map(|k| u64::from(Some(k) == failed)),
    }
}

fn error(line: usize, kind: ParseErrorKind, message: &str) -> ParseError {
    ParseError {
        line,
        kind,
        message: message.to_string(),
    }
}

fn meta() -> TraceMeta {
    TraceMeta::new(
        64,
        SchedulerFlexibility::BatchQueue,
        AllocationFlexibility::Unlimited,
    )
}

/// Check one document through the format's `parse_*` function and through
/// its `TraceSource::read`: the same outcome and the same deltas from both.
/// `want` is the trace's job count or the error.
fn check<T>(
    format: TraceFormat,
    text: &str,
    parse: fn(&str) -> Result<T, ParseError>,
    want: Result<usize, ParseError>,
    want_deltas: Deltas,
) {
    let (got, d) = measured(format, || parse(text));
    assert_eq!(got.err(), want.clone().err(), "{text:?}");
    assert_eq!(d, want_deltas, "{format:?} {text:?}");
    let (read, d) = measured(format, || format.source().read("pin", text, meta()));
    match (&read, &want) {
        (Ok(trace), Ok(jobs)) => assert_eq!(trace.len(), *jobs, "{text:?}"),
        (Err(e), Err(w)) => {
            assert_eq!(e, w, "{text:?}");
            assert_eq!(
                e.to_string(),
                format!(
                    "trace parse error at line {} ({}): {}",
                    w.line,
                    w.kind.label(),
                    w.message
                )
            );
        }
        _ => panic!("read gave {read:?}, want {want:?}"),
    }
    assert_eq!(d, want_deltas, "{format:?} read {text:?}");
}

const SWF_GOOD: &str = "1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1";

fn swf_doc(bad: &str) -> String {
    format!(
        "; Computer: Pin\n; MaxNodes: 64\n; a plain note\n\n{SWF_GOOD}\n{bad}\n; Late: header\n{SWF_GOOD}\n"
    )
}

#[test]
fn swf_strict_errors_and_counters() {
    let _lock = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let good = swf_doc(SWF_GOOD);
    check(
        TraceFormat::Swf,
        &good,
        parse_swf,
        Ok(3),
        deltas(8, 3, 3, None),
    );
    // CRLF endings and trailing tabs count the same lines.
    check(
        TraceFormat::Swf,
        &good.replace('\n', "\t\r\n"),
        parse_swf,
        Ok(3),
        deltas(8, 3, 3, None),
    );
    for (bad, want) in [
        (
            "2 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1 9",
            error(
                6,
                ParseErrorKind::FieldCount,
                "expected 18 fields, found 19",
            ),
        ),
        (
            "2 0 5",
            error(6, ParseErrorKind::FieldCount, "expected 18 fields, found 3"),
        ),
        (
            "2 0 5 abc 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1",
            error(
                6,
                ParseErrorKind::NotNumeric,
                "field 4 is not numeric: \"abc\"",
            ),
        ),
        (
            "-3 0 5 1 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1",
            error(
                6,
                ParseErrorKind::NegativeId,
                "job id must be non-negative, found -3",
            ),
        ),
        (
            "2 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 inf",
            error(
                6,
                ParseErrorKind::NonFinite,
                "field 18 is not finite: \"inf\"",
            ),
        ),
    ] {
        let kind = want.kind;
        check(
            TraceFormat::Swf,
            &swf_doc(bad),
            parse_swf,
            Err(want),
            deltas(6, 2, 1, Some(kind)),
        );
    }
}

fn gwf_line(id: &str, run: &str) -> String {
    format!(
        "{id} 60 5 {run} 4 90 -1 4 200 -1 1 3 1 7 1 -1 {}",
        ["-1"; 13].join(" ")
    )
}

fn gwf_doc(bad: &str) -> String {
    format!(
        "# Site: Pin\n# MaxNodes: 64\n#\n{}\n{}\n\t\n{bad}\n{}\n",
        gwf_line("1", "100"),
        gwf_line("2", "100"),
        gwf_line("4", "100"),
    )
}

#[test]
fn gwf_strict_errors_and_counters() {
    let _lock = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let good = gwf_doc(&gwf_line("3", "100"));
    check(
        TraceFormat::Gwf,
        &good,
        parse_gwf,
        Ok(4),
        deltas(8, 2, 4, None),
    );
    for (bad, want) in [
        (
            SWF_GOOD.to_string(),
            error(
                7,
                ParseErrorKind::FieldCount,
                "expected 29 fields, found 18",
            ),
        ),
        (
            gwf_line("3", "1e3x"),
            error(
                7,
                ParseErrorKind::NotNumeric,
                "field 4 is not numeric: \"1e3x\"",
            ),
        ),
        (
            gwf_line("-9", "100"),
            error(
                7,
                ParseErrorKind::NegativeId,
                "job id must be non-negative, found -9",
            ),
        ),
        (
            gwf_line("3", "NaN"),
            error(
                7,
                ParseErrorKind::NonFinite,
                "field 4 is not finite: \"NaN\"",
            ),
        ),
    ] {
        let kind = want.kind;
        check(
            TraceFormat::Gwf,
            &gwf_doc(&bad),
            parse_gwf,
            Err(want),
            deltas(7, 2, 2, Some(kind)),
        );
    }
}

const CLF_GOOD: &str =
    "alpha - - [01/Jan/1999:00:00:00 +0000] \"GET /docs/a.html HTTP/1.0\" 200 1024";

fn clf_doc(bad: &str) -> String {
    format!(
        "# Server: pin\n{CLF_GOOD}\n# note\nbeta - - [01/Jan/1999:00:00:05 +0000] \"GET /img/x.gif HTTP/1.0\" 404 -\n{bad}\n{CLF_GOOD}\n"
    )
}

#[test]
fn weblog_strict_errors_and_counters() {
    let _lock = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let good = clf_doc(CLF_GOOD);
    check(
        TraceFormat::Weblog,
        &good,
        parse_weblog,
        Ok(2),
        deltas(6, 1, 4, None),
    );
    for (bad, want) in [
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"GET /\" 200",
            error(
                5,
                ParseErrorKind::FieldCount,
                "expected 7 CLF fields (host ident authuser [time] \"request\" status bytes), \
                 found 6",
            ),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0 200 1",
            error(5, ParseErrorKind::FieldCount, "unterminated \" group"),
        ),
        (
            "h - - [garbage] \"GET / HTTP/1.0\" 200 1",
            error(
                5,
                ParseErrorKind::BadTimestamp,
                "bad CLF timestamp: \"garbage\"",
            ),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"G\" 200 1",
            error(5, ParseErrorKind::BadRequest, "bad request line: \"G\""),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"\" 200 1",
            error(5, ParseErrorKind::BadRequest, "bad request line: \"\""),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" abc 1",
            error(
                5,
                ParseErrorKind::NotNumeric,
                "status is not numeric: \"abc\"",
            ),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" 200 x1",
            error(
                5,
                ParseErrorKind::NotNumeric,
                "bytes is not numeric: \"x1\"",
            ),
        ),
        (
            "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" 200 inf",
            error(5, ParseErrorKind::NonFinite, "bytes is not finite: \"inf\""),
        ),
    ] {
        let kind = want.kind;
        check(
            TraceFormat::Weblog,
            &clf_doc(bad),
            parse_weblog,
            Err(want),
            deltas(5, 1, 2, Some(kind)),
        );
    }
}
