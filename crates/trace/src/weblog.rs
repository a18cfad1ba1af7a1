//! Web access-log (Common Log Format) adapter.
//!
//! A CLF line is `host ident authuser [timestamp] "request" status bytes`.
//! Requests are not jobs, so this adapter buckets them: requests from one
//! host form a session until a gap longer than [`SESSION_GAP`] seconds, and
//! each session becomes one canonical [`JobRecord`] — arrival is the first
//! request, runtime spans the session, "parallelism" is the request count,
//! memory is the bytes transferred, the user is the host, and the
//! executable is the top-level path the session opened with. The machine's
//! "processors" are the server's peak concurrent sessions, so the load
//! variables keep their meaning (occupied session-seconds over available
//! capacity).
//!
//! Lines starting with `#` are comments (with `# Key: value` carrying
//! header metadata under the workspace keys, like the other adapters).

use std::fmt::Write;

use crate::record::{JobRecord, JobStatus, MISSING, QUEUE_INTERACTIVE};
use crate::report::{meta_from_header, parse_lines, ParseError, ParseErrorKind};
use crate::trace::{NormalizedTrace, TraceMeta};
use crate::{TraceFormat, TraceSource};

/// A gap of more than this many seconds between two requests from the same
/// host starts a new session (the classic 30-second think-time cutoff from
/// web-workload characterization).
pub const SESSION_GAP: f64 = 30.0;

/// One parsed access-log request line.
#[derive(Debug, Clone, PartialEq)]
pub struct WebRequest {
    /// Client host (or IP) — the session key.
    pub host: String,
    /// Request time as seconds since the Unix epoch (UTC).
    pub time: f64,
    /// Request path.
    pub path: String,
    /// HTTP status code.
    pub status: i64,
    /// Response size in bytes (0 for the CLF `-` placeholder).
    pub bytes: f64,
}

/// Parsed access log: header metadata plus requests in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct WeblogDocument {
    /// Header key/value pairs from `# Key: value` comment lines.
    pub header: std::collections::BTreeMap<String, String>,
    /// Requests in file order.
    pub requests: Vec<WebRequest>,
}

impl WeblogDocument {
    /// Bucket the requests into sessions and build a [`NormalizedTrace`].
    pub fn into_trace(self, name: impl Into<String>, default: TraceMeta) -> NormalizedTrace {
        let machine = meta_from_header(&self.header, default);
        sessions_to_trace(name, &self.requests, machine)
    }
}

/// Parse access-log text, erroring on the first malformed request line.
pub fn parse_weblog(text: &str) -> Result<WeblogDocument, ParseError> {
    let _span = wl_obs::span!("weblog.parse");
    let (header, requests) = parse_lines(TraceFormat::Weblog, '#', text, parse_request_line)?;
    Ok(WeblogDocument { header, requests })
}

/// Split a CLF line into tokens, keeping `[...]` and `"..."` groups whole
/// (delimiters stripped). An unterminated group is a structural error.
fn tokenize_clf(line: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        let (close, strip) = match c {
            '[' => (Some(']'), true),
            '"' => (Some('"'), true),
            _ => (None, false),
        };
        if strip {
            chars.next(); // consume the opener
        }
        let mut token = String::new();
        let mut terminated = close.is_none();
        for ch in chars.by_ref() {
            match close {
                Some(end) if ch == end => {
                    terminated = true;
                    break;
                }
                None if ch.is_whitespace() => break,
                _ => token.push(ch),
            }
        }
        if !terminated {
            return Err(ParseError {
                line: lineno,
                kind: ParseErrorKind::FieldCount,
                message: format!("unterminated {c} group"),
            });
        }
        tokens.push(token);
    }
    Ok(tokens)
}

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

// Days since 1970-01-01 for a proleptic-Gregorian civil date
// (Howard Hinnant's days_from_civil).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

// Length of a month of the proleptic Gregorian calendar.
fn days_in_month(year: i64, month: i64) -> i64 {
    match month {
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

// Inverse of `days_from_civil` (civil_from_days), for the writer.
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Decode a CLF timestamp (`10/Oct/1999:13:55:36 +0000`, brackets already
/// stripped) into seconds since the Unix epoch. `None` for a malformed
/// stamp, a year past 9999, a day past its month's end (Gregorian leap
/// years) or a zone offset past 23 hours or 59 minutes.
pub fn parse_clf_time(s: &str) -> Option<f64> {
    let (datetime, zone) = s.split_once(' ')?;
    let mut parts = datetime.split(':');
    let date = parts.next()?;
    let hh: i64 = parts.next()?.parse().ok()?;
    let mm: i64 = parts.next()?.parse().ok()?;
    let ss: i64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || !(0..24).contains(&hh) || !(0..60).contains(&mm) {
        return None;
    }
    // Leap seconds show up as :60 in some logs; clamp rather than reject.
    if !(0..61).contains(&ss) {
        return None;
    }
    let mut date_parts = date.split('/');
    let day: i64 = date_parts.next()?.parse().ok()?;
    let mon = date_parts.next()?;
    let year: i64 = date_parts.next()?.parse().ok()?;
    let month = MONTHS.iter().position(|m| m.eq_ignore_ascii_case(mon))? as i64 + 1;
    // CLF years have four digits; a longer one would overflow the seconds.
    if date_parts.next().is_some()
        || !(0..=9999).contains(&year)
        || !(1..=days_in_month(year, month)).contains(&day)
    {
        return None;
    }
    // Zone is +HHMM or -HHMM; local time minus the offset is UTC.
    let (sign, digits) = match zone.as_bytes().first()? {
        b'+' => (1i64, &zone[1..]),
        b'-' => (-1i64, &zone[1..]),
        _ => return None,
    };
    if digits.len() != 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let zh: i64 = digits[..2].parse().ok()?;
    let zm: i64 = digits[2..].parse().ok()?;
    if zh > 23 || zm > 59 {
        return None;
    }
    let offset = sign * (zh * 3600 + zm * 60);
    let days = days_from_civil(year, month, day);
    Some((days * 86400 + hh * 3600 + mm * 60 + ss.min(59) - offset) as f64)
}

/// Format an epoch second as a bracketed CLF timestamp in UTC
/// (`[10/Oct/1999:13:55:36 +0000]`). Inverse of [`parse_clf_time`] for
/// whole seconds.
pub fn fmt_clf_time(epoch: f64) -> String {
    let mut out = String::new();
    push_clf_time(&mut out, epoch as i64);
    out
}

/// Append epoch second `t` as [`fmt_clf_time`] formats it.
pub(crate) fn push_clf_time(out: &mut String, t: i64) {
    let days = t.div_euclid(86400);
    let secs = t.rem_euclid(86400);
    let (y, m, d) = civil_from_days(days);
    write!(
        out,
        "[{:02}/{}/{}:{:02}:{:02}:{:02} +0000]",
        d,
        MONTHS[(m - 1) as usize],
        y,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
    .expect("a String takes every write");
}

fn parse_request_line(line: &str, lineno: usize) -> Result<WebRequest, ParseError> {
    let tokens = tokenize_clf(line, lineno)?;
    if tokens.len() != 7 {
        return Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::FieldCount,
            message: format!(
                "expected 7 CLF fields (host ident authuser [time] \"request\" status bytes), \
                 found {}",
                tokens.len()
            ),
        });
    }
    let time = parse_clf_time(&tokens[3]).ok_or_else(|| ParseError {
        line: lineno,
        kind: ParseErrorKind::BadTimestamp,
        message: format!("bad CLF timestamp: {:?}", tokens[3]),
    })?;
    // "METHOD path protocol": the method must be there, but only the path
    // is kept.
    let mut req_parts = tokens[4].split_whitespace();
    let path = match (req_parts.next(), req_parts.next()) {
        (Some(_), Some(p)) => p.to_string(),
        _ => {
            return Err(ParseError {
                line: lineno,
                kind: ParseErrorKind::BadRequest,
                message: format!("bad request line: {:?}", tokens[4]),
            })
        }
    };
    let status: i64 = tokens[5].parse().map_err(|_| ParseError {
        line: lineno,
        kind: ParseErrorKind::NotNumeric,
        message: format!("status is not numeric: {:?}", tokens[5]),
    })?;
    let bytes = if tokens[6] == "-" {
        0.0
    } else {
        let v: f64 = tokens[6].parse().map_err(|_| ParseError {
            line: lineno,
            kind: ParseErrorKind::NotNumeric,
            message: format!("bytes is not numeric: {:?}", tokens[6]),
        })?;
        if !v.is_finite() {
            return Err(ParseError {
                line: lineno,
                kind: ParseErrorKind::NonFinite,
                message: format!("bytes is not finite: {:?}", tokens[6]),
            });
        }
        v
    };
    Ok(WebRequest {
        host: tokens[0].clone(),
        time,
        path,
        status,
        bytes,
    })
}

/// Bucket requests into per-host sessions (split on gaps over
/// [`SESSION_GAP`]) and build the canonical trace. Deterministic: sessions
/// are ordered by start time with ties broken by host first appearance, and
/// ids are assigned in that order. The machine's processor count is the
/// peak number of concurrently open sessions (at least 1); the supplied
/// metadata contributes the scheduler/allocation ranks, and its processor
/// count is used only when the log has no sessions at all.
pub fn sessions_to_trace(
    name: impl Into<String>,
    requests: &[WebRequest],
    machine: TraceMeta,
) -> NormalizedTrace {
    // Host index by first appearance = stable user ids across runs.
    let mut hosts: Vec<&str> = Vec::new();
    let mut exes: Vec<&str> = Vec::new();
    let mut host_of = Vec::with_capacity(requests.len());
    let mut exe_of = Vec::with_capacity(requests.len());
    for r in requests {
        let h = match hosts.iter().position(|h| *h == r.host) {
            Some(i) => i,
            None => {
                hosts.push(&r.host);
                hosts.len() - 1
            }
        };
        host_of.push(h);
        let seg = r.path.trim_start_matches('/').split('/').next().unwrap_or("");
        let e = match exes.iter().position(|s| *s == seg) {
            Some(i) => i,
            None => {
                exes.push(seg);
                exes.len() - 1
            }
        };
        exe_of.push(e);
    }

    // Per-host request streams in time order (stable: file order breaks
    // timestamp ties).
    let mut by_host: Vec<Vec<usize>> = vec![Vec::new(); hosts.len()];
    for (i, &h) in host_of.iter().enumerate() {
        by_host[h].push(i);
    }
    for stream in &mut by_host {
        stream.sort_by(|&a, &b| requests[a].time.total_cmp(&requests[b].time));
    }

    struct Session {
        host: usize,
        exe: usize,
        start: f64,
        end: f64,
        count: usize,
        bytes: f64,
        all_ok: bool,
    }

    let mut sessions: Vec<Session> = Vec::new();
    for (h, stream) in by_host.iter().enumerate() {
        let mut current: Option<Session> = None;
        for &i in stream {
            let r = &requests[i];
            let split = match &current {
                Some(s) => r.time - s.end > SESSION_GAP,
                None => true,
            };
            if split {
                if let Some(s) = current.take() {
                    sessions.push(s);
                }
                current = Some(Session {
                    host: h,
                    exe: exe_of[i],
                    start: r.time,
                    end: r.time,
                    count: 0,
                    bytes: 0.0,
                    all_ok: true,
                });
            }
            let s = current.as_mut().unwrap();
            s.end = r.time;
            s.count += 1;
            s.bytes += r.bytes;
            s.all_ok &= r.status < 400;
        }
        if let Some(s) = current.take() {
            sessions.push(s);
        }
    }
    // Deterministic global order: start time, host-index tiebreak (sessions
    // were pushed host by host, so a stable sort on start time alone keeps
    // the host order for ties).
    sessions.sort_by(|a, b| a.start.total_cmp(&b.start));

    // Peak concurrent sessions = the server's effective "processors".
    // Closing events sort before openings at the same instant so abutting
    // sessions don't double-count.
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(sessions.len() * 2);
    for s in &sessions {
        let run = (s.end - s.start) + 1.0;
        events.push((s.start, 1));
        events.push((s.start + run, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut open = 0i64;
    let mut peak = 0i64;
    for (_, delta) in events {
        open += delta;
        peak = peak.max(open);
    }
    let processors = if sessions.is_empty() {
        machine.processors
    } else {
        peak.max(1) as u64
    };

    let jobs: Vec<JobRecord> = sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut j = JobRecord::new(i as u64 + 1, s.start);
            j.wait_time = 0.0;
            // A one-request session still occupies the server briefly.
            j.run_time = (s.end - s.start) + 1.0;
            j.used_procs = s.count as i64;
            j.avg_cpu_time = MISSING;
            j.used_memory = s.bytes / 1024.0;
            j.status = if s.all_ok {
                JobStatus::Completed
            } else {
                JobStatus::Failed
            };
            j.user_id = s.host as i64;
            j.executable_id = s.exe as i64;
            j.queue = QUEUE_INTERACTIVE;
            j
        })
        .collect();

    NormalizedTrace::new(
        name,
        TraceMeta::new(processors, machine.scheduler, machine.allocation),
        jobs,
    )
}

/// The web access-log adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeblogSource;

impl TraceSource for WeblogSource {
    fn read(
        &self,
        name: &str,
        text: &str,
        default: TraceMeta,
    ) -> Result<NormalizedTrace, ParseError> {
        parse_weblog(text).map(|doc| doc.into_trace(name, default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocationFlexibility, SchedulerFlexibility};

    fn machine() -> TraceMeta {
        TraceMeta::new(
            8,
            SchedulerFlexibility::BatchQueue,
            AllocationFlexibility::Unlimited,
        )
    }

    const SAMPLE: &str = "\
# Server: test
alpha.example.com - - [01/Jan/1999:00:00:00 +0000] \"GET /docs/a.html HTTP/1.0\" 200 1024
alpha.example.com - - [01/Jan/1999:00:00:10 +0000] \"GET /docs/b.html HTTP/1.0\" 200 2048
beta.example.com - - [01/Jan/1999:00:00:05 +0000] \"GET /img/logo.gif HTTP/1.0\" 404 -
alpha.example.com - - [01/Jan/1999:00:05:00 +0000] \"GET /docs/c.html HTTP/1.0\" 200 512
";

    #[test]
    fn clf_time_round_trips() {
        // 1999-01-01 00:00:00 UTC.
        assert_eq!(
            parse_clf_time("01/Jan/1999:00:00:00 +0000"),
            Some(915148800.0)
        );
        // Zone offsets shift toward UTC.
        assert_eq!(
            parse_clf_time("01/Jan/1999:01:00:00 +0100"),
            Some(915148800.0)
        );
        assert_eq!(
            parse_clf_time("31/Dec/1998:23:00:00 -0100"),
            Some(915148800.0)
        );
        // Month lengths, leap days included.
        assert_eq!(
            parse_clf_time("29/Feb/2000:00:00:00 +0000"),
            Some(951782400.0)
        );
        assert_eq!(
            parse_clf_time("30/Apr/1999:00:00:00 +0000"),
            Some(925430400.0)
        );
        for epoch in [0.0, 915148800.0, 939736536.0, 951782400.0, 925430400.0] {
            let formatted = fmt_clf_time(epoch);
            let inner = formatted.trim_start_matches('[').trim_end_matches(']');
            assert_eq!(parse_clf_time(inner), Some(epoch), "{formatted}");
        }
    }

    #[test]
    fn bad_timestamps_are_typed() {
        for bad in [
            "32/Jan/1999:00:00:00 +0000",
            "01/Foo/1999:00:00:00 +0000",
            "01/Jan/1999:25:00:00 +0000",
            "01/Jan/1999:00:00:00 0000",
            "01/Jan/1999:00:00:00 +00x0",
            // Days past their month's end: no roll-over into the next.
            "31/Feb/1999:00:00:00 +0000",
            "29/Feb/1999:00:00:00 +0000",
            "29/Feb/1900:00:00:00 +0000",
            "31/Apr/1999:00:00:00 +0000",
            // Years outside 0..=9999 (the seconds would overflow).
            "01/Jan/99999999999999:00:00:00 +0000",
            "01/Jan/-1:00:00:00 +0000",
            // Zone offsets past 23 hours or 59 minutes.
            "01/Jan/1999:00:00:00 +9960",
            "01/Jan/1999:00:00:00 +2400",
            "01/Jan/1999:00:00:00 -0060",
            "garbage",
        ] {
            assert_eq!(parse_clf_time(bad), None, "{bad}");
        }
        let line = "h - - [garbage] \"GET / HTTP/1.0\" 200 1\n";
        assert_eq!(
            parse_weblog(line).unwrap_err().kind,
            ParseErrorKind::BadTimestamp
        );
    }

    #[test]
    fn parses_sample_requests() {
        let doc = parse_weblog(SAMPLE).unwrap();
        assert_eq!(doc.header["Server"], "test");
        assert_eq!(doc.requests.len(), 4);
        assert_eq!(doc.requests[0].host, "alpha.example.com");
        assert_eq!(doc.requests[0].path, "/docs/a.html");
        assert_eq!(doc.requests[0].status, 200);
        assert_eq!(doc.requests[2].bytes, 0.0); // CLF "-" placeholder
    }

    #[test]
    fn typed_errors_for_each_malformation() {
        let cases = [
            ("h - - [01/Jan/1999:00:00:00 +0000] \"GET /\" 200", ParseErrorKind::FieldCount),
            (
                "h - - [01/Jan/1999:00:00:00 +0000] \"G\" 200 1",
                ParseErrorKind::BadRequest,
            ),
            (
                "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" abc 1",
                ParseErrorKind::NotNumeric,
            ),
            (
                "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" 200 inf",
                ParseErrorKind::NonFinite,
            ),
            (
                "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0 200 1",
                ParseErrorKind::FieldCount, // unterminated quote group
            ),
        ];
        for (line, kind) in cases {
            assert_eq!(parse_weblog(line).unwrap_err().kind, kind, "{line}");
        }
    }

    #[test]
    fn sessions_bucket_by_host_and_gap() {
        let trace = WeblogSource.read("web", SAMPLE, machine()).unwrap();
        // alpha: two requests 10s apart = one session, then a 290s gap =
        // second session; beta: one session. Three jobs total.
        assert_eq!(trace.len(), 3);
        let jobs = trace.jobs();
        // Ordered by start: alpha(0s), beta(5s), alpha(300s).
        assert_eq!(jobs[0].used_procs, 2); // two requests
        assert_eq!(jobs[0].run_time, 11.0); // 10s span + 1
        assert_eq!(jobs[0].status, JobStatus::Completed);
        assert_eq!(jobs[1].used_procs, 1);
        assert_eq!(jobs[1].status, JobStatus::Failed); // the 404
        assert_eq!(jobs[2].used_procs, 1);
        // Same host keeps the same user id across sessions.
        assert_eq!(jobs[0].user_id, jobs[2].user_id);
        assert_ne!(jobs[0].user_id, jobs[1].user_id);
        // Top-level path segment is the "executable".
        assert_eq!(jobs[0].executable_id, jobs[2].executable_id); // docs
        assert_ne!(jobs[0].executable_id, jobs[1].executable_id); // img
        // All sessions are interactive, bytes land in used_memory.
        assert!(jobs.iter().all(|j| j.is_interactive()));
        assert!((jobs[0].used_memory - 3.0).abs() < 1e-12); // 3072 bytes
        // Peak concurrency: alpha's first session overlaps beta's.
        assert_eq!(trace.machine.processors, 2);
    }

    #[test]
    fn empty_log_keeps_default_machine() {
        let trace = WeblogSource.read("web", "# Server: x\n", machine()).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.machine.processors, machine().processors);
    }

    #[test]
    fn truncated_file_mid_line_never_panics() {
        let text = SAMPLE;
        for cut in 0..=text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            if let Ok(doc) = parse_weblog(&text[..cut]) {
                assert!(doc.requests.len() <= 4);
            }
        }
    }

    #[test]
    fn bucketing_is_deterministic() {
        let a = WeblogSource.read("web", SAMPLE, machine()).unwrap();
        let b = WeblogSource.read("web", SAMPLE, machine()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_digest(), b.canonical_digest());
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics on arbitrary text: it keeps at most
            /// one request per line, or names a line of the text.
            #[test]
            fn parsers_never_panic_on_arbitrary_text(text in "\\PC*") {
                match parse_weblog(&text) {
                    Ok(doc) => prop_assert!(doc.requests.len() <= text.lines().count()),
                    Err(e) => prop_assert!((1..=text.lines().count()).contains(&e.line)),
                }
            }

            /// Corrupting one token of a valid request line yields a typed
            /// error or a clean parse — never a panic — and sessionization
            /// of whatever survives never panics either.
            #[test]
            fn corrupted_token_gives_typed_error(
                field in 0usize..7,
                garbage in "[ -~]{0,20}",
            ) {
                let mut tokens = [
                    "h".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "[01/Jan/1999:00:00:00 +0000]".to_string(),
                    "\"GET /a/b HTTP/1.0\"".to_string(),
                    "200".to_string(),
                    "77".to_string(),
                ];
                tokens[field] = garbage;
                let line = tokens.join(" ");
                match parse_weblog(&line) {
                    Ok(doc) => {
                        let trace = doc.into_trace(
                            "f",
                            TraceMeta::new(
                                4,
                                crate::trace::SchedulerFlexibility::BatchQueue,
                                crate::trace::AllocationFlexibility::Unlimited,
                            ),
                        );
                        prop_assert!(trace.len() <= 2);
                    }
                    Err(e) => {
                        prop_assert!(e.line >= 1);
                        let _ = e.kind.label();
                    }
                }
            }
        }
    }
}
