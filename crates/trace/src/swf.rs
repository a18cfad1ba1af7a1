//! SWF (Standard Workload Format) reader and writer — the first adapter.
//!
//! An SWF file is line-oriented: header lines start with `;` and carry
//! `; Key: value` metadata; every other non-empty line is one job with 18
//! whitespace-separated numeric fields, `-1` marking unknown values.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::record::{JobRecord, JobStatus};
use crate::report::{
    meta_from_header, parse_lines, split_fields, Field, ParseError, ParseErrorKind,
};
use crate::trace::{NormalizedTrace, TraceMeta};
use crate::{TraceFormat, TraceSource};

/// Parsed SWF document: header metadata plus jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfDocument {
    /// Header key/value pairs from `; Key: value` comment lines.
    pub header: BTreeMap<String, String>,
    /// Jobs in file order.
    pub jobs: Vec<JobRecord>,
}

impl SwfDocument {
    /// Turn the document into a [`NormalizedTrace`], reading what machine
    /// metadata it can from the header (`MaxNodes`, plus this workspace's
    /// `SchedulerRank` / `AllocationRank` extension keys) and falling back
    /// to the supplied defaults.
    pub fn into_trace(self, name: impl Into<String>, default: TraceMeta) -> NormalizedTrace {
        let machine = meta_from_header(&self.header, default);
        NormalizedTrace::new(name, machine, self.jobs)
    }
}

/// Parse SWF text into a document, erroring on the first malformed job line.
pub fn parse_swf(text: &str) -> Result<SwfDocument, ParseError> {
    let _span = wl_obs::span!("swf.parse");
    let (header, jobs) = parse_lines(TraceFormat::Swf, ';', text, parse_job_line)?;
    Ok(SwfDocument { header, jobs })
}

/// Parse one trimmed SWF job line, `lineno` being its 1-based number.
pub(crate) fn parse_job_line(line: &str, lineno: usize) -> Result<JobRecord, ParseError> {
    let fields: [Field; 18] = split_fields(line, 18).map_err(|found| ParseError {
        line: lineno,
        kind: ParseErrorKind::FieldCount,
        message: format!("expected 18 fields, found {found}"),
    })?;
    let f = |i: usize| numeric_field(&fields, i, lineno);
    let int = |i: usize| integer_field(&fields, i, lineno);
    let id = int(0)?;
    if id < 0 {
        return Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::NegativeId,
            message: format!("job id must be non-negative, found {id}"),
        });
    }
    Ok(JobRecord {
        id: id as u64,
        submit_time: f(1)?,
        wait_time: f(2)?,
        run_time: f(3)?,
        used_procs: int(4)?,
        avg_cpu_time: f(5)?,
        used_memory: f(6)?,
        requested_procs: int(7)?,
        requested_time: f(8)?,
        requested_memory: f(9)?,
        status: JobStatus::from_code(int(10)?),
        user_id: int(11)?,
        group_id: int(12)?,
        executable_id: int(13)?,
        queue: int(14)?,
        partition: int(15)?,
        preceding_job: int(16)?,
        think_time: f(17)?,
    })
}

/// Read one field as a finite f64 (shared with the GWF adapter, whose
/// first 16 data fields mirror SWF's): a plain decimal integer is the
/// value the scanner read, and any other text goes through
/// `str::parse::<f64>`.
pub(crate) fn numeric_field(fields: &[Field], i: usize, lineno: usize) -> Result<f64, ParseError> {
    match fields[i].integer {
        Some(v) => Ok(v),
        None => parse_number(fields[i].text, i, lineno),
    }
}

/// The `str::parse::<f64>` path of [`numeric_field`], out of line so the
/// integer path stays small.
#[cold]
#[inline(never)]
fn parse_number(text: &str, i: usize, lineno: usize) -> Result<f64, ParseError> {
    let v = text.parse::<f64>().map_err(|_| ParseError {
        line: lineno,
        kind: ParseErrorKind::NotNumeric,
        message: format!("field {} is not numeric: {:?}", i + 1, text),
    })?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::NonFinite,
            message: format!("field {} is not finite: {:?}", i + 1, text),
        })
    }
}

/// Parse one field as an integer, accepting "4" and "4.0" alike; trace files
/// in the wild mix both.
pub(crate) fn integer_field(fields: &[Field], i: usize, lineno: usize) -> Result<i64, ParseError> {
    let v = numeric_field(fields, i, lineno)?;
    Ok(v as i64)
}

/// Serialize a trace back to SWF text, including a header describing the
/// machine so a later [`parse_swf`] + [`SwfDocument::into_trace`] round
/// trip preserves it.
pub fn write_swf(workload: &NormalizedTrace) -> String {
    let mut out = String::with_capacity(text_capacity(workload));
    let machine = &workload.machine;
    write!(
        out,
        "; Computer: {}\n; MaxNodes: {}\n; SchedulerRank: {}\n; AllocationRank: {}\n; MaxJobs: {}\n",
        workload.name,
        machine.processors,
        machine.scheduler.rank(),
        machine.allocation.rank(),
        workload.len()
    )
    .expect("a String takes every write");
    for j in workload.jobs() {
        push_shared_fields(&mut out, j);
        out.push(' ');
        push_i64(&mut out, j.preceding_job);
        out.push(' ');
        push_f64(&mut out, j.think_time);
        out.push('\n');
    }
    out
}

/// A capacity for the text of `trace`: its header plus a typical job line
/// per job, so the writers rarely grow their string.
pub(crate) fn text_capacity(trace: &NormalizedTrace) -> usize {
    256 + trace.name.len() + trace.len() * 96
}

/// Append SWF fields 1-16 of `j`, space-separated, which SWF and GWF lines
/// share.
pub(crate) fn push_shared_fields(out: &mut String, j: &JobRecord) {
    push_u64(out, j.id);
    for v in [j.submit_time, j.wait_time, j.run_time] {
        out.push(' ');
        push_f64(out, v);
    }
    out.push(' ');
    push_i64(out, j.used_procs);
    for v in [j.avg_cpu_time, j.used_memory] {
        out.push(' ');
        push_f64(out, v);
    }
    out.push(' ');
    push_i64(out, j.requested_procs);
    for v in [j.requested_time, j.requested_memory] {
        out.push(' ');
        push_f64(out, v);
    }
    for v in [
        j.status.code(),
        j.user_id,
        j.group_id,
        j.executable_id,
        j.queue,
        j.partition,
    ] {
        out.push(' ');
        push_i64(out, v);
    }
}

/// Append a float field: integral values below 1e15 in magnitude as the
/// integer they hold (SWF consumers expect "-1", not "-1.0"; -0.0 writes
/// "0"), every other value as its `{}` text.
fn push_f64(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        push_i64(out, v as i64);
    } else {
        write!(out, "{v}").expect("a String takes every write");
    }
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append the decimal digits of `n`, as `n.to_string()` writes them.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// The SWF adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwfSource;

impl TraceSource for SwfSource {
    fn read(
        &self,
        name: &str,
        text: &str,
        default: TraceMeta,
    ) -> Result<NormalizedTrace, ParseError> {
        parse_swf(text).map(|doc| doc.into_trace(name, default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocationFlexibility, SchedulerFlexibility};

    fn machine() -> TraceMeta {
        TraceMeta::new(
            64,
            SchedulerFlexibility::BatchQueue,
            AllocationFlexibility::Limited,
        )
    }

    #[test]
    fn parses_minimal_file() {
        let text = "\
; Computer: Test
; MaxNodes: 64
1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
2 60 -1 50 2 -1 -1 -1 -1 -1 0 4 1 8 2 -1 -1 -1
";
        let doc = parse_swf(text).unwrap();
        assert_eq!(doc.header["Computer"], "Test");
        assert_eq!(doc.jobs.len(), 2);
        assert_eq!(doc.jobs[0].id, 1);
        assert_eq!(doc.jobs[0].run_time, 100.0);
        assert_eq!(doc.jobs[0].used_procs, 4);
        assert_eq!(doc.jobs[0].status, JobStatus::Completed);
        assert_eq!(doc.jobs[1].status, JobStatus::Failed);
        assert_eq!(doc.jobs[1].run_time_opt(), Some(50.0));
        assert_eq!(doc.jobs[1].avg_cpu_time_opt(), None);
    }

    #[test]
    fn wrong_field_count_is_error() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, ParseErrorKind::FieldCount);
        assert!(err.message.contains("18 fields"));
        assert!(err.message.ends_with("found 3"), "{}", err.message);
        for (line, found) in [
            ("1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1 9 9\n", 20),
            ("1\t0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1\n", 17),
        ] {
            let err = parse_swf(line).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::FieldCount);
            assert!(
                err.message.ends_with(&format!("found {found}")),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn non_numeric_field_is_error() {
        let text = "1 0 5 abc 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NotNumeric);
        assert!(err.message.contains("not numeric"));
    }

    #[test]
    fn negative_id_is_error() {
        let text = "-1 0 5 1 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NegativeId);
    }

    #[test]
    fn non_finite_field_is_error() {
        for bad in ["inf", "-inf", "NaN", "1e999"] {
            let text = format!("1 0 5 {bad} 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n");
            let err = parse_swf(&text).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NonFinite, "{bad}");
        }
    }

    /// A fixture mixing every malformation between good jobs: the parse
    /// reports the first bad line.
    const MIXED_FIXTURE: &str = "\
; Computer: Mixed
; MaxNodes: 64
1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
2 0 5
-3 0 5 1 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
4 0 5 abc 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
5 0 5 inf 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
6 60 1 50 2 -1 -1 -1 -1 -1 0 4 1 8 2 -1 -1 -1
";

    #[test]
    fn strict_parse_stops_at_first_bad_line_of_fixture() {
        let err = parse_swf(MIXED_FIXTURE).unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.kind, ParseErrorKind::FieldCount);
    }

    #[test]
    fn truncated_file_mid_line_never_panics() {
        // Cut a valid document at every byte boundary; the parser must
        // return (not panic) on each prefix.
        let text = "; MaxNodes: 8\n1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n";
        for cut in 0..=text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            if let Ok(doc) = parse_swf(&text[..cut]) {
                assert!(doc.jobs.len() <= 1);
            }
        }
    }

    #[test]
    fn round_trip_preserves_trace() {
        let mut j1 = JobRecord::new(1, 0.0);
        j1.run_time = 123.5;
        j1.used_procs = 8;
        j1.user_id = 3;
        j1.status = JobStatus::Completed;
        let mut j2 = JobRecord::new(2, 17.25);
        j2.run_time = 4.0;
        j2.used_procs = 1;
        j2.queue = 1;
        let w = NormalizedTrace::new("RT", machine(), vec![j1, j2]);

        let text = write_swf(&w);
        let doc = parse_swf(&text).unwrap();
        let w2 = doc.into_trace("RT", machine());
        assert_eq!(w, w2);
    }

    #[test]
    fn header_machine_metadata_round_trips() {
        let w = NormalizedTrace::new(
            "M",
            TraceMeta::new(
                1024,
                SchedulerFlexibility::Gang,
                AllocationFlexibility::PowerOfTwoPartitions,
            ),
            vec![],
        );
        let text = write_swf(&w);
        let doc = parse_swf(&text).unwrap();
        // Defaults differ from the header; header must win.
        let w2 = doc.into_trace("M", machine());
        assert_eq!(w2.machine.processors, 1024);
        assert_eq!(w2.machine.scheduler, SchedulerFlexibility::Gang);
        assert_eq!(
            w2.machine.allocation,
            AllocationFlexibility::PowerOfTwoPartitions
        );
    }

    #[test]
    fn blank_lines_and_plain_comments_ignored() {
        let text = "\n; just a note without colon-value\n\n";
        let doc = parse_swf(text).unwrap();
        assert!(doc.jobs.is_empty());
        assert!(doc.header.is_empty());
    }

    #[test]
    fn fractional_and_integer_fields_both_accepted() {
        let text = "1 0.5 5.0 100.25 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n";
        let doc = parse_swf(text).unwrap();
        assert_eq!(doc.jobs[0].submit_time, 0.5);
        assert_eq!(doc.jobs[0].run_time, 100.25);
    }

    #[test]
    fn source_read_matches_manual_parse() {
        let text = "\
; MaxNodes: 32
1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
";
        let via_source = SwfSource.read("t", text, machine()).unwrap();
        let manual = parse_swf(text).unwrap().into_trace("t", machine());
        assert_eq!(via_source, manual);
        assert_eq!(
            via_source.canonical_digest(),
            manual.canonical_digest()
        );
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics on arbitrary text: it keeps at most
            /// one job per line, or names a line of the text.
            #[test]
            fn parsers_never_panic_on_arbitrary_text(text in "\\PC*") {
                match parse_swf(&text) {
                    Ok(doc) => prop_assert!(doc.jobs.len() <= text.lines().count()),
                    Err(e) => prop_assert!((1..=text.lines().count()).contains(&e.line)),
                }
            }

            /// Corrupting one field of a valid job line yields a typed error
            /// (or a valid parse if the mutation happens to stay numeric) —
            /// never a panic.
            #[test]
            fn corrupted_field_gives_typed_error(
                field in 0usize..18,
                garbage in "\\PC*",
            ) {
                let mut fields: Vec<String> =
                    "1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1"
                        .split_whitespace()
                        .map(str::to_string)
                        .collect();
                fields[field] = garbage;
                let line = fields.join(" ");
                // The garbage may itself contain newlines, splitting the
                // document into several lines — any typed error (or a clean
                // parse of whatever survives) is acceptable; a panic is not.
                match parse_swf(&line) {
                    Ok(doc) => prop_assert!(doc.jobs.len() <= 2),
                    Err(e) => {
                        prop_assert!(e.line >= 1);
                        // Kind is one of the typed reasons; the label is
                        // total so this cannot panic.
                        let _ = e.kind.label();
                    }
                }
            }

            /// A document with malformed lines injected between valid ones
            /// keeps every job when no line is malformed, and otherwise
            /// fails on the first malformed line.
            #[test]
            fn strict_parse_stops_at_the_first_bad_line(
                n_good in 0usize..6,
                n_bad in 0usize..6,
            ) {
                let mut text = String::new();
                for i in 0..n_good.max(n_bad) {
                    if i < n_good {
                        text.push_str(&format!(
                            "{} 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n",
                            i + 1
                        ));
                    }
                    if i < n_bad {
                        text.push_str("truncated line\n");
                    }
                }
                match parse_swf(&text) {
                    Ok(doc) => {
                        prop_assert_eq!(n_bad, 0);
                        prop_assert_eq!(doc.jobs.len(), n_good);
                    }
                    Err(e) => {
                        prop_assert!(n_bad > 0);
                        prop_assert_eq!(e.line, if n_good > 0 { 2 } else { 1 });
                        prop_assert_eq!(e.kind, ParseErrorKind::FieldCount);
                    }
                }
            }
        }
    }
}
