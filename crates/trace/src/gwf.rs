//! GWF (Grid Workloads Archive format) reader and writer.
//!
//! A GWF file is line-oriented like SWF: comment lines start with `#` (with
//! `# Key: value` carrying metadata under the same header keys this
//! workspace uses for SWF), and every other non-empty line is one job with
//! 29 whitespace-separated fields. The first 16 fields mirror SWF fields
//! 1–16 (id, submit, wait, run, procs, CPU, memory, requests, status, user,
//! group, executable, queue, partition); the trailing 13 grid-specific
//! fields (site ids, job structure, network, disk, VO, project) must be
//! present but are not interpreted — the canonical [`JobRecord`] has no
//! slots for them, and the Table-1 variables never look at them.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::record::{JobRecord, JobStatus};
use crate::report::{
    meta_from_header, parse_lines, split_fields, Field, ParseError, ParseErrorKind,
};
use crate::swf::{integer_field, numeric_field, push_shared_fields, text_capacity};
use crate::trace::{NormalizedTrace, TraceMeta};
use crate::{TraceFormat, TraceSource};

/// Number of whitespace-separated fields in one GWF job line.
pub const GWF_FIELDS: usize = 29;

/// Parsed GWF document: header metadata plus jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GwfDocument {
    /// Header key/value pairs from `# Key: value` comment lines.
    pub header: BTreeMap<String, String>,
    /// Jobs in file order.
    pub jobs: Vec<JobRecord>,
}

impl GwfDocument {
    /// Turn the document into a [`NormalizedTrace`], reading machine
    /// metadata from the header under the same keys as the SWF adapter.
    pub fn into_trace(self, name: impl Into<String>, default: TraceMeta) -> NormalizedTrace {
        let machine = meta_from_header(&self.header, default);
        NormalizedTrace::new(name, machine, self.jobs)
    }
}

/// Parse GWF text into a document, erroring on the first malformed job line.
pub fn parse_gwf(text: &str) -> Result<GwfDocument, ParseError> {
    let _span = wl_obs::span!("gwf.parse");
    let (header, jobs) = parse_lines(TraceFormat::Gwf, '#', text, parse_job_line)?;
    Ok(GwfDocument { header, jobs })
}

/// Parse one trimmed GWF job line, `lineno` being its 1-based number.
pub(crate) fn parse_job_line(line: &str, lineno: usize) -> Result<JobRecord, ParseError> {
    // Fields 17..29 (orig/last-run site, job structure, network, disk,
    // resources, VO, project) are grid-specific: required present, counted,
    // deliberately uninterpreted.
    let fields: [Field; 16] = split_fields(line, GWF_FIELDS).map_err(|found| ParseError {
        line: lineno,
        kind: ParseErrorKind::FieldCount,
        message: format!("expected {GWF_FIELDS} fields, found {found}"),
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
    let mut j = JobRecord::new(id as u64, f(1)?);
    j.wait_time = f(2)?;
    j.run_time = f(3)?;
    j.used_procs = int(4)?;
    j.avg_cpu_time = f(5)?;
    j.used_memory = f(6)?;
    j.requested_procs = int(7)?;
    j.requested_time = f(8)?;
    j.requested_memory = f(9)?;
    j.status = JobStatus::from_code(int(10)?);
    j.user_id = int(11)?;
    j.group_id = int(12)?;
    j.executable_id = int(13)?;
    j.queue = int(14)?;
    j.partition = int(15)?;
    Ok(j)
}

/// Serialize a trace to GWF text with the workspace header keys, so a later
/// [`parse_gwf`] + [`GwfDocument::into_trace`] round trip preserves it. The
/// 13 grid-specific tail fields are written as `-1` (unknown).
pub fn write_gwf(trace: &NormalizedTrace) -> String {
    let mut out = String::with_capacity(text_capacity(trace));
    let machine = &trace.machine;
    write!(
        out,
        "# Site: {}\n# MaxNodes: {}\n# SchedulerRank: {}\n# AllocationRank: {}\n# MaxJobs: {}\n",
        trace.name,
        machine.processors,
        machine.scheduler.rank(),
        machine.allocation.rank(),
        trace.len()
    )
    .expect("a String takes every write");
    for j in trace.jobs() {
        push_shared_fields(&mut out, j);
        out.push_str(UNKNOWN_TAIL);
    }
    out
}

/// The 13 grid-specific tail fields, all unknown, and the line's end.
const UNKNOWN_TAIL: &str = " -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";

/// The GWF adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct GwfSource;

impl TraceSource for GwfSource {
    fn read(
        &self,
        name: &str,
        text: &str,
        default: TraceMeta,
    ) -> Result<NormalizedTrace, ParseError> {
        parse_gwf(text).map(|doc| doc.into_trace(name, default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocationFlexibility, SchedulerFlexibility};

    fn machine() -> TraceMeta {
        TraceMeta::new(
            256,
            SchedulerFlexibility::BatchQueue,
            AllocationFlexibility::Unlimited,
        )
    }

    fn good_line(id: u64) -> String {
        // 16 SWF-equivalent fields + 13 grid tail fields.
        format!(
            "{id} {} 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 \
             -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1",
            id * 60
        )
    }

    #[test]
    fn parses_minimal_file() {
        let text = format!(
            "# Site: TestGrid\n# MaxNodes: 256\n{}\n{}\n",
            good_line(1),
            good_line(2)
        );
        let doc = parse_gwf(&text).unwrap();
        assert_eq!(doc.header["Site"], "TestGrid");
        assert_eq!(doc.jobs.len(), 2);
        assert_eq!(doc.jobs[0].id, 1);
        assert_eq!(doc.jobs[0].run_time, 100.0);
        assert_eq!(doc.jobs[0].used_procs, 4);
        assert_eq!(doc.jobs[0].status, JobStatus::Completed);
        assert_eq!(doc.jobs[1].submit_time, 120.0);
        // Grid lines have no SWF fields 17/18.
        assert_eq!(doc.jobs[0].preceding_job, -1);
        assert_eq!(doc.jobs[0].think_time, -1.0);
    }

    #[test]
    fn swf_field_count_is_rejected() {
        // An 18-field SWF line is NOT a GWF line.
        let err = parse_gwf("1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::FieldCount);
        assert!(err.message.contains("29 fields"));
        assert!(err.message.ends_with("found 18"), "{}", err.message);
        // Over-long and short lines report the count they hold, Unicode
        // whitespace separating fields as `split_whitespace` does.
        for (line, found) in [
            (format!("{}\u{2003}7 8", good_line(1)), 31),
            ("1\u{a0}2 3".to_string(), 3),
        ] {
            let err = parse_gwf(&line).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::FieldCount);
            assert!(
                err.message.ends_with(&format!("found {found}")),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn typed_errors_mirror_swf_taxonomy() {
        let bad_id = good_line(1).replacen('1', "-1", 1);
        assert_eq!(
            parse_gwf(&bad_id).unwrap_err().kind,
            ParseErrorKind::NegativeId
        );
        let not_num = good_line(1).replace("100", "abc");
        assert_eq!(
            parse_gwf(&not_num).unwrap_err().kind,
            ParseErrorKind::NotNumeric
        );
        let non_finite = good_line(1).replace("100", "inf");
        assert_eq!(
            parse_gwf(&non_finite).unwrap_err().kind,
            ParseErrorKind::NonFinite
        );
    }

    #[test]
    fn header_machine_metadata_round_trips() {
        let w = NormalizedTrace::new(
            "G",
            TraceMeta::new(
                512,
                SchedulerFlexibility::Gang,
                AllocationFlexibility::PowerOfTwoPartitions,
            ),
            vec![],
        );
        let text = write_gwf(&w);
        let doc = parse_gwf(&text).unwrap();
        let w2 = doc.into_trace("G", machine());
        assert_eq!(w2.machine.processors, 512);
        assert_eq!(w2.machine.scheduler, SchedulerFlexibility::Gang);
        assert_eq!(
            w2.machine.allocation,
            AllocationFlexibility::PowerOfTwoPartitions
        );
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
        let text = write_gwf(&w);
        let w2 = parse_gwf(&text).unwrap().into_trace("RT", machine());
        assert_eq!(w, w2);
        assert_eq!(w.canonical_digest(), w2.canonical_digest());
    }

    #[test]
    fn same_jobs_in_swf_and_gwf_digest_identically() {
        // The canonical digest is over the record stream, not the file
        // bytes: the same jobs round-tripped through either format agree.
        let mut j = JobRecord::new(1, 10.0);
        j.run_time = 50.0;
        j.used_procs = 4;
        let w = NormalizedTrace::new("x", machine(), vec![j]);
        let via_swf = crate::swf::parse_swf(&crate::swf::write_swf(&w))
            .unwrap()
            .into_trace("x", machine());
        let via_gwf = parse_gwf(&write_gwf(&w)).unwrap().into_trace("x", machine());
        assert_eq!(via_swf.canonical_digest(), via_gwf.canonical_digest());
    }

    #[test]
    fn source_read_matches_manual_parse() {
        let text = format!("# MaxNodes: 64\n{}\n", good_line(1));
        let via_source = GwfSource.read("g", &text, machine()).unwrap();
        let manual = parse_gwf(&text).unwrap().into_trace("g", machine());
        assert_eq!(via_source, manual);
    }

    #[test]
    fn truncated_file_mid_line_never_panics() {
        let text = format!("# MaxNodes: 8\n{}\n", good_line(1));
        for cut in 0..=text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            if let Ok(doc) = parse_gwf(&text[..cut]) {
                assert!(doc.jobs.len() <= 1);
            }
        }
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// The parser never panics on arbitrary text: it keeps at most
            /// one job per line, or names a line of the text.
            #[test]
            fn parsers_never_panic_on_arbitrary_text(text in "\\PC*") {
                match parse_gwf(&text) {
                    Ok(doc) => prop_assert!(doc.jobs.len() <= text.lines().count()),
                    Err(e) => prop_assert!((1..=text.lines().count()).contains(&e.line)),
                }
            }

            /// Corrupting one field of a valid GWF line yields a typed error
            /// or a clean parse — never a panic.
            #[test]
            fn corrupted_field_gives_typed_error(
                field in 0usize..GWF_FIELDS,
                garbage in "\\PC*",
            ) {
                let base = super::good_line(1);
                let mut fields: Vec<String> =
                    base.split_whitespace().map(str::to_string).collect();
                fields[field] = garbage;
                let line = fields.join(" ");
                match parse_gwf(&line) {
                    Ok(doc) => prop_assert!(doc.jobs.len() <= 2),
                    Err(e) => {
                        prop_assert!(e.line >= 1);
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
                        text.push_str(&super::good_line(i as u64 + 1));
                        text.push('\n');
                    }
                    if i < n_bad {
                        text.push_str("truncated line\n");
                    }
                }
                match parse_gwf(&text) {
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
