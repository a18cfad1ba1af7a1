//! Trait-level parse machinery shared by every trace adapter.
//!
//! The SWF parser's typed per-line error taxonomy, lenient-parse accounting,
//! and metrics mirroring generalize here: every adapter reports the same
//! [`ParseErrorKind`]s, fills the same [`ParseReport`], and increments the
//! same per-format `<format>.lines` / `<format>.jobs_parsed` /
//! `<format>.skip.<kind>` counters, so `/metrics` distinguishes ingestion
//! formats with one taxonomy.

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{AllocationFlexibility, SchedulerFlexibility, TraceMeta};
use crate::TraceFormat;

/// Typed reason a data line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParseErrorKind {
    /// Wrong number of fields (truncated or padded line).
    FieldCount,
    /// A field was not numeric.
    NotNumeric,
    /// The job id was negative.
    NegativeId,
    /// A field parsed to NaN or an infinity.
    NonFinite,
    /// A timestamp field could not be decoded (web access logs).
    BadTimestamp,
    /// A request line could not be decoded (web access logs).
    BadRequest,
}

impl ParseErrorKind {
    /// Short kebab-case label, stable for metrics and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            ParseErrorKind::FieldCount => "field-count",
            ParseErrorKind::NotNumeric => "not-numeric",
            ParseErrorKind::NegativeId => "negative-id",
            ParseErrorKind::NonFinite => "non-finite",
            ParseErrorKind::BadTimestamp => "bad-timestamp",
            ParseErrorKind::BadRequest => "bad-request",
        }
    }
}

/// Error from parsing a trace document, independent of format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Typed malformation kind.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {} ({}): {}",
            self.line,
            self.kind.label(),
            self.message
        )
    }
}

impl std::error::Error for ParseError {}

// The conversion lives here (not in `coplot`) because of the orphan rule:
// `coplot` cannot name `ParseError` without a dependency cycle, so its
// `CoplotError::Parse` variant mirrors the fields instead.
impl From<ParseError> for coplot::CoplotError {
    fn from(e: ParseError) -> coplot::CoplotError {
        coplot::CoplotError::Parse {
            line: e.line,
            kind: match e.kind {
                ParseErrorKind::FieldCount => coplot::ParseKind::FieldCount,
                ParseErrorKind::NotNumeric => coplot::ParseKind::NotNumeric,
                ParseErrorKind::NegativeId => coplot::ParseKind::NegativeId,
                ParseErrorKind::NonFinite => coplot::ParseKind::NonFinite,
                ParseErrorKind::BadTimestamp => coplot::ParseKind::BadTimestamp,
                ParseErrorKind::BadRequest => coplot::ParseKind::BadRequest,
            },
            message: e.message,
        }
    }
}

/// Per-line accounting of one parse, mirrored into the per-format
/// `<format>.*` metrics when the `wl-obs` registry is armed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// The format whose adapter produced this report.
    pub format: TraceFormat,
    /// Lines read, including blanks and comments.
    pub lines: usize,
    /// `Key: value` header comment lines absorbed.
    pub header_lines: usize,
    /// Blank or non-metadata comment lines skipped.
    pub ignored_lines: usize,
    /// Data lines parsed successfully (jobs for SWF/GWF, requests for web
    /// access logs).
    pub jobs: usize,
    /// Malformed data lines dropped, with location and typed reason
    /// (lenient parse only; the strict parse errors on the first).
    pub skipped: Vec<(usize, ParseErrorKind)>,
}

impl ParseReport {
    /// An empty report tagged with its format.
    pub fn new(format: TraceFormat) -> ParseReport {
        ParseReport {
            format,
            ..ParseReport::default()
        }
    }

    /// Number of dropped lines of one kind.
    pub fn skipped_of(&self, kind: ParseErrorKind) -> usize {
        self.skipped.iter().filter(|(_, k)| *k == kind).count()
    }

    pub(crate) fn record_metrics(&self) {
        // Counter names vary by format, so this goes through the dynamic
        // registry handles rather than the per-call-site `counter!` macro
        // (which interns one literal name per expansion).
        if !wl_obs::enabled() {
            return;
        }
        let reg = wl_obs::registry();
        reg.counter(self.format.lines_counter()).add(self.lines as u64);
        reg.counter(self.format.header_counter())
            .add(self.header_lines as u64);
        reg.counter(self.format.jobs_counter()).add(self.jobs as u64);
        for (_, kind) in &self.skipped {
            reg.counter(self.format.skip_counter(*kind)).add(1);
        }
    }
}

/// The shared line loop behind every adapter: blank lines are ignored,
/// `<comment>Key: value` lines become header metadata, other comment lines
/// are ignored, and everything else goes through `parse_record`. In strict
/// mode the first malformed record aborts the scan; in lenient mode it is
/// recorded in the report and skipped.
pub(crate) fn parse_lines<R>(
    format: TraceFormat,
    comment: char,
    strict: bool,
    text: &str,
    parse_record: impl Fn(&str, usize) -> Result<R, ParseError>,
) -> (
    BTreeMap<String, String>,
    Vec<R>,
    ParseReport,
    Option<ParseError>,
) {
    let mut header = BTreeMap::new();
    let mut records = Vec::new();
    let mut report = ParseReport::new(format);

    for (lineno, raw) in text.lines().enumerate() {
        report.lines += 1;
        let line = raw.trim();
        if line.is_empty() {
            report.ignored_lines += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix(comment) {
            if let Some((key, value)) = rest.split_once(':') {
                header.insert(key.trim().to_string(), value.trim().to_string());
                report.header_lines += 1;
            } else {
                report.ignored_lines += 1;
            }
            continue;
        }
        match parse_record(line, lineno + 1) {
            Ok(record) => {
                records.push(record);
                report.jobs += 1;
            }
            Err(e) => {
                report.skipped.push((e.line, e.kind));
                if strict {
                    return (header, records, report, Some(e));
                }
            }
        }
    }
    (header, records, report, None)
}

/// Split a job line into its `N` whitespace-separated fields without
/// allocating, by the rule of [`str::split_whitespace`] (Unicode whitespace
/// included). When the line does not hold exactly `N` fields, the error is
/// the number it does hold.
pub(crate) fn split_fields<const N: usize>(line: &str) -> Result<[&str; N], usize> {
    let mut fields = [""; N];
    let mut found = 0;
    for field in line.split_whitespace() {
        if let Some(slot) = fields.get_mut(found) {
            *slot = field;
        }
        found += 1;
    }
    if found == N {
        Ok(fields)
    } else {
        Err(found)
    }
}

/// Read the machine metadata this workspace encodes in header comments
/// (`MaxNodes`/`MaxProcs`, plus the `SchedulerRank` / `AllocationRank`
/// extension keys), falling back to the supplied defaults.
pub(crate) fn meta_from_header(
    header: &BTreeMap<String, String>,
    default: TraceMeta,
) -> TraceMeta {
    let procs = header
        .get("MaxNodes")
        .or_else(|| header.get("MaxProcs"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default.processors);
    let sched = header
        .get("SchedulerRank")
        .and_then(|v| v.trim().parse::<u8>().ok())
        .and_then(|r| match r {
            1 => Some(SchedulerFlexibility::BatchQueue),
            2 => Some(SchedulerFlexibility::Backfilling),
            3 => Some(SchedulerFlexibility::Gang),
            _ => None,
        })
        .unwrap_or(default.scheduler);
    let alloc = header
        .get("AllocationRank")
        .and_then(|v| v.trim().parse::<u8>().ok())
        .and_then(|r| match r {
            1 => Some(AllocationFlexibility::PowerOfTwoPartitions),
            2 => Some(AllocationFlexibility::Limited),
            3 => Some(AllocationFlexibility::Unlimited),
            _ => None,
        })
        .unwrap_or(default.allocation);
    TraceMeta::new(procs, sched, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_total_and_unique() {
        let kinds = [
            ParseErrorKind::FieldCount,
            ParseErrorKind::NotNumeric,
            ParseErrorKind::NegativeId,
            ParseErrorKind::NonFinite,
            ParseErrorKind::BadTimestamp,
            ParseErrorKind::BadRequest,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn new_kinds_convert_to_coplot_error() {
        for (kind, want) in [
            (ParseErrorKind::BadTimestamp, coplot::ParseKind::BadTimestamp),
            (ParseErrorKind::BadRequest, coplot::ParseKind::BadRequest),
        ] {
            let e = ParseError {
                line: 3,
                kind,
                message: "x".into(),
            };
            let converted: coplot::CoplotError = e.into();
            match converted {
                coplot::CoplotError::Parse { line, kind, .. } => {
                    assert_eq!(line, 3);
                    assert_eq!(kind, want);
                }
                other => panic!("unexpected conversion: {other:?}"),
            }
        }
    }

    #[test]
    fn skip_counter_names_are_distinct_per_format() {
        let mut names: Vec<&str> = Vec::new();
        for format in [TraceFormat::Swf, TraceFormat::Gwf, TraceFormat::Weblog] {
            names.push(format.lines_counter());
            names.push(format.header_counter());
            names.push(format.jobs_counter());
            for kind in [
                ParseErrorKind::FieldCount,
                ParseErrorKind::NotNumeric,
                ParseErrorKind::NegativeId,
                ParseErrorKind::NonFinite,
                ParseErrorKind::BadTimestamp,
                ParseErrorKind::BadRequest,
            ] {
                names.push(format.skip_counter(kind));
            }
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn report_accounting_identity_via_shared_loop() {
        let text = "; A: 1\n\n; plain comment\nok\nbad\n";
        let (header, records, report, first_err) =
            parse_lines(TraceFormat::Swf, ';', false, text, |line, lineno| {
                if line == "ok" {
                    Ok(())
                } else {
                    Err(ParseError {
                        line: lineno,
                        kind: ParseErrorKind::FieldCount,
                        message: "bad".into(),
                    })
                }
            });
        assert_eq!(header["A"], "1");
        assert_eq!(records.len(), 1);
        assert!(first_err.is_none());
        assert_eq!(report.lines, 5);
        assert_eq!(report.header_lines, 1);
        assert_eq!(report.ignored_lines, 2);
        assert_eq!(report.jobs, 1);
        assert_eq!(report.skipped, vec![(5, ParseErrorKind::FieldCount)]);
    }

    #[test]
    fn strict_mode_stops_at_first_error() {
        let text = "bad\nok\n";
        let (_, records, report, first_err) =
            parse_lines::<()>(TraceFormat::Gwf, '#', true, text, |_, lineno| {
                Err(ParseError {
                    line: lineno,
                    kind: ParseErrorKind::NotNumeric,
                    message: "bad".into(),
                })
            });
        assert!(records.is_empty());
        assert_eq!(first_err.unwrap().line, 1);
        assert_eq!(report.format, TraceFormat::Gwf);
    }
}
