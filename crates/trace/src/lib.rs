//! `wl-trace`: the pluggable trace-ingestion layer.
//!
//! The paper's Co-plot method is format-agnostic — it only needs the
//! Table-1 derived variables — so this crate makes the rest of the stack
//! format-agnostic too. Every on-disk trace format is an adapter
//! implementing [`TraceSource`], and every adapter yields the same
//! canonical shape: a [`NormalizedTrace`] of [`JobRecord`]s plus
//! [`TraceMeta`]. Downstream layers (the derived-variable engine, the
//! dataset registry, the server, the CLI) consume only the canonical
//! stream, which is why one `wl coplot` invocation can place
//! supercomputer, grid, and web workloads on the same map.
//!
//! Adapters shipped here:
//! - [`swf::SwfSource`] — Standard Workload Format (18 fields, `;` headers)
//! - [`gwf::GwfSource`] — Grid Workloads Archive format (29 fields, `#`
//!   comments; the first 16 fields mirror SWF)
//! - [`weblog::WeblogSource`] — Common Log Format access logs, bucketed
//!   into session jobs
//!
//! plus deterministic synthetic families per format in [`synth`], so
//! everything is testable offline.

pub mod gwf;
pub mod record;
pub mod report;
pub mod stats;
pub mod swf;
pub mod synth;
#[cfg(test)]
mod text_oracle;
pub mod trace;
pub mod weblog;

pub use gwf::{parse_gwf, write_gwf, GwfDocument, GwfSource};
pub use record::{JobRecord, JobStatus, MISSING, QUEUE_BATCH, QUEUE_INTERACTIVE};
pub use report::{ParseError, ParseErrorKind};
pub use stats::{TraceStats, Variable, INTERVAL_WIDTH, NORMALIZED_MACHINE};
pub use swf::{parse_swf, write_swf, SwfDocument, SwfSource};
pub use trace::{
    AllocationFlexibility, NormalizedTrace, SchedulerFlexibility, TraceMeta,
};
pub use weblog::{
    parse_weblog, sessions_to_trace, WebRequest, WeblogDocument, WeblogSource, SESSION_GAP,
};

/// A trace file format with a registered adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TraceFormat {
    /// Standard Workload Format — the default, and the paper's native
    /// format.
    #[default]
    Swf,
    /// Grid Workloads Archive format.
    Gwf,
    /// Web server access log (Common Log Format).
    Weblog,
}

static SWF_SOURCE: SwfSource = SwfSource;
static GWF_SOURCE: GwfSource = GwfSource;
static WEBLOG_SOURCE: WeblogSource = WeblogSource;

impl TraceFormat {
    /// Every format with an adapter, in declaration order.
    pub const ALL: [TraceFormat; 3] = [TraceFormat::Swf, TraceFormat::Gwf, TraceFormat::Weblog];

    /// Stable lowercase label ("swf", "gwf", "weblog") — the value of the
    /// request API's `format` field and the server's dataset listings.
    pub fn label(&self) -> &'static str {
        match self {
            TraceFormat::Swf => "swf",
            TraceFormat::Gwf => "gwf",
            TraceFormat::Weblog => "weblog",
        }
    }

    /// Look a format up by its label.
    pub fn from_label(label: &str) -> Option<TraceFormat> {
        TraceFormat::ALL.iter().copied().find(|f| f.label() == label)
    }

    /// The adapter for this format.
    pub fn source(&self) -> &'static dyn TraceSource {
        match self {
            TraceFormat::Swf => &SWF_SOURCE,
            TraceFormat::Gwf => &GWF_SOURCE,
            TraceFormat::Weblog => &WEBLOG_SOURCE,
        }
    }

    /// Guess the format of a trace from its path and contents. The
    /// extension wins (`.swf`, `.gwf`, `.log`/`.clf`); otherwise the first
    /// data line decides: `;` starts an SWF header, a
    /// bracketed-timestamp-and-quoted-request shape is an access log, a
    /// 29-field line is GWF, and anything else defaults to SWF. `#` comment
    /// lines (shared by GWF and our weblog fixtures) are skipped; a file of
    /// only `#` comments reads as GWF.
    pub fn detect(path: &str, text: &str) -> TraceFormat {
        let ext = std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase());
        match ext.as_deref() {
            Some("swf") => return TraceFormat::Swf,
            Some("gwf") => return TraceFormat::Gwf,
            Some("log") | Some("clf") => return TraceFormat::Weblog,
            _ => {}
        }
        let mut saw_comment = false;
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('#') {
                saw_comment = true;
                continue;
            }
            if line.starts_with(';') {
                return TraceFormat::Swf;
            }
            if line.contains('[') && line.contains('"') {
                return TraceFormat::Weblog;
            }
            if line.split_whitespace().count() == gwf::GWF_FIELDS {
                return TraceFormat::Gwf;
            }
            return TraceFormat::Swf;
        }
        if saw_comment {
            TraceFormat::Gwf
        } else {
            TraceFormat::Swf
        }
    }

    /// Name of the counter tallying lines read by this format's parser.
    pub fn lines_counter(&self) -> &'static str {
        match self {
            TraceFormat::Swf => "swf.lines",
            TraceFormat::Gwf => "gwf.lines",
            TraceFormat::Weblog => "weblog.lines",
        }
    }

    /// Name of the counter tallying header lines absorbed.
    pub fn header_counter(&self) -> &'static str {
        match self {
            TraceFormat::Swf => "swf.header_lines",
            TraceFormat::Gwf => "gwf.header_lines",
            TraceFormat::Weblog => "weblog.header_lines",
        }
    }

    /// Name of the counter tallying data records parsed.
    pub fn jobs_counter(&self) -> &'static str {
        match self {
            TraceFormat::Swf => "swf.jobs_parsed",
            TraceFormat::Gwf => "gwf.jobs_parsed",
            TraceFormat::Weblog => "weblog.jobs_parsed",
        }
    }

    /// Name of the counter incremented when a parse fails on a line of the
    /// given kind.
    pub fn skip_counter(&self, kind: ParseErrorKind) -> &'static str {
        match self {
            TraceFormat::Swf => match kind {
                ParseErrorKind::FieldCount => "swf.skip.field_count",
                ParseErrorKind::NotNumeric => "swf.skip.not_numeric",
                ParseErrorKind::NegativeId => "swf.skip.negative_id",
                ParseErrorKind::NonFinite => "swf.skip.non_finite",
                ParseErrorKind::BadTimestamp => "swf.skip.bad_timestamp",
                ParseErrorKind::BadRequest => "swf.skip.bad_request",
            },
            TraceFormat::Gwf => match kind {
                ParseErrorKind::FieldCount => "gwf.skip.field_count",
                ParseErrorKind::NotNumeric => "gwf.skip.not_numeric",
                ParseErrorKind::NegativeId => "gwf.skip.negative_id",
                ParseErrorKind::NonFinite => "gwf.skip.non_finite",
                ParseErrorKind::BadTimestamp => "gwf.skip.bad_timestamp",
                ParseErrorKind::BadRequest => "gwf.skip.bad_request",
            },
            TraceFormat::Weblog => match kind {
                ParseErrorKind::FieldCount => "weblog.skip.field_count",
                ParseErrorKind::NotNumeric => "weblog.skip.not_numeric",
                ParseErrorKind::NegativeId => "weblog.skip.negative_id",
                ParseErrorKind::NonFinite => "weblog.skip.non_finite",
                ParseErrorKind::BadTimestamp => "weblog.skip.bad_timestamp",
                ParseErrorKind::BadRequest => "weblog.skip.bad_request",
            },
        }
    }
}

/// A pluggable trace reader: parses one on-disk format into the canonical
/// [`NormalizedTrace`]. Object-safe so callers can pick an adapter at
/// runtime via [`TraceFormat::source`].
pub trait TraceSource: Sync {
    /// Parse `text`, erroring on the first malformed record. `name` becomes
    /// the trace's display name; `default` supplies machine metadata not
    /// recoverable from the trace itself.
    fn read(
        &self,
        name: &str,
        text: &str,
        default: TraceMeta,
    ) -> Result<NormalizedTrace, ParseError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        // Each format's adapter reads its own format: an SWF job line is
        // one job to the SWF adapter and malformed to the others.
        let swf_line = "1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n";
        let meta = TraceMeta::new(
            8,
            SchedulerFlexibility::BatchQueue,
            AllocationFlexibility::Unlimited,
        );
        for f in TraceFormat::ALL {
            assert_eq!(TraceFormat::from_label(f.label()), Some(f));
            let read = f.source().read("x", swf_line, meta);
            assert_eq!(read.is_ok(), f == TraceFormat::Swf, "{f:?}");
        }
        assert_eq!(TraceFormat::from_label("synthetic"), None);
        assert_eq!(TraceFormat::from_label("SWF"), None); // labels are lowercase
    }

    #[test]
    fn default_format_is_swf() {
        assert_eq!(TraceFormat::default(), TraceFormat::Swf);
    }

    #[test]
    fn detection_by_extension() {
        assert_eq!(TraceFormat::detect("a/ctc.swf", ""), TraceFormat::Swf);
        assert_eq!(TraceFormat::detect("b/das2.GWF", ""), TraceFormat::Gwf);
        assert_eq!(TraceFormat::detect("c/access.log", ""), TraceFormat::Weblog);
        assert_eq!(TraceFormat::detect("c/access.clf", ""), TraceFormat::Weblog);
    }

    #[test]
    fn detection_by_content() {
        assert_eq!(
            TraceFormat::detect("x", "; Computer: T\n"),
            TraceFormat::Swf
        );
        assert_eq!(TraceFormat::detect("x", "# Site: G\n"), TraceFormat::Gwf);
        // Comments are skipped; the first data line decides.
        let gwf_body = format!("# Site: G\n1 {}\n", vec!["-1"; gwf::GWF_FIELDS - 1].join(" "));
        assert_eq!(TraceFormat::detect("x", &gwf_body), TraceFormat::Gwf);
        assert_eq!(
            TraceFormat::detect(
                "x",
                "h - - [01/Jan/1999:00:00:00 +0000] \"GET / HTTP/1.0\" 200 1\n"
            ),
            TraceFormat::Weblog
        );
        let gwf_line = format!("1 {}\n", vec!["-1"; gwf::GWF_FIELDS - 1].join(" "));
        assert_eq!(TraceFormat::detect("x", &gwf_line), TraceFormat::Gwf);
        // 18 bare fields (or anything else) defaults to SWF.
        assert_eq!(
            TraceFormat::detect("x", "1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n"),
            TraceFormat::Swf
        );
        assert_eq!(TraceFormat::detect("x", ""), TraceFormat::Swf);
    }

    #[test]
    fn every_source_reads_its_own_synthetic_family() {
        let default = TraceMeta::new(
            8,
            SchedulerFlexibility::BatchQueue,
            AllocationFlexibility::Unlimited,
        );
        let gwf_text = synth::grid_site_text(0, 10, 1);
        let web_text = synth::web_server_text(0, 10, 1);
        assert_eq!(TraceFormat::detect("x", &gwf_text), TraceFormat::Gwf);
        assert_eq!(TraceFormat::detect("y", &web_text), TraceFormat::Weblog);
        let trace = TraceFormat::Weblog
            .source()
            .read("w", &web_text, default)
            .unwrap();
        assert!(!trace.is_empty());
    }
}
