//! SWF reader and writer — now a facade over `wl-trace`.
//!
//! The parser moved to [`wl_trace::swf`] when ingestion became pluggable:
//! it is the SWF adapter of the [`wl_trace::TraceSource`] trait, sharing
//! the line loop (which stops at the first malformed job line), the typed
//! [`ParseErrorKind`] taxonomy, and the per-format parse counters with the
//! GWF and web-log adapters. Everything re-exported here is the same type
//! the adapter uses, so existing call sites compile unchanged.
//!
//! Prefer the trait path for new code:
//! `wl_trace::TraceFormat::Swf.source().read(name, text, default)`.

pub use wl_trace::swf::{parse_swf, write_swf, SwfDocument, SwfSource};
pub use wl_trace::{ParseError, ParseErrorKind};

#[cfg(test)]
mod tests {
    use wl_trace::{TraceFormat, TraceMeta};

    use crate::workload::{AllocationFlexibility, MachineInfo, SchedulerFlexibility};

    const SAMPLE: &str = "\
; Computer: Equivalence Rig
; MaxNodes: 64
1 0 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1
2 30 2 50 8 45 -1 8 100 -1 1 4 1 7 2 -1 -1 -1
3 90 0 25 16 -1 -1 16 30 -1 0 5 2 8 1 -1 -1 -1
";

    fn default_meta() -> MachineInfo {
        MachineInfo::new(
            64,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        )
    }

    /// The deprecated free-function entry point and the `TraceSource` path
    /// must agree bit for bit — the facade is a wrapper, not a fork.
    #[test]
    fn facade_matches_trace_source_strict() {
        let via_facade = super::parse_swf(SAMPLE)
            .unwrap()
            .into_trace("rig", default_meta());
        let via_source: wl_trace::NormalizedTrace = TraceFormat::Swf
            .source()
            .read("rig", SAMPLE, default_meta())
            .unwrap();
        assert_eq!(via_facade.name, via_source.name);
        assert_eq!(via_facade.machine, via_source.machine);
        assert_eq!(via_facade.jobs(), via_source.jobs());
        assert_eq!(
            via_facade.canonical_digest(),
            via_source.canonical_digest()
        );
    }

    /// `TraceMeta` is the same type as `MachineInfo`, not a lookalike.
    #[test]
    fn meta_alias_is_identical_type() {
        let m: TraceMeta = default_meta();
        assert_eq!(m.processors, 64);
    }
}
