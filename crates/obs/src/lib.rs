//! `wl-obs`: dependency-free observability for the workload-analysis suite.
//!
//! The pipeline (normalize → dissimilarity → MDS → arrows) plus the estimator
//! kernels are instrumented through this crate: hierarchical [`SpanGuard`]
//! spans with monotonic integer timestamps, and a process-wide [`Registry`] of
//! counters, gauges and log2-bucketed histograms. Everything is gated on a
//! single relaxed [`AtomicBool`]: when observability is off (the default) each
//! instrumentation site costs one atomic load and a predictable branch, so the
//! bit-identity and bench guarantees of the numeric code are untouched.
//!
//! Worker threads record straight into the registry: counter adds and
//! histogram records are relaxed atomic read-modify-writes that commute, so
//! metric totals do not depend on worker interleaving.
//!
//! Output goes through [`ObsSession`], which arms the registry from
//! `--trace <text|json>` / `--metrics-out <path>` flags and exports on drop.
//! The JSON-lines format is validated by [`check_trace`] (also available as
//! the `trace-check` binary): balanced per-thread span nesting, monotone
//! per-thread timestamps, unique metric names.

mod check;
mod export;
mod json;
mod registry;
mod session;
mod span;

pub use check::{check_trace, TraceStats};
pub use export::{export_json_lines, export_text, span_totals, SpanTotal};
pub use json::{escape_str, parse_json, JsonValue};
pub use registry::{
    bucket_index, registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, HIST_BUCKETS,
};
pub use session::{ObsSession, TraceFormat};
pub use span::{
    current_thread_id, events_dropped, events_snapshot, reset_events, SpanEvent, SpanEventKind,
    SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the registry is armed. Instrumentation macros check this first;
/// the relaxed load is the entire disabled-path cost.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm the global registry. Arming also pins the span-timestamp
/// epoch so `ts_ns` values are comparable across threads.
pub fn set_enabled(on: bool) {
    if on {
        span::init_epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Add `delta` to the named counter. The name must be a fixed `&'static str`
/// per call site — the interned handle is cached in a call-site `OnceLock`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {{
        if $crate::enabled() {
            static __WL_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            __WL_OBS_HANDLE
                .get_or_init(|| $crate::registry().counter($name))
                .add($delta as u64);
        }
    }};
}

/// Set the named gauge to an `i64` value (last write wins).
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static __WL_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
                ::std::sync::OnceLock::new();
            __WL_OBS_HANDLE
                .get_or_init(|| $crate::registry().gauge($name))
                .set($value as i64);
        }
    }};
}

/// Record one `u64` observation into the named histogram.
#[macro_export]
macro_rules! hist_record {
    ($name:expr, $value:expr) => {{
        if $crate::enabled() {
            static __WL_OBS_HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            __WL_OBS_HANDLE
                .get_or_init(|| $crate::registry().histogram($name))
                .record($value as u64);
        }
    }};
}

/// Open a hierarchical span; the returned guard closes it on drop (including
/// during unwinding, where the exit event is flagged `panicked`).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
