//! Standard Workload Format (SWF) substrate — now a facade over `wl-trace`.
//!
//! The paper's data set is ten production workloads plus five synthetic
//! model outputs, all converted to the *standard workload format* the
//! authors established for the Parallel Workloads Archive. This crate keeps
//! the archive-toolkit surface the rest of the workspace was written
//! against, but the implementation moved to `wl-trace` when ingestion
//! became pluggable: SWF is now one [`wl_trace::TraceSource`] adapter among
//! several (GWF, web access logs), all normalizing into the same record
//! stream. Every name here is a re-export or type alias of the `wl-trace`
//! original — identical types, zero conversion cost.
//!
//! * [`job::Job`] — alias of [`wl_trace::JobRecord`]: one record with all
//!   SWF fields (times, processors, memory, status, user/group/executable
//!   identifiers, queue/partition).
//! * [`workload::Workload`] — alias of [`wl_trace::NormalizedTrace`]: a
//!   named job collection with machine metadata, plus the filters the
//!   paper applies (interactive/batch splits, period splits; section 6).
//! * [`parse`] — the SWF adapter's reader, which stops at the first
//!   malformed job line with a typed [`ParseError`], and its writer (header
//!   comments included); prefer `TraceFormat::Swf.source()` in new code.
//! * [`metrics`] — alias of [`wl_trace::TraceStats`]: the
//!   derived-characteristics engine producing every Table 1 / Table 2
//!   variable from a canonical record stream.
//! * [`series`] — per-job time series in arrival order (used processors,
//!   runtime, total CPU time, inter-arrival time), the inputs to the
//!   self-similarity analysis of section 9. Still lives here: the series
//!   are defined on the canonical trace, so they work for any format.

pub mod job;
pub mod metrics;
pub mod parse;
pub mod series;
pub mod workload;

pub use job::{Job, JobStatus};
pub use metrics::{Variable, WorkloadStats};
pub use parse::{parse_swf, write_swf, ParseError, ParseErrorKind};
pub use series::{arrival_counts, JobSeries};
pub use workload::{AllocationFlexibility, MachineInfo, SchedulerFlexibility, Workload};
