//! Incremental per-window Table-1 maintenance for streaming consumers.
//!
//! The batch path ([`TraceStats::compute`]) makes several passes over a
//! whole trace. A streaming consumer instead sees job records one at a time
//! and seals fixed-size windows as they fill; recomputing every variable
//! from scratch per window would redo work proportional to the window each
//! time *and* force the caller to materialize a [`NormalizedTrace`] per
//! window. [`WindowStatsBuilder`] maintains every Table-1 ingredient as
//! records arrive — running sums for the loads, distinct-id sets for the
//! population normalizations, value buffers for the order statistics, the
//! last submit time for inter-arrivals — so sealing a window is a single
//! pass over nothing but the already-reduced state.
//!
//! **Bit-exactness contract:** for records pushed in ascending submit-time
//! order, [`WindowStatsBuilder::stats`] is bit-identical to
//! [`TraceStats::compute`] on a [`NormalizedTrace`] holding the same
//! records — every floating-point reduction here runs in the same order the
//! batch code's passes do. `incremental_matches_batch_bit_exact` pins this.

use std::collections::BTreeSet;

use crate::record::{JobRecord, JobStatus};
use crate::stats::{order_statistics, TraceStats};
use crate::trace::TraceMeta;

/// Streaming accumulator for one window's [`TraceStats`].
///
/// Push records in ascending submit-time order (the order every
/// [`crate::NormalizedTrace`] already guarantees), then call
/// [`stats`](WindowStatsBuilder::stats) to seal the window.
#[derive(Debug, Clone)]
pub struct WindowStatsBuilder {
    name: String,
    machine: TraceMeta,
    count: usize,
    first_submit: f64,
    max_end: f64,
    node_seconds_sum: f64,
    node_seconds_any: bool,
    cpu_seconds_sum: f64,
    cpu_seconds_any: bool,
    users: BTreeSet<u64>,
    executables: BTreeSet<u64>,
    known_status: usize,
    completed: usize,
    runtimes: Vec<f64>,
    procs: Vec<f64>,
    work: Vec<f64>,
    interarrivals: Vec<f64>,
    last_submit: Option<f64>,
}

impl WindowStatsBuilder {
    /// An empty window named `name` on the given machine.
    pub fn new(name: impl Into<String>, machine: TraceMeta) -> Self {
        WindowStatsBuilder {
            name: name.into(),
            machine,
            count: 0,
            first_submit: 0.0,
            max_end: f64::NEG_INFINITY,
            node_seconds_sum: 0.0,
            node_seconds_any: false,
            cpu_seconds_sum: 0.0,
            cpu_seconds_any: false,
            users: BTreeSet::new(),
            executables: BTreeSet::new(),
            known_status: 0,
            completed: 0,
            runtimes: Vec::new(),
            procs: Vec::new(),
            work: Vec::new(),
            interarrivals: Vec::new(),
            last_submit: None,
        }
    }

    /// Fold one record into the window state.
    pub fn push(&mut self, j: &JobRecord) {
        if self.count == 0 {
            self.first_submit = j.submit_time;
        }
        self.count += 1;
        self.max_end = self.max_end.max(j.end_time().unwrap_or(j.submit_time));

        if let Some(ns) = j.node_seconds() {
            self.node_seconds_sum += ns;
            self.node_seconds_any = true;
        }
        if let (Some(cpu), Some(p)) = (j.avg_cpu_time_opt(), j.used_procs_opt()) {
            self.cpu_seconds_sum += cpu * p as f64;
            self.cpu_seconds_any = true;
        }
        if let Some(u) = j.user_id_opt() {
            self.users.insert(u);
        }
        if let Some(e) = j.executable_id_opt() {
            self.executables.insert(e);
        }
        if j.status != JobStatus::Unknown {
            self.known_status += 1;
            if j.status == JobStatus::Completed {
                self.completed += 1;
            }
        }
        if let Some(rt) = j.run_time_opt() {
            self.runtimes.push(rt);
        }
        if let Some(p) = j.used_procs_opt() {
            self.procs.push(p as f64);
        }
        if let Some(w) = j.total_cpu_work() {
            self.work.push(w);
        }
        if let Some(prev) = self.last_submit {
            self.interarrivals.push(j.submit_time - prev);
        }
        self.last_submit = Some(j.submit_time);
    }

    /// Records folded so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no record has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The window's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seal the window: produce the same [`TraceStats`] the batch pass
    /// would, from the maintained state alone.
    pub fn stats(&self) -> TraceStats {
        let njobs = self.count;
        let duration = if njobs == 0 {
            0.0
        } else {
            (self.max_end - self.first_submit).max(0.0)
        };
        let capacity = self.machine.processors as f64 * duration;

        let runtime_load = if capacity > 0.0 && self.node_seconds_any {
            Some(self.node_seconds_sum / capacity)
        } else {
            None
        };
        let cpu_load = if capacity > 0.0 && self.cpu_seconds_any {
            Some(self.cpu_seconds_sum / capacity)
        } else {
            None
        };

        let norm = |count: usize| {
            if njobs > 0 && count > 0 {
                Some(count as f64 / njobs as f64)
            } else {
                None
            }
        };
        let norm_executables = norm(self.executables.len());
        let norm_users = norm(self.users.len());

        let completed_fraction = if self.known_status == 0 {
            None
        } else {
            Some(self.completed as f64 / self.known_status as f64)
        };

        let [
            (runtime_median, runtime_interval),
            (procs_median, procs_interval),
            (norm_procs_median, norm_procs_interval),
            (cpu_work_median, cpu_work_interval),
            (interarrival_median, interarrival_interval),
        ] = order_statistics(
            &self.runtimes,
            &self.procs,
            &self.work,
            &self.interarrivals,
            self.machine.processors,
        );

        TraceStats {
            name: self.name.clone(),
            machine_processors: self.machine.processors as f64,
            scheduler_flexibility: self.machine.scheduler.rank() as f64,
            allocation_flexibility: self.machine.allocation.rank() as f64,
            runtime_load,
            cpu_load,
            norm_executables,
            norm_users,
            completed_fraction,
            runtime_median,
            runtime_interval,
            procs_median,
            procs_interval,
            norm_procs_median,
            norm_procs_interval,
            cpu_work_median,
            cpu_work_interval,
            interarrival_median,
            interarrival_interval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocationFlexibility, NormalizedTrace, SchedulerFlexibility};

    fn machine(procs: u64) -> TraceMeta {
        TraceMeta::new(
            procs,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        )
    }

    /// A varied record stream: some fields missing, mixed statuses,
    /// irregular arrivals — everything Table 1 touches.
    fn varied_jobs(n: usize) -> Vec<JobRecord> {
        (0..n)
            .map(|i| {
                let mut j = JobRecord::new(i as u64 + 1, (i * i % 97) as f64 + i as f64 * 3.0);
                if i % 7 != 0 {
                    j.run_time = 10.0 + (i % 13) as f64 * 7.5;
                }
                if i % 5 != 0 {
                    j.used_procs = 1 + (i % 16) as i64;
                }
                if i % 3 == 0 {
                    j.avg_cpu_time = 4.0 + (i % 11) as f64;
                }
                j.wait_time = (i % 4) as f64;
                j.status = JobStatus::from_code((i % 6) as i64 - 1);
                if i % 2 == 0 {
                    j.user_id = (i % 9) as i64;
                }
                if i % 4 != 3 {
                    j.executable_id = (i % 5) as i64;
                }
                j
            })
            .collect()
    }

    #[test]
    fn incremental_matches_batch_bit_exact() {
        let jobs = varied_jobs(200);
        let m = machine(64);
        // Tumbling windows of 32 records over the sorted stream.
        let sorted = NormalizedTrace::new("all", m, jobs);
        for (k, chunk) in sorted.jobs().chunks(32).enumerate() {
            let name = format!("w{}", k + 1);
            let mut b = WindowStatsBuilder::new(&name, m);
            for j in chunk {
                b.push(j);
            }
            let batch = TraceStats::compute(&NormalizedTrace::new(&name, m, chunk.to_vec()));
            assert_eq!(b.stats(), batch, "window {name}");
        }
    }

    #[test]
    fn empty_window_matches_batch() {
        let m = machine(16);
        let b = WindowStatsBuilder::new("e", m);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        let batch = TraceStats::compute(&NormalizedTrace::new("e", m, vec![]));
        assert_eq!(b.stats(), batch);
    }

    #[test]
    fn single_job_window_matches_batch() {
        let m = machine(16);
        let jobs = varied_jobs(1);
        let mut b = WindowStatsBuilder::new("s", m);
        b.push(&jobs[0]);
        let batch = TraceStats::compute(&NormalizedTrace::new("s", m, jobs));
        assert_eq!(b.stats(), batch);
        // No second arrival, so no inter-arrival statistics.
        assert_eq!(b.stats().interarrival_median, None);
    }

    #[test]
    fn sealing_is_repeatable_and_nondestructive() {
        let m = machine(8);
        let mut b = WindowStatsBuilder::new("w", m);
        for j in varied_jobs(10) {
            b.push(&j);
        }
        let first = b.stats();
        assert_eq!(first, b.stats());
        assert_eq!(b.len(), 10);
    }
}
