//! The derived workload characteristics of Table 1 / Table 2.
//!
//! Every variable the paper measures on a workload is computed here from the
//! normalized record stream plus machine metadata — the computation never
//! sees the on-disk trace format. Missing inputs produce `None`
//! (the paper's "N/A" cells); the paper's imputation rules (e.g. using
//! runtime load when CPU load is missing) are applied by analysis code, not
//! here, so the raw facts stay inspectable.

use wl_stats::order::CentralOrder;

use crate::record::JobStatus;
use crate::trace::NormalizedTrace;

/// The width of the paper's preferred order-statistic interval: the 90%
/// interval is the 95th minus the 5th percentile.
pub const INTERVAL_WIDTH: f64 = 0.90;

/// The machine size jobs are renormalized to for the "normalized degree of
/// parallelism" variables (paper section 3, variable 11).
pub const NORMALIZED_MACHINE: f64 = 128.0;

/// One of the paper's workload variables, in Table 1 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variable {
    /// MP — processors in the system.
    MachineProcessors,
    /// SF — scheduler flexibility rank (1..=3).
    SchedulerFlexibility,
    /// AL — allocation flexibility rank (1..=3).
    AllocationFlexibility,
    /// RL — runtime load: occupied node-seconds over available node-seconds.
    RuntimeLoad,
    /// CL — CPU load: CPU-seconds over available node-seconds.
    CpuLoad,
    /// E — distinct executables per job.
    NormExecutables,
    /// U — distinct users per job.
    NormUsers,
    /// C — fraction of jobs that completed successfully.
    CompletedFraction,
    /// Rm — median runtime.
    RuntimeMedian,
    /// Ri — 90% interval of runtime.
    RuntimeInterval,
    /// Pm — median degree of parallelism.
    ProcsMedian,
    /// Pi — 90% interval of parallelism.
    ProcsInterval,
    /// Nm — median normalized parallelism (out of a 128-node machine).
    NormProcsMedian,
    /// Ni — 90% interval of normalized parallelism.
    NormProcsInterval,
    /// Cm — median total CPU work.
    CpuWorkMedian,
    /// Ci — 90% interval of total CPU work.
    CpuWorkInterval,
    /// Im — median inter-arrival time.
    InterArrivalMedian,
    /// Ii — 90% interval of inter-arrival time.
    InterArrivalInterval,
}

impl Variable {
    /// All variables in Table 1 order.
    pub const ALL: [Variable; 18] = [
        Variable::MachineProcessors,
        Variable::SchedulerFlexibility,
        Variable::AllocationFlexibility,
        Variable::RuntimeLoad,
        Variable::CpuLoad,
        Variable::NormExecutables,
        Variable::NormUsers,
        Variable::CompletedFraction,
        Variable::RuntimeMedian,
        Variable::RuntimeInterval,
        Variable::ProcsMedian,
        Variable::ProcsInterval,
        Variable::NormProcsMedian,
        Variable::NormProcsInterval,
        Variable::CpuWorkMedian,
        Variable::CpuWorkInterval,
        Variable::InterArrivalMedian,
        Variable::InterArrivalInterval,
    ];

    /// The short code used in the paper's Table 1 ("MP", "Rm", ...).
    pub fn code(&self) -> &'static str {
        match self {
            Variable::MachineProcessors => "MP",
            Variable::SchedulerFlexibility => "SF",
            Variable::AllocationFlexibility => "AL",
            Variable::RuntimeLoad => "RL",
            Variable::CpuLoad => "CL",
            Variable::NormExecutables => "E",
            Variable::NormUsers => "U",
            Variable::CompletedFraction => "C",
            Variable::RuntimeMedian => "Rm",
            Variable::RuntimeInterval => "Ri",
            Variable::ProcsMedian => "Pm",
            Variable::ProcsInterval => "Pi",
            Variable::NormProcsMedian => "Nm",
            Variable::NormProcsInterval => "Ni",
            Variable::CpuWorkMedian => "Cm",
            Variable::CpuWorkInterval => "Ci",
            Variable::InterArrivalMedian => "Im",
            Variable::InterArrivalInterval => "Ii",
        }
    }

    /// Look up a variable by its Table 1 code.
    pub fn from_code(code: &str) -> Option<Variable> {
        Variable::ALL.iter().copied().find(|v| v.code() == code)
    }

    /// Human-readable name, as in Table 1's first column.
    pub fn name(&self) -> &'static str {
        match self {
            Variable::MachineProcessors => "Machine processors",
            Variable::SchedulerFlexibility => "Scheduler flexibility",
            Variable::AllocationFlexibility => "Allocation flexibility",
            Variable::RuntimeLoad => "Runtime load",
            Variable::CpuLoad => "CPU load",
            Variable::NormExecutables => "Norm. executables",
            Variable::NormUsers => "Norm. users",
            Variable::CompletedFraction => "% completed jobs",
            Variable::RuntimeMedian => "Runtime median",
            Variable::RuntimeInterval => "Runtime interval",
            Variable::ProcsMedian => "Processors median",
            Variable::ProcsInterval => "Processors interval",
            Variable::NormProcsMedian => "Norm. proc. median",
            Variable::NormProcsInterval => "Norm. proc. interval",
            Variable::CpuWorkMedian => "CPU work median",
            Variable::CpuWorkInterval => "CPU work interval",
            Variable::InterArrivalMedian => "Inter-arrival median",
            Variable::InterArrivalInterval => "Inter-arrival interval",
        }
    }
}

/// The `(median, 90% interval)` pairs of runtime, parallelism, normalized
/// parallelism, CPU work and inter-arrival time, `(None, None)` for an
/// attribute no job records.
///
/// Normalized parallelism is read at the ranks selected for parallelism:
/// `p / processors * 128` is non-decreasing and never a negative zero, so
/// the normalized sample sorts into the same ranks and each order
/// statistic is the normalized one, bit for bit.
fn order_statistics(
    runtimes: &[f64],
    procs: &[f64],
    work: &[f64],
    interarrivals: &[f64],
    processors: u64,
) -> [(Option<f64>, Option<f64>); 5] {
    let select = |xs: &[f64]| (!xs.is_empty()).then(|| CentralOrder::select(xs, INTERVAL_WIDTH));
    let pair = |order: Option<CentralOrder>| match order {
        Some(o) => {
            let (median, interval) = o.median_interval();
            (Some(median), Some(interval))
        }
        None => (None, None),
    };
    let procs = select(procs);
    let norm_procs = procs.map(|o| o.map(|p| p / processors as f64 * NORMALIZED_MACHINE));
    [
        pair(select(runtimes)),
        pair(procs),
        pair(norm_procs),
        pair(select(work)),
        pair(select(interarrivals)),
    ]
}

/// All Table 1 / Table 2 characteristics of one trace.
/// `None` fields are the paper's "N/A" cells.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace display name.
    pub name: String,
    pub machine_processors: f64,
    pub scheduler_flexibility: f64,
    pub allocation_flexibility: f64,
    pub runtime_load: Option<f64>,
    pub cpu_load: Option<f64>,
    pub norm_executables: Option<f64>,
    pub norm_users: Option<f64>,
    pub completed_fraction: Option<f64>,
    pub runtime_median: Option<f64>,
    pub runtime_interval: Option<f64>,
    pub procs_median: Option<f64>,
    pub procs_interval: Option<f64>,
    pub norm_procs_median: Option<f64>,
    pub norm_procs_interval: Option<f64>,
    pub cpu_work_median: Option<f64>,
    pub cpu_work_interval: Option<f64>,
    pub interarrival_median: Option<f64>,
    pub interarrival_interval: Option<f64>,
}

impl TraceStats {
    /// Compute every characteristic from a normalized trace.
    pub fn compute(w: &NormalizedTrace) -> TraceStats {
        let njobs = w.len();
        let duration = w.duration();
        let capacity = w.machine.processors as f64 * duration;

        // Loads. Runtime load sums node-seconds; CPU load sums CPU-seconds.
        let runtime_load = if capacity > 0.0 {
            let occupied: f64 = w.jobs().iter().filter_map(|j| j.node_seconds()).sum();
            let any = w.jobs().iter().any(|j| j.node_seconds().is_some());
            if any {
                Some(occupied / capacity)
            } else {
                None
            }
        } else {
            None
        };
        let cpu_load = if capacity > 0.0 {
            let mut any = false;
            let mut used = 0.0;
            for j in w.jobs() {
                if let (Some(cpu), Some(p)) = (j.avg_cpu_time_opt(), j.used_procs_opt()) {
                    used += cpu * p as f64;
                    any = true;
                }
            }
            if any {
                Some(used / capacity)
            } else {
                None
            }
        } else {
            None
        };

        // Population normalizations.
        let norm = |count: usize| {
            if njobs > 0 && count > 0 {
                Some(count as f64 / njobs as f64)
            } else {
                None
            }
        };
        let norm_executables = norm(w.distinct_executables());
        let norm_users = norm(w.distinct_users());

        // Completion fraction among jobs whose status is known.
        let known: Vec<&JobStatus> = w
            .jobs()
            .iter()
            .map(|j| &j.status)
            .filter(|s| **s != JobStatus::Unknown)
            .collect();
        let completed_fraction = if known.is_empty() {
            None
        } else {
            Some(
                known
                    .iter()
                    .filter(|s| ***s == JobStatus::Completed)
                    .count() as f64
                    / known.len() as f64,
            )
        };

        // Order statistics of the four per-job attributes.
        let runtimes: Vec<f64> = w.jobs().iter().filter_map(|j| j.run_time_opt()).collect();
        let procs: Vec<f64> = w
            .jobs()
            .iter()
            .filter_map(|j| j.used_procs_opt().map(|p| p as f64))
            .collect();
        let work: Vec<f64> = w.jobs().iter().filter_map(|j| j.total_cpu_work()).collect();
        let interarrivals: Vec<f64> = w
            .jobs()
            .windows(2)
            .map(|pair| pair[1].submit_time - pair[0].submit_time)
            .collect();
        let [
            (runtime_median, runtime_interval),
            (procs_median, procs_interval),
            (norm_procs_median, norm_procs_interval),
            (cpu_work_median, cpu_work_interval),
            (interarrival_median, interarrival_interval),
        ] = order_statistics(&runtimes, &procs, &work, &interarrivals, w.machine.processors);

        TraceStats {
            name: w.name.clone(),
            machine_processors: w.machine.processors as f64,
            scheduler_flexibility: w.machine.scheduler.rank() as f64,
            allocation_flexibility: w.machine.allocation.rank() as f64,
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

    /// Look a variable up by enum (None where the table shows N/A).
    pub fn get(&self, var: Variable) -> Option<f64> {
        match var {
            Variable::MachineProcessors => Some(self.machine_processors),
            Variable::SchedulerFlexibility => Some(self.scheduler_flexibility),
            Variable::AllocationFlexibility => Some(self.allocation_flexibility),
            Variable::RuntimeLoad => self.runtime_load,
            Variable::CpuLoad => self.cpu_load,
            Variable::NormExecutables => self.norm_executables,
            Variable::NormUsers => self.norm_users,
            Variable::CompletedFraction => self.completed_fraction,
            Variable::RuntimeMedian => self.runtime_median,
            Variable::RuntimeInterval => self.runtime_interval,
            Variable::ProcsMedian => self.procs_median,
            Variable::ProcsInterval => self.procs_interval,
            Variable::NormProcsMedian => self.norm_procs_median,
            Variable::NormProcsInterval => self.norm_procs_interval,
            Variable::CpuWorkMedian => self.cpu_work_median,
            Variable::CpuWorkInterval => self.cpu_work_interval,
            Variable::InterArrivalMedian => self.interarrival_median,
            Variable::InterArrivalInterval => self.interarrival_interval,
        }
    }

    /// The paper's imputation rule 1: when exactly one of CPU load and
    /// runtime load is missing, substitute the other (done for NASA and
    /// LLNL). Returns a copy with the rule applied.
    pub fn with_load_imputation(&self) -> TraceStats {
        let mut s = self.clone();
        match (s.runtime_load, s.cpu_load) {
            (None, Some(c)) => s.runtime_load = Some(c),
            (Some(r), None) => s.cpu_load = Some(r),
            _ => {}
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{JobRecord, JobStatus, QUEUE_BATCH};
    use crate::trace::{
        AllocationFlexibility, NormalizedTrace, SchedulerFlexibility, TraceMeta,
    };

    fn machine(procs: u64) -> TraceMeta {
        TraceMeta::new(
            procs,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        )
    }

    fn job(id: u64, submit: f64, run: f64, procs: i64) -> JobRecord {
        let mut j = JobRecord::new(id, submit);
        j.wait_time = 0.0;
        j.run_time = run;
        j.used_procs = procs;
        j.status = JobStatus::Completed;
        j.user_id = (id % 3) as i64;
        j.executable_id = (id % 2) as i64;
        j.queue = QUEUE_BATCH;
        j
    }

    fn simple_trace() -> NormalizedTrace {
        // 4 jobs on a 10-processor machine; last job ends at t=100.
        NormalizedTrace::new(
            "T",
            machine(10),
            vec![
                job(1, 0.0, 50.0, 2),
                job(2, 10.0, 40.0, 4),
                job(3, 30.0, 70.0, 1),
                job(4, 60.0, 20.0, 8),
            ],
        )
    }

    #[test]
    fn runtime_load_definition() {
        let w = simple_trace();
        let s = TraceStats::compute(&w);
        // Node-seconds: 100 + 160 + 70 + 160 = 490; capacity 10 * 100.
        assert!((s.runtime_load.unwrap() - 0.49).abs() < 1e-12);
    }

    #[test]
    fn cpu_load_missing_when_no_cpu_times() {
        let s = TraceStats::compute(&simple_trace());
        assert_eq!(s.cpu_load, None);
    }

    #[test]
    fn cpu_load_uses_cpu_seconds() {
        let mut w = simple_trace();
        let mut jobs: Vec<JobRecord> = w.jobs().to_vec();
        for j in &mut jobs {
            j.avg_cpu_time = j.run_time / 2.0; // 50% efficiency
        }
        w = NormalizedTrace::new("T", machine(10), jobs);
        let s = TraceStats::compute(&w);
        assert!((s.cpu_load.unwrap() - 0.245).abs() < 1e-12);
        // CPU load is half the runtime load here.
        assert!((s.cpu_load.unwrap() - s.runtime_load.unwrap() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_counters() {
        let s = TraceStats::compute(&simple_trace());
        // Users {0,1,2} over 4 jobs; executables {0,1} over 4 jobs.
        assert!((s.norm_users.unwrap() - 0.75).abs() < 1e-12);
        assert!((s.norm_executables.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn completion_fraction_respects_unknowns() {
        let mut jobs = vec![
            job(1, 0.0, 1.0, 1),
            job(2, 1.0, 1.0, 1),
            job(3, 2.0, 1.0, 1),
        ];
        jobs[1].status = JobStatus::Failed;
        jobs[2].status = JobStatus::Unknown;
        let w = NormalizedTrace::new("T", machine(4), jobs);
        let s = TraceStats::compute(&w);
        // One completed out of two known.
        assert!((s.completed_fraction.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn medians_and_intervals() {
        let s = TraceStats::compute(&simple_trace());
        // Runtimes sorted: 20 40 50 70 -> median 45.
        assert!((s.runtime_median.unwrap() - 45.0).abs() < 1e-12);
        // Procs sorted: 1 2 4 8 -> median 3.
        assert!((s.procs_median.unwrap() - 3.0).abs() < 1e-12);
        // Normalized procs on 10-node machine -> x * 12.8; median 38.4.
        assert!((s.norm_procs_median.unwrap() - 38.4).abs() < 1e-9);
        // Inter-arrivals: 10, 20, 30 -> median 20.
        assert!((s.interarrival_median.unwrap() - 20.0).abs() < 1e-12);
        assert!(s.runtime_interval.unwrap() > 0.0);
    }

    #[test]
    fn cpu_work_falls_back_to_runtime_times_procs() {
        let s = TraceStats::compute(&simple_trace());
        // Work values: 100, 160, 70, 160 -> median 130.
        assert!((s.cpu_work_median.unwrap() - 130.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_all_missing() {
        let w = NormalizedTrace::new("E", machine(4), vec![]);
        let s = TraceStats::compute(&w);
        assert_eq!(s.runtime_load, None);
        assert_eq!(s.runtime_median, None);
        assert_eq!(s.interarrival_median, None);
        assert_eq!(s.completed_fraction, None);
        // Machine facts still present.
        assert_eq!(s.machine_processors, 4.0);
    }

    #[test]
    fn single_job_has_no_interarrival() {
        let w = NormalizedTrace::new("S", machine(4), vec![job(1, 0.0, 5.0, 1)]);
        let s = TraceStats::compute(&w);
        assert_eq!(s.interarrival_median, None);
        assert!(s.runtime_median.is_some());
    }

    #[test]
    fn load_imputation_rule() {
        let mut s = TraceStats::compute(&simple_trace());
        s.cpu_load = None;
        s.runtime_load = Some(0.6);
        let imp = s.with_load_imputation();
        assert_eq!(imp.cpu_load, Some(0.6));
        // And the reverse direction.
        s.cpu_load = Some(0.4);
        s.runtime_load = None;
        assert_eq!(s.with_load_imputation().runtime_load, Some(0.4));
    }

    #[test]
    fn get_matches_fields() {
        let s = TraceStats::compute(&simple_trace());
        assert_eq!(s.get(Variable::RuntimeLoad), s.runtime_load);
        assert_eq!(s.get(Variable::MachineProcessors), Some(10.0));
        assert_eq!(s.get(Variable::SchedulerFlexibility), Some(2.0));
        for v in Variable::ALL {
            let _ = s.get(v); // no panics for any variable
        }
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use wl_stats::order::Percentiles;

        /// The order statistics as they were computed by sorting: each
        /// attribute sorted on its own, normalized parallelism materialized.
        fn sorted_order_stats(w: &NormalizedTrace) -> Vec<(Option<u64>, Option<u64>)> {
            let procs: Vec<f64> = w
                .jobs()
                .iter()
                .filter_map(|j| j.used_procs_opt().map(|p| p as f64))
                .collect();
            let norm: Vec<f64> = procs
                .iter()
                .map(|p| p / w.machine.processors as f64 * NORMALIZED_MACHINE)
                .collect();
            let samples = [
                w.jobs().iter().filter_map(|j| j.run_time_opt()).collect(),
                procs,
                norm,
                w.jobs().iter().filter_map(|j| j.total_cpu_work()).collect(),
                w.jobs()
                    .windows(2)
                    .map(|pair| pair[1].submit_time - pair[0].submit_time)
                    .collect::<Vec<f64>>(),
            ];
            samples
                .iter()
                .map(|xs| {
                    if xs.is_empty() {
                        (None, None)
                    } else {
                        let p = Percentiles::new(xs);
                        (Some(p.median().to_bits()), Some(p.interval(INTERVAL_WIDTH).to_bits()))
                    }
                })
                .collect()
        }

        fn computed_order_stats(s: &TraceStats) -> Vec<(Option<u64>, Option<u64>)> {
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            [
                (s.runtime_median, s.runtime_interval),
                (s.procs_median, s.procs_interval),
                (s.norm_procs_median, s.norm_procs_interval),
                (s.cpu_work_median, s.cpu_work_interval),
                (s.interarrival_median, s.interarrival_interval),
            ]
            .iter()
            .map(|&(m, i)| (bits(m), bits(i)))
            .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// Selection (with normalized parallelism read at parallelism's
            /// ranks) equals sorting every attribute, bit for bit, on
            /// machines of odd sizes, with unknown fields, zero runtimes
            /// and simultaneous submissions.
            #[test]
            fn order_statistics_match_sorting(
                processors in prop_oneof![
                    Just(1u64), Just(3), Just(10), Just(100), Just(416), Just(1024),
                    1u64..100_000, Just(1 << 40),
                ],
                raw in proptest::collection::vec(
                    (0u32..4, 0u32..2000, -1i64..1100, 0u32..3, 0u32..4),
                    0..400,
                ),
            ) {
                let mut submit = 0.0;
                let jobs: Vec<JobRecord> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &(gap, run, procs, cpu, scale))| {
                        submit += gap as f64 * 10f64.powi(scale as i32 - 1);
                        let mut j = job(i as u64 + 1, submit, run as f64 - 5.0, procs);
                        j.avg_cpu_time = if cpu == 0 { -1.0 } else { j.run_time / cpu as f64 };
                        j
                    })
                    .collect();
                let w = NormalizedTrace::new("P", machine(processors), jobs);
                prop_assert_eq!(
                    computed_order_stats(&TraceStats::compute(&w)),
                    sorted_order_stats(&w)
                );
            }
        }
    }

    #[test]
    fn variable_codes_unique() {
        let mut codes: Vec<&str> = Variable::ALL.iter().map(|v| v.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Variable::ALL.len());
    }
}
