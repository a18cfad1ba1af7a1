//! The ten Table 1 observations as calibrated generators.
//!
//! Each machine profile encodes the published Table 1 column (medians,
//! intervals, loads, densities, completion rates, metadata ranks) and the
//! Table 3 Hurst signature (per-variable mean of the three estimators).
//! LANL and SDSC are generated as interleaved interactive + batch streams so
//! that — as in the paper — the "interactive only" and "batch only"
//! observations are genuine subsets of the full log.

use rand::RngCore;
use wl_stats::rng::{derive_seed, seeded_rng};
use wl_swf::job::{QUEUE_BATCH, QUEUE_INTERACTIVE};
use wl_swf::workload::{AllocationFlexibility, MachineInfo, SchedulerFlexibility, Workload};

use crate::stream::{merge_streams, HurstTargets, StreamSpec};

/// The six machines of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineId {
    /// Cornell Theory Center IBM SP2.
    Ctc,
    /// Swedish Institute of Technology IBM SP2.
    Kth,
    /// Los Alamos National Lab CM-5.
    Lanl,
    /// Lawrence Livermore National Lab Cray T3D.
    Llnl,
    /// NASA Ames iPSC/860.
    Nasa,
    /// San Diego Supercomputing Center Paragon.
    Sdsc,
}

impl MachineId {
    /// All six machines, Table 1 order.
    pub const ALL: [MachineId; 6] = [
        MachineId::Ctc,
        MachineId::Kth,
        MachineId::Lanl,
        MachineId::Llnl,
        MachineId::Nasa,
        MachineId::Sdsc,
    ];

    /// Display name used in the paper's tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            MachineId::Ctc => "CTC",
            MachineId::Kth => "KTH",
            MachineId::Lanl => "LANL",
            MachineId::Llnl => "LLNL",
            MachineId::Nasa => "NASA",
            MachineId::Sdsc => "SDSC",
        }
    }

    /// Machine metadata: processors and the paper's flexibility ranks
    /// (Table 1 rows MP, SF, AL).
    pub fn machine_info(&self) -> MachineInfo {
        use AllocationFlexibility as A;
        use SchedulerFlexibility as S;
        match self {
            MachineId::Ctc => MachineInfo::new(512, S::Backfilling, A::Unlimited),
            MachineId::Kth => MachineInfo::new(100, S::Backfilling, A::Unlimited),
            MachineId::Lanl => MachineInfo::new(1024, S::Gang, A::PowerOfTwoPartitions),
            MachineId::Llnl => MachineInfo::new(256, S::Gang, A::Limited),
            MachineId::Nasa => MachineInfo::new(128, S::BatchQueue, A::PowerOfTwoPartitions),
            MachineId::Sdsc => MachineInfo::new(416, S::BatchQueue, A::Limited),
        }
    }

    /// Generate the machine's full log with about `n_jobs` jobs.
    pub fn generate(&self, n_jobs: usize, seed: u64) -> Workload {
        let mut rng = seeded_rng(derive_seed(seed, *self as u64));
        self.generate_with_rng(n_jobs, &mut rng)
    }

    /// The single-class stream spec (machines without an
    /// interactive/batch split in the paper's tables).
    fn single_stream(&self) -> StreamSpec {
        match self {
            MachineId::Ctc => ctc(),
            MachineId::Kth => kth(),
            MachineId::Llnl => llnl(),
            MachineId::Nasa => nasa(),
            _ => unreachable!("LANL/SDSC are generated as merged streams"),
        }
    }

    fn generate_with_rng(&self, n_jobs: usize, rng: &mut dyn RngCore) -> Workload {
        wl_obs::counter!("logsynth.machine_logs", 1u64);
        let jobs = match self {
            MachineId::Lanl => {
                let ni = n_jobs / 2;
                merge_streams(&[(&lanl_interactive(), ni), (&lanl_batch(), n_jobs - ni)], rng)
            }
            MachineId::Sdsc => {
                let ni = n_jobs / 2;
                merge_streams(&[(&sdsc_interactive(), ni), (&sdsc_batch(), n_jobs - ni)], rng)
            }
            _ => self.single_stream().generate(n_jobs, 1, 0.0, rng),
        };
        Workload::new(self.name(), self.machine_info(), jobs)
    }
}

// ------------------------------------------------------------------
// Stream profiles: the Table 1 columns plus Table 3 Hurst means.
// ------------------------------------------------------------------

/// CTC SP2: long runtimes, little parallelism, EASY backfilling.
fn ctc() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 960.0,
        runtime_interval: 57_216.0,
        // Unlimited allocation: a dense atom set; p95 at 38 gives the
        // published interval of 37.
        procs_atoms: vec![1, 2, 3, 4, 6, 8, 12, 16, 25, 38, 64, 128, 256, 512],
        procs_median: 2.0,
        procs_interval: 37.0,
        interarrival_median: 64.0,
        interarrival_interval: 1472.0,
        cpu_efficiency: Some(0.47 / 0.56),
        completed_frac: Some(0.79),
        norm_users: Some(0.0086),
        norm_executables: None,
        runtime_cap: Some(65_000.0),
        runtime_procs_rho: 0.0,
        hurst: HurstTargets {
            procs: 0.70,
            runtime: 0.69,
            interarrival: 0.58,
        },
    }
}

/// KTH SP2: like CTC, slightly smaller machine, full efficiency recorded.
fn kth() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 848.0,
        runtime_interval: 47_875.0,
        procs_atoms: vec![1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 100],
        procs_median: 3.0,
        procs_interval: 31.0,
        interarrival_median: 192.0,
        interarrival_interval: 3806.0,
        cpu_efficiency: Some(1.0),
        completed_frac: Some(0.72),
        norm_users: Some(0.0075),
        norm_executables: None,
        runtime_cap: Some(220_000.0),
        runtime_procs_rho: 0.0,
        hurst: HurstTargets {
            procs: 0.76,
            runtime: 0.68,
            interarrival: 0.63,
        },
    }
}

/// LANL CM-5 interactive jobs: tiny runtimes and loads, 32-node partitions.
fn lanl_interactive() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_INTERACTIVE,
        runtime_median: 57.0,
        runtime_interval: 267.0,
        procs_atoms: vec![32, 64, 128, 256, 512, 1024],
        procs_median: 32.0,
        procs_interval: 96.0,
        interarrival_median: 16.0,
        interarrival_interval: 276.0,
        cpu_efficiency: Some(0.25),
        completed_frac: Some(0.99),
        norm_users: Some(0.0049),
        norm_executables: Some(0.0019),
        runtime_cap: Some(2_000.0),
        runtime_procs_rho: -0.3,
        hurst: HurstTargets {
            procs: 0.89,
            runtime: 0.81,
            interarrival: 0.76,
        },
    }
}

/// LANL CM-5 batch jobs: big partitions, long work tail.
fn lanl_batch() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 376.0,
        runtime_interval: 11_136.0,
        procs_atoms: vec![32, 64, 128, 256, 512, 1024],
        procs_median: 64.0,
        procs_interval: 480.0,
        interarrival_median: 169.0,
        interarrival_interval: 2064.0,
        cpu_efficiency: Some(0.42 / 0.65),
        completed_frac: Some(0.85),
        norm_users: Some(0.0032),
        norm_executables: Some(0.0012),
        runtime_cap: Some(30_000.0),
        runtime_procs_rho: -0.4,
        hurst: HurstTargets {
            procs: 0.69,
            runtime: 0.73,
            interarrival: 0.72,
        },
    }
}

/// LLNL Cray T3D: gang scheduling, short jobs, moderate parallelism.
fn llnl() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 36.0,
        runtime_interval: 9143.0,
        procs_atoms: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        procs_median: 8.0,
        procs_interval: 62.0,
        interarrival_median: 119.0,
        interarrival_interval: 1660.0,
        // CPU load unavailable in the LLNL log (Table 1: N/A).
        cpu_efficiency: None,
        completed_frac: None,
        norm_users: Some(0.0072),
        norm_executables: Some(0.0329),
        runtime_cap: Some(30_000.0),
        runtime_procs_rho: 0.2,
        hurst: HurstTargets {
            procs: 0.81,
            runtime: 0.77,
            interarrival: 0.57,
        },
    }
}

/// NASA Ames iPSC/860: tiny jobs (57% were system availability checks),
/// NQS queueing, power-of-two partitions.
fn nasa() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 19.0,
        runtime_interval: 1168.0,
        procs_atoms: vec![1, 2, 4, 8, 16, 32, 64, 128],
        procs_median: 1.0,
        procs_interval: 31.0,
        interarrival_median: 56.0,
        interarrival_interval: 443.0,
        // The paper approximates NASA's total work as runtime x procs.
        cpu_efficiency: Some(1.0),
        completed_frac: None,
        norm_users: Some(0.0016),
        norm_executables: Some(0.0352),
        runtime_cap: Some(10_000.0),
        runtime_procs_rho: 0.0,
        hurst: HurstTargets {
            procs: 0.71,
            runtime: 0.58,
            interarrival: 0.49,
        },
    }
}

/// SDSC Paragon interactive jobs.
fn sdsc_interactive() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_INTERACTIVE,
        runtime_median: 12.0,
        runtime_interval: 484.0,
        procs_atoms: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        procs_median: 4.0,
        procs_interval: 31.0,
        interarrival_median: 68.0,
        interarrival_interval: 2076.0,
        cpu_efficiency: Some(0.9),
        completed_frac: Some(1.0),
        norm_users: Some(0.0021),
        norm_executables: None,
        runtime_cap: Some(2_000.0),
        runtime_procs_rho: 0.0,
        hurst: HurstTargets {
            procs: 0.71,
            runtime: 0.67,
            interarrival: 0.73,
        },
    }
}

/// SDSC Paragon batch jobs: the heaviest stream in the sample.
fn sdsc_batch() -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: 1812.0,
        runtime_interval: 39_290.0,
        procs_atoms: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        procs_median: 8.0,
        procs_interval: 63.0,
        interarrival_median: 208.0,
        interarrival_interval: 5884.0,
        cpu_efficiency: Some(0.67 / 0.69),
        completed_frac: Some(0.97),
        norm_users: Some(0.0029),
        norm_executables: None,
        runtime_cap: Some(90_000.0),
        runtime_procs_rho: -0.2,
        hurst: HurstTargets {
            procs: 0.74,
            runtime: 0.76,
            interarrival: 0.74,
        },
    }
}

/// Generate the paper's ten production observations in Table 1 column
/// order: CTC, KTH, LANL, LANLi, LANLb, LLNL, NASA, SDSC, SDSCi, SDSCb.
///
/// `n_per_log` sizes the full logs; split observations inherit their share.
pub fn production_workloads(seed: u64, n_per_log: usize) -> Vec<Workload> {
    production_workloads_par(seed, n_per_log, 1)
}

/// [`production_workloads`] with the synthesis fan-out spread over
/// `threads` workers. Each machine derives its RNG seed from `(seed,
/// machine id)` independently of scheduling, so the output is bit-identical
/// to the sequential path for any thread count.
pub fn production_workloads_par(seed: u64, n_per_log: usize, threads: usize) -> Vec<Workload> {
    let _span = wl_obs::span!("logsynth.production_workloads");
    let per_machine = wl_par::par_map(threads, &MachineId::ALL, |&id| {
        machine_observations(id, seed, n_per_log)
    });
    per_machine.into_iter().flatten().collect()
}

/// One machine's Table 1 observations: its full log (about `n_per_log`
/// jobs, seeded from `(seed, machine id)` alone), then for LANL and SDSC
/// that log's interactive-only and batch-only halves. Counts them in
/// `logsynth.workloads` and their jobs in `logsynth.jobs`.
pub fn machine_observations(id: MachineId, seed: u64, n_per_log: usize) -> Vec<Workload> {
    let w = id.generate(n_per_log, seed);
    let out = match id {
        MachineId::Lanl | MachineId::Sdsc => {
            let i = w.interactive_only();
            let b = w.batch_only();
            vec![w, i, b]
        }
        _ => vec![w],
    };
    wl_obs::counter!("logsynth.workloads", out.len() as u64);
    wl_obs::counter!(
        "logsynth.jobs",
        out.iter().map(|w| w.len() as u64).sum::<u64>()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_swf::WorkloadStats;

    #[test]
    fn parallel_fanout_bit_identical_to_sequential() {
        let reference = production_workloads(1999, 400);
        for threads in [1, 2, 3, 8] {
            let par = production_workloads_par(1999, 400, threads);
            assert_eq!(par, reference, "threads = {threads}");
        }
    }

    #[test]
    fn ten_observations_in_table_order() {
        let ws = production_workloads(1, 1000);
        let names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["CTC", "KTH", "LANL", "LANLi", "LANLb", "LLNL", "NASA", "SDSC", "SDSCi", "SDSCb"]
        );
    }

    #[test]
    fn machine_metadata_matches_table_1() {
        let ws = production_workloads(1, 200);
        let s = |name: &str| {
            let w = ws.iter().find(|w| w.name == name).unwrap();
            (
                w.machine.processors,
                w.machine.scheduler.rank(),
                w.machine.allocation.rank(),
            )
        };
        assert_eq!(s("CTC"), (512, 2, 3));
        assert_eq!(s("KTH"), (100, 2, 3));
        assert_eq!(s("LANL"), (1024, 3, 1));
        assert_eq!(s("LANLb"), (1024, 3, 1));
        assert_eq!(s("LLNL"), (256, 3, 2));
        assert_eq!(s("NASA"), (128, 1, 1));
        assert_eq!(s("SDSC"), (416, 1, 2));
    }

    #[test]
    fn splits_partition_the_full_logs() {
        let ws = production_workloads(2, 2000);
        let lanl = ws.iter().find(|w| w.name == "LANL").unwrap();
        let li = ws.iter().find(|w| w.name == "LANLi").unwrap();
        let lb = ws.iter().find(|w| w.name == "LANLb").unwrap();
        assert_eq!(li.len() + lb.len(), lanl.len());
        assert!(li.jobs().iter().all(|j| j.is_interactive()));
        assert!(lb.jobs().iter().all(|j| j.is_batch()));
    }

    #[test]
    fn split_medians_match_published_columns() {
        let ws = production_workloads(3, 8000);
        let stats = |name: &str| {
            WorkloadStats::compute(ws.iter().find(|w| w.name == name).unwrap())
        };
        // Calibrated streams must hit their own Table 1 columns closely.
        let li = stats("LANLi");
        assert!((li.runtime_median.unwrap() - 57.0).abs() / 57.0 < 0.15);
        assert_eq!(li.procs_median.unwrap(), 32.0);
        let lb = stats("LANLb");
        assert!((lb.runtime_median.unwrap() - 376.0).abs() / 376.0 < 0.15);
        assert_eq!(lb.procs_median.unwrap(), 64.0);
        let sb = stats("SDSCb");
        assert!((sb.runtime_median.unwrap() - 1812.0).abs() / 1812.0 < 0.15);
        let ctc = stats("CTC");
        assert!((ctc.runtime_median.unwrap() - 960.0).abs() / 960.0 < 0.12);
        assert_eq!(ctc.procs_median.unwrap(), 2.0);
        let nasa = stats("NASA");
        assert!((nasa.runtime_median.unwrap() - 19.0).abs() / 19.0 < 0.25);
        assert_eq!(nasa.procs_median.unwrap(), 1.0);
    }

    #[test]
    fn interactive_loads_are_tiny_batch_loads_substantial() {
        let ws = production_workloads(4, 8000);
        let load = |name: &str| {
            WorkloadStats::compute(ws.iter().find(|w| w.name == name).unwrap())
                .runtime_load
                .unwrap()
        };
        assert!(load("LANLi") < 0.15, "LANLi load {}", load("LANLi"));
        assert!(load("SDSCi") < 0.15, "SDSCi load {}", load("SDSCi"));
        assert!(load("SDSCb") > 0.08, "SDSCb load {}", load("SDSCb"));
    }

    #[test]
    fn llnl_has_no_cpu_or_status_data() {
        let ws = production_workloads(5, 500);
        let llnl = ws.iter().find(|w| w.name == "LLNL").unwrap();
        let s = WorkloadStats::compute(llnl);
        assert_eq!(s.cpu_load, None);
        assert_eq!(s.completed_fraction, None);
    }

    #[test]
    fn arrival_counts_inherit_long_range_dependence() {
        // The traffic view: binned arrival counts of an LRD stream must
        // score above the white-noise level, as in the network-traffic
        // self-similarity literature the paper builds on.
        let w = MachineId::Sdsc.generate(16_384, 42);
        let counts = wl_swf::arrival_counts(&w, 600.0);
        assert!(counts.len() > 512, "need enough bins, got {}", counts.len());
        let h = wl_selfsim::variance_time_hurst(&counts).unwrap();
        assert!(h > 0.55, "arrival-count H = {h}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = production_workloads(7, 300);
        let b = production_workloads(7, 300);
        assert_eq!(a[0].jobs()[5], b[0].jobs()[5]);
        let c = production_workloads(8, 300);
        assert_ne!(a[0].jobs()[5], c[0].jobs()[5]);
    }
}
