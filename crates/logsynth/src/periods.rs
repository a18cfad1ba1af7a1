//! The Table 2 six-month sub-logs of LANL and SDSC (paper section 6).
//!
//! The paper splits each of the two long logs into four consecutive
//! six-month periods and maps them together with the other workloads
//! (Figure 3) to test whether past workloads predict future ones. The LANL
//! machine's second year (periods L3, L4) is wildly different — the CM-5
//! was approaching end of life and only a few groups with very long jobs
//! remained — which Table 2 shows as a 10x runtime-median jump in L3.
//! These profiles encode each Table 2 column directly.

use wl_stats::rng::{derive_seed, seeded_rng};
use wl_swf::job::QUEUE_BATCH;
use wl_swf::workload::Workload;

use crate::machines::MachineId;
use crate::stream::{HurstTargets, StreamSpec};

/// Spec for one six-month period from its Table 2 column:
/// `(Rm, Ri, Pm, Pi, Im, Ii, eff = CL/RL, completed, users, rho)`.
#[allow(clippy::too_many_arguments)]
fn period_spec(
    atoms: &[u64],
    rm: f64,
    ri: f64,
    pm: f64,
    pi: f64,
    im: f64,
    ii: f64,
    eff: f64,
    completed: f64,
    users: f64,
    rho: f64,
    cap: f64,
    hurst: HurstTargets,
) -> StreamSpec {
    StreamSpec {
        queue: QUEUE_BATCH,
        runtime_median: rm,
        runtime_interval: ri,
        procs_atoms: atoms.to_vec(),
        procs_median: pm,
        procs_interval: pi,
        interarrival_median: im,
        interarrival_interval: ii,
        cpu_efficiency: Some(eff),
        completed_frac: Some(completed),
        norm_users: Some(users),
        norm_executables: None,
        runtime_cap: Some(cap),
        runtime_procs_rho: rho,
        hurst,
    }
}

/// The four LANL period specs (Table 2 left half).
fn lanl_period_specs() -> Vec<StreamSpec> {
    let atoms = [32u64, 64, 128, 256, 512, 1024];
    let hurst = HurstTargets {
        procs: 0.77,
        runtime: 0.80,
        interarrival: 0.75,
    };
    vec![
        // 10/94-3/95: moderate runtimes, 64-node median.
        period_spec(&atoms, 62.0, 7003.0, 64.0, 224.0, 159.0, 1948.0, 0.57, 0.93, 0.0038, -0.4, 30_000.0, hurst),
        // 4/95-9/95.
        period_spec(&atoms, 65.0, 7383.0, 32.0, 224.0, 167.0, 1765.0, 0.63, 0.93, 0.0038, -0.4, 30_000.0, hurst),
        // 10/95-3/96: the wild period — 10x runtime median, huge work tail.
        period_spec(&atoms, 643.0, 11_039.0, 64.0, 480.0, 239.0, 2448.0, 0.67, 0.82, 0.0076, -0.2, 40_000.0, hurst),
        // 4/96-9/96: big partitions (median 128).
        period_spec(&atoms, 79.0, 11_085.0, 128.0, 480.0, 89.0, 1834.0, 0.66, 0.90, 0.0042, -0.4, 40_000.0, hurst),
    ]
}

/// The four SDSC period specs (Table 2 right half).
fn sdsc_period_specs() -> Vec<StreamSpec> {
    let atoms = [1u64, 2, 4, 8, 16, 32, 64, 128, 256];
    let hurst = HurstTargets {
        procs: 0.65,
        runtime: 0.70,
        interarrival: 0.76,
    };
    vec![
        period_spec(&atoms, 31.0, 29_067.0, 4.0, 63.0, 180.0, 2422.0, 0.98, 0.99, 0.0021, 0.0, 90_000.0, hurst),
        period_spec(&atoms, 21.0, 20_270.0, 4.0, 63.0, 39.0, 5836.0, 0.99, 0.99, 0.0019, 0.0, 90_000.0, hurst),
        period_spec(&atoms, 73.0, 30_955.0, 4.0, 63.0, 92.0, 4516.0, 0.95, 0.98, 0.0023, 0.0, 90_000.0, hurst),
        // 7/96-12/96: runtimes and parallelism pick up.
        period_spec(&atoms, 527.0, 25_656.0, 8.0, 63.0, 206.0, 5040.0, 0.97, 0.97, 0.0023, 0.0, 90_000.0, hurst),
    ]
}

/// The number of six-month periods each of LANL and SDSC is split into.
pub const PERIODS_PER_MACHINE: usize = 4;

/// Six-month period `k` (`0..PERIODS_PER_MACHINE`) of `machine`'s Table 2
/// split, named L1..L4 for LANL and S1..S4 for SDSC. Each period draws
/// from its own `derive_seed(seed, 100 + k)`, so the periods can be made
/// in any order, or all at once, with the same bits.
///
/// # Panics
/// For a machine other than LANL or SDSC, or `k` out of range.
pub fn period(machine: MachineId, k: usize, seed: u64, n_per_period: usize) -> Workload {
    let (specs, prefix) = match machine {
        MachineId::Lanl => (lanl_period_specs(), "L"),
        MachineId::Sdsc => (sdsc_period_specs(), "S"),
        other => panic!("{} has no Table 2 periods", other.name()),
    };
    let mut rng = seeded_rng(derive_seed(seed, 100 + k as u64));
    let jobs = specs[k].generate(n_per_period, 1, 0.0, &mut rng);
    Workload::new(format!("{prefix}{}", k + 1), machine.machine_info(), jobs)
}

/// The four LANL six-month sub-logs, named L1..L4 as in Figure 3.
pub fn lanl_periods(seed: u64, n_per_period: usize) -> Vec<Workload> {
    (0..PERIODS_PER_MACHINE)
        .map(|k| period(MachineId::Lanl, k, seed, n_per_period))
        .collect()
}

/// The four SDSC six-month sub-logs, named S1..S4 as in Figure 3.
pub fn sdsc_periods(seed: u64, n_per_period: usize) -> Vec<Workload> {
    (0..PERIODS_PER_MACHINE)
        .map(|k| period(MachineId::Sdsc, k, seed, n_per_period))
        .collect()
}

/// One continuous two-year LANL log: the four periods concatenated on a
/// shared timeline (so that [`wl_swf::Workload::split_periods`] recovers
/// Table 2, which the `log_evolution` example demonstrates).
pub fn lanl_over_time(seed: u64, n_per_period: usize) -> Workload {
    concatenate(MachineId::Lanl, &lanl_period_specs(), seed, n_per_period)
}

/// One continuous two-year SDSC log (see [`lanl_over_time`]).
pub fn sdsc_over_time(seed: u64, n_per_period: usize) -> Workload {
    concatenate(MachineId::Sdsc, &sdsc_period_specs(), seed, n_per_period)
}

fn concatenate(
    machine: MachineId,
    specs: &[StreamSpec],
    seed: u64,
    n_per_period: usize,
) -> Workload {
    let mut jobs = Vec::with_capacity(specs.len() * n_per_period);
    let mut t = 0.0;
    let mut next_id = 1;
    for (k, spec) in specs.iter().enumerate() {
        let mut rng = seeded_rng(derive_seed(seed, 200 + k as u64));
        let part = spec.generate(n_per_period, next_id, t, &mut rng);
        if let Some(last) = part.last() {
            t = last.submit_time;
            next_id = last.id + 1;
        }
        jobs.extend(part);
    }
    Workload::new(machine.name(), machine.machine_info(), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_swf::WorkloadStats;

    #[test]
    fn four_periods_each() {
        let l = lanl_periods(1, 500);
        let s = sdsc_periods(1, 500);
        assert_eq!(l.len(), 4);
        assert_eq!(s.len(), 4);
        assert_eq!(l[0].name, "L1");
        assert_eq!(l[3].name, "L4");
        assert_eq!(s[2].name, "S3");
    }

    #[test]
    fn l3_is_the_outlier_period() {
        let l = lanl_periods(2, 4000);
        let rm: Vec<f64> = l
            .iter()
            .map(|w| WorkloadStats::compute(w).runtime_median.unwrap())
            .collect();
        // L3's runtime median dwarfs the other periods (Table 2: 643 vs
        // 62/65/79).
        assert!(rm[2] > 4.0 * rm[0], "L3 {} vs L1 {}", rm[2], rm[0]);
        assert!(rm[2] > 4.0 * rm[3], "L3 {} vs L4 {}", rm[2], rm[3]);
    }

    #[test]
    fn sdsc_periods_stable_until_s4() {
        let s = sdsc_periods(3, 4000);
        let stats: Vec<WorkloadStats> = s.iter().map(WorkloadStats::compute).collect();
        // S1-S3 share the parallelism median of 4; S4 doubles it.
        assert_eq!(stats[0].procs_median.unwrap(), 4.0);
        assert_eq!(stats[1].procs_median.unwrap(), 4.0);
        assert_eq!(stats[2].procs_median.unwrap(), 4.0);
        assert_eq!(stats[3].procs_median.unwrap(), 8.0);
        // S4 has the longest runtimes (Table 2: 527).
        let rm: Vec<f64> = stats.iter().map(|s| s.runtime_median.unwrap()).collect();
        assert!(rm[3] > rm[0] && rm[3] > rm[1] && rm[3] > rm[2]);
    }

    #[test]
    fn concatenated_log_splits_back_into_periods() {
        let w = lanl_over_time(4, 2000);
        assert_eq!(w.len(), 8000);
        let parts = w.split_periods(4, "L");
        // Time-based splitting won't cut exactly at the seams, but each
        // quarter must be dominated by its source period: L3 recovered as
        // the runtime outlier.
        let rm: Vec<f64> = parts
            .iter()
            .map(|p| WorkloadStats::compute(p).runtime_median.unwrap_or(0.0))
            .collect();
        assert!(rm[2] > 3.0 * rm[0], "L3 {} vs L1 {}", rm[2], rm[0]);
    }

    #[test]
    fn period_medians_match_table_2() {
        let l = lanl_periods(5, 6000);
        let stats: Vec<WorkloadStats> = l.iter().map(WorkloadStats::compute).collect();
        let targets = [62.0, 65.0, 643.0, 79.0];
        for (s, &t) in stats.iter().zip(&targets) {
            let rm = s.runtime_median.unwrap();
            assert!((rm - t).abs() / t < 0.2, "Rm {rm} vs {t}");
        }
        let ptargets = [64.0, 32.0, 64.0, 128.0];
        for (s, &t) in stats.iter().zip(&ptargets) {
            assert_eq!(s.procs_median.unwrap(), t);
        }
    }
}
