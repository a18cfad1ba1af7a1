//! One calibrated job-class stream with injected long-range dependence.
//!
//! A stream is the generator for one homogeneous job class (a whole machine
//! log, or the interactive/batch half of one). Marginals come from the
//! closed-form calibrators in [`crate::calibrate`]; serial structure comes
//! from fractional Gaussian noise: each attribute's per-job series is an
//! fGn path with the attribute's target Hurst parameter, pushed through the
//! attribute's marginal quantile function. The transform preserves the
//! marginal exactly (each fGn sample is marginally standard normal) while
//! the monotone mapping carries the long-range dependence into the output
//! series, which is what the Table 3 estimators measure.

use rand::RngCore;
use wl_selfsim::FgnDaviesHarte;
use wl_swf::job::{Job, JobStatus, MISSING};

use crate::calibrate::{lognormal_from_median_interval, parallelism_distribution};

/// Target Hurst parameters for the four per-job series (Table 3 rows give
/// one per estimator; profiles use the per-variable mean).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HurstTargets {
    pub procs: f64,
    pub runtime: f64,
    pub interarrival: f64,
}

impl HurstTargets {
    /// White-noise targets (H = 0.5 everywhere) — what the synthetic models
    /// exhibit.
    pub fn white() -> Self {
        HurstTargets {
            procs: 0.5,
            runtime: 0.5,
            interarrival: 0.5,
        }
    }
}

/// Full specification of one job-class stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// SWF queue code for every job in the stream (interactive/batch).
    pub queue: i64,
    /// Runtime marginal: published median and 90% interval, seconds.
    pub runtime_median: f64,
    pub runtime_interval: f64,
    /// Parallelism atoms (ascending) and published median/interval.
    pub procs_atoms: Vec<u64>,
    pub procs_median: f64,
    pub procs_interval: f64,
    /// Inter-arrival marginal: published median and 90% interval, seconds.
    pub interarrival_median: f64,
    pub interarrival_interval: f64,
    /// Per-processor CPU time as a fraction of runtime; `None` means the
    /// log did not record CPU times (the field stays missing).
    pub cpu_efficiency: Option<f64>,
    /// Published fraction of successfully completed jobs; `None` means
    /// status was not recorded.
    pub completed_frac: Option<f64>,
    /// Published distinct-users-per-job density; `None` leaves user ids
    /// unset.
    pub norm_users: Option<f64>,
    /// Published distinct-executables-per-job density; `None` leaves
    /// executable ids unset.
    pub norm_executables: Option<f64>,
    /// Administrative runtime limit, seconds (`None` = unlimited). Real
    /// systems cap job runtimes (the paper discusses how such limits distort
    /// observed workloads); the cap also keeps the synthetic tail realistic.
    /// Must exceed the published 95th percentile or it would distort the
    /// calibrated interval.
    pub runtime_cap: Option<f64>,
    /// Rank correlation knob between runtime and parallelism innovations.
    /// It leaves both marginals exact (they are rank-pinned) but shapes the
    /// joint: negative values narrow the CPU-work (runtime x procs) spread,
    /// as on machines where big partitions ran the shorter jobs.
    pub runtime_procs_rho: f64,
    /// Hurst targets for the per-job series.
    pub hurst: HurstTargets,
}

impl StreamSpec {
    /// Generate `n` jobs starting at `start_time`, with ids from
    /// `first_id`. Jobs come out in arrival order.
    pub fn generate(
        &self,
        n: usize,
        first_id: u64,
        start_time: f64,
        rng: &mut dyn RngCore,
    ) -> Vec<Job> {
        if n == 0 {
            return Vec::new();
        }
        let clamp_h = |h: f64| h.clamp(0.05, 0.95);
        let fgn = |h: f64, rng: &mut dyn RngCore| -> Vec<f64> {
            FgnDaviesHarte::new(clamp_h(h), n)
                .expect("fGn embedding is valid for H in (0,1)")
                .generate(rng)
        };

        let z_runtime = fgn(self.hurst.runtime, rng);
        let z_procs_raw = fgn(self.hurst.procs, rng);
        let z_gap = fgn(self.hurst.interarrival, rng);

        // Couple parallelism to runtime innovations per the rho knob.
        let rho = self.runtime_procs_rho.clamp(-0.99, 0.99);
        let z_procs: Vec<f64> = z_procs_raw
            .iter()
            .zip(&z_runtime)
            .map(|(zp, zr)| rho * zr + (1.0 - rho * rho).sqrt() * zp)
            .collect();

        // Rank-transform each path to exact uniform scores. A single LRD
        // path's sample mean wanders like n^(H-1), which would drag the
        // sample median off the published target; mapping ranks to
        // (r - 0.5)/n pins the sample marginal exactly while preserving the
        // serial (order) structure that carries the Hurst signature.
        let u_runtime = uniform_scores(&z_runtime);
        let u_procs = uniform_scores(&z_procs);
        let u_gap = uniform_scores(&z_gap);

        // Marginal transforms.
        let runtime_ln = lognormal_from_median_interval(self.runtime_median, self.runtime_interval);
        let gap_ln =
            lognormal_from_median_interval(self.interarrival_median, self.interarrival_interval);
        let procs_dist =
            parallelism_distribution(&self.procs_atoms, self.procs_median, self.procs_interval);

        // Identity pools sized to the published densities.
        let n_users = self
            .norm_users
            .map(|d| ((d * n as f64).round() as u64).max(1));
        let n_execs = self
            .norm_executables
            .map(|d| ((d * n as f64).round() as u64).max(1));

        let mut jobs = Vec::with_capacity(n);
        let mut t = start_time;
        for i in 0..n {
            t += gap_ln.quantile(u_gap[i]);
            let mut j = Job::new(first_id + i as u64, t);
            j.wait_time = 0.0;
            j.run_time = runtime_ln.quantile(u_runtime[i]).max(1.0);
            if let Some(cap) = self.runtime_cap {
                j.run_time = j.run_time.min(cap);
            }
            let procs = procs_dist.quantile(u_procs[i]) as i64;
            j.used_procs = procs;
            j.requested_procs = procs;
            j.queue = self.queue;
            if let Some(eff) = self.cpu_efficiency {
                j.avg_cpu_time = (j.run_time * eff).max(0.0);
            } else {
                j.avg_cpu_time = MISSING;
            }
            if let Some(frac) = self.completed_frac {
                // Deterministic low-discrepancy (Bresenham) completion
                // pattern keeps the realized fraction within 1/n of target.
                let completed = ((i + 1) as f64 * frac).floor() > (i as f64 * frac).floor();
                j.status = if completed {
                    JobStatus::Completed
                } else {
                    JobStatus::Cancelled
                };
            }
            if let Some(u) = n_users {
                // First `u` jobs pin down the distinct-user count; later
                // jobs revisit users with a power-law bias.
                j.user_id = if (i as u64) < u {
                    i as i64
                } else {
                    (pick_identity(rng, u)) as i64
                };
            }
            if let Some(e) = n_execs {
                j.executable_id = if (i as u64) < e {
                    i as i64
                } else {
                    (pick_identity(rng, e)) as i64
                };
            }
            jobs.push(j);
        }
        jobs
    }
}

/// Map a series to exact uniform scores `(rank - 0.5) / n`, preserving
/// order (and therefore the rank-level serial dependence).
fn uniform_scores(z: &[f64]) -> Vec<f64> {
    let n = z.len() as f64;
    wl_stats::ranks(z).iter().map(|r| (r - 0.5) / n).collect()
}

/// A power-law-biased identity in `0..pool`: low ids are revisited more
/// often, as heavy users/executables are in real logs.
fn pick_identity(rng: &mut dyn RngCore, pool: u64) -> u64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    // Quadratic bias toward 0.
    ((u * u * pool as f64) as u64).min(pool - 1)
}

/// Convenience: generate a whole workload's job list by concatenating
/// several streams on a shared timeline (interleaved by merge-sorting
/// submit times, which [`wl_swf::Workload::new`] does anyway).
pub fn merge_streams(
    specs: &[(&StreamSpec, usize)],
    rng: &mut dyn RngCore,
) -> Vec<Job> {
    let mut all = Vec::new();
    let mut next_id = 1;
    for (spec, n) in specs {
        let jobs = spec.generate(*n, next_id, 0.0, rng);
        next_id += jobs.len() as u64;
        all.extend(jobs);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_stats::order::median_interval;
    use wl_stats::rng::seeded_rng;
    use wl_swf::job::QUEUE_BATCH;

    fn spec() -> StreamSpec {
        StreamSpec {
            queue: QUEUE_BATCH,
            runtime_median: 960.0,
            runtime_interval: 57216.0,
            procs_atoms: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            procs_median: 2.0,
            procs_interval: 37.0,
            interarrival_median: 64.0,
            interarrival_interval: 1472.0,
            cpu_efficiency: Some(0.84),
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

    #[test]
    fn marginals_hit_published_targets() {
        let mut rng = seeded_rng(201);
        let jobs = spec().generate(20_000, 1, 0.0, &mut rng);
        let runtimes: Vec<f64> = jobs.iter().map(|j| j.run_time).collect();
        let (med, int) = median_interval(&runtimes, 0.90);
        assert!((med - 960.0).abs() / 960.0 < 0.08, "runtime median {med}");
        assert!((int - 57216.0).abs() / 57216.0 < 0.25, "runtime interval {int}");

        let gaps: Vec<f64> = jobs.windows(2).map(|w| w[1].submit_time - w[0].submit_time).collect();
        let (gmed, gint) = median_interval(&gaps, 0.90);
        assert!((gmed - 64.0).abs() / 64.0 < 0.1, "gap median {gmed}");
        assert!((gint - 1472.0).abs() / 1472.0 < 0.25, "gap interval {gint}");

        let procs: Vec<f64> = jobs.iter().map(|j| j.used_procs as f64).collect();
        let (pmed, _) = median_interval(&procs, 0.90);
        assert_eq!(pmed, 2.0);
    }

    #[test]
    fn completion_fraction_matches() {
        let mut rng = seeded_rng(202);
        let jobs = spec().generate(10_000, 1, 0.0, &mut rng);
        let done = jobs
            .iter()
            .filter(|j| j.status == JobStatus::Completed)
            .count();
        let frac = done as f64 / jobs.len() as f64;
        assert!((frac - 0.79).abs() < 0.01, "completed {frac}");
    }

    #[test]
    fn user_pool_density_matches() {
        let mut rng = seeded_rng(203);
        let jobs = spec().generate(10_000, 1, 0.0, &mut rng);
        let mut users: Vec<i64> = jobs.iter().map(|j| j.user_id).collect();
        users.sort_unstable();
        users.dedup();
        let density = users.len() as f64 / jobs.len() as f64;
        assert!(
            (density - 0.0086).abs() / 0.0086 < 0.15,
            "user density {density}"
        );
        // Executables were not recorded.
        assert!(jobs.iter().all(|j| j.executable_id == -1));
    }

    #[test]
    fn cpu_efficiency_applied() {
        let mut rng = seeded_rng(204);
        let jobs = spec().generate(1000, 1, 0.0, &mut rng);
        for j in &jobs {
            assert!((j.avg_cpu_time - 0.84 * j.run_time).abs() < 1e-9);
        }
    }

    #[test]
    fn injected_hurst_detectable() {
        let mut rng = seeded_rng(205);
        let jobs = spec().generate(16_384, 1, 0.0, &mut rng);
        let runtimes: Vec<f64> = jobs.iter().map(|j| j.run_time.ln()).collect();
        let h = wl_selfsim::variance_time_hurst(&runtimes).unwrap();
        assert!(
            (h - 0.69).abs() < 0.1,
            "runtime log-series Hurst {h} vs target 0.69"
        );
        let gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| (w[1].submit_time - w[0].submit_time).ln())
            .collect();
        let hg = wl_selfsim::variance_time_hurst(&gaps).unwrap();
        assert!((hg - 0.58).abs() < 0.1, "gap Hurst {hg} vs 0.58");
    }

    #[test]
    fn rho_shapes_the_joint_without_touching_marginals() {
        let gen = |rho: f64| {
            let mut s = spec();
            s.runtime_procs_rho = rho;
            let mut rng = seeded_rng(206);
            s.generate(20_000, 1, 0.0, &mut rng)
        };
        let pos = gen(0.8);
        let neg = gen(-0.8);
        // Marginals identical (rank-pinned to the same targets).
        let med_rt = |jobs: &[Job]| {
            wl_stats::median(&jobs.iter().map(|j| j.run_time).collect::<Vec<_>>())
        };
        assert!((med_rt(&pos) - med_rt(&neg)).abs() / med_rt(&pos) < 0.02);
        // Joint differs: positive coupling widens the work spread.
        let spread = |jobs: &[Job]| {
            let xs: Vec<f64> = jobs
                .iter()
                .map(|j| j.total_cpu_work().unwrap().ln())
                .collect();
            wl_stats::interval(&xs, 0.9)
        };
        assert!(
            spread(&pos) > spread(&neg),
            "positive coupling must widen log-work spread: {} vs {}",
            spread(&pos),
            spread(&neg)
        );
        // And the rank correlation itself responds to the knob.
        let corr = |jobs: &[Job]| {
            let rt: Vec<f64> = jobs.iter().map(|j| j.run_time).collect();
            let pr: Vec<f64> = jobs.iter().map(|j| j.used_procs as f64).collect();
            wl_stats::spearman(&rt, &pr)
        };
        assert!(corr(&pos) > 0.3, "pos corr {}", corr(&pos));
        assert!(corr(&neg) < -0.3, "neg corr {}", corr(&neg));
    }

    #[test]
    fn merge_streams_assigns_unique_ids() {
        let s = spec();
        let mut rng = seeded_rng(207);
        let jobs = merge_streams(&[(&s, 100), (&s, 50)], &mut rng);
        assert_eq!(jobs.len(), 150);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 150);
    }

    #[test]
    fn empty_stream() {
        let mut rng = seeded_rng(208);
        assert!(spec().generate(0, 1, 0.0, &mut rng).is_empty());
    }
}
