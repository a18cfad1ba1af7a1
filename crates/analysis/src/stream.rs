//! Streaming windowed Co-plot: incremental workload-drift monitoring.
//!
//! The paper's section 6 splits a log into fixed periods and maps the
//! periods together to see whether the workload is homogeneous. This module
//! generalizes that batch recipe to rolling windows over a live record
//! stream: each sealed window becomes one Co-plot observation, the frame of
//! the last `max_windows` windows is re-embedded after every seal, and the
//! successive embeddings are Procrustes-aligned so the sequence of maps is
//! visually stable and per-window drift is measurable.
//!
//! The incremental machinery, layer by layer:
//!
//! * **Per-window Table 1** — the open window keeps its records until it
//!   seals; sealing computes its row once with
//!   [`wl_trace::TraceStats::compute`] over those records alone and drops
//!   them, and retiring a window just drops its cached row — the frame
//!   matrix is assembled from cached per-window stats, never recomputed
//!   from records.
//! * **Online Hurst** — the cumulative inter-arrival series feeds a
//!   [`wl_selfsim::OnlineHurst`], which plots a fixed grid of block sizes
//!   and scores each block once over the stream's life, so re-estimating
//!   H after a seal costs O(window × grid sizes). Its estimate is R/S on
//!   that grid, not the batch `rs_hurst` estimate of the same series.
//! * **Warm-started MDS** — each frame's embedding starts from the
//!   previous frame's aligned coordinates ([`coplot::nonmetric_mds_warm`]:
//!   one refinement descent, no RNG), **falling back to a cold
//!   multi-restart run** ([`coplot::nonmetric_mds`]) when the warm
//!   solution's alienation regresses past
//!   [`StreamConfig::regression_tolerance`] — the previous basin may
//!   simply be wrong after a drift event.
//! * **Procrustes alignment** — the similarity transform fitted on the
//!   observations two successive frames share
//!   ([`wl_linalg::procrustes_transform`]) maps the whole new embedding
//!   (shared and fresh windows alike) into the previous frame's display
//!   frame; the residuals *are* the drift metrics.
//!
//! Everything is deterministic: the warm path is RNG-free, the cold path
//! inherits the engine's bit-identical parallel restarts, and every
//! branch decision compares deterministically computed values — so the
//! emitted frame sequence is bit-identical at any thread count.

use std::collections::VecDeque;

use coplot::{
    nonmetric_mds, nonmetric_mds_warm, try_fit_arrow, Arrow, CoplotError, DissimilarityMatrix,
    Imputation, MdsConfig, Metric,
};
use wl_linalg::{procrustes_transform, Matrix};
use wl_selfsim::OnlineHurst;
use wl_trace::{JobRecord, NormalizedTrace, TraceMeta, TraceStats};

use crate::matrix::{varying_stats_matrix, JOB_STREAM_VARIABLES};

/// What to do when the record stream is not sorted by submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Sort the records (every [`NormalizedTrace`] is already sorted on
    /// construction, so this accepts any input).
    #[default]
    Sort,
    /// Reject a stream whose original record order had submit-time
    /// inversions with [`CoplotError::UnsortedInput`].
    Reject,
}

impl OrderPolicy {
    /// Stable lowercase label ("sort" / "reject").
    pub fn label(&self) -> &'static str {
        match self {
            OrderPolicy::Sort => "sort",
            OrderPolicy::Reject => "reject",
        }
    }

    /// Parse a label back into a policy.
    pub fn from_label(label: &str) -> Option<OrderPolicy> {
        match label {
            "sort" => Some(OrderPolicy::Sort),
            "reject" => Some(OrderPolicy::Reject),
            _ => None,
        }
    }
}

/// Tuning knobs for the streaming driver.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Records per window; a window seals when it fills.
    pub jobs_per_window: usize,
    /// Rolling frame size: embed the most recent this-many windows,
    /// retiring the oldest beyond it.
    pub max_windows: usize,
    /// Table 1 variable codes per window row (defaults to the eight
    /// job-stream variables of Figure 4).
    pub variables: Vec<String>,
    /// MDS knobs for the cold path (the warm path reuses `max_iterations`
    /// and `tolerance`; `threads` parallelizes cold restarts only).
    pub mds: MdsConfig,
    /// Accept a warm-started embedding when its alienation is at most the
    /// previous frame's plus this; otherwise run a cold fallback and keep
    /// the better of the two.
    pub regression_tolerance: f64,
    /// Re-estimate the Hurst parameter of the cumulative inter-arrival
    /// series after every window.
    pub hurst: bool,
    /// Sort-or-reject policy for out-of-order input streams.
    pub order_policy: OrderPolicy,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            jobs_per_window: 256,
            max_windows: 8,
            variables: JOB_STREAM_VARIABLES.iter().map(|c| c.to_string()).collect(),
            mds: MdsConfig::default(),
            regression_tolerance: 0.02,
            hurst: true,
            order_policy: OrderPolicy::Sort,
        }
    }
}

/// Fewest windows an embeddable frame needs (MDS needs three points).
pub const MIN_FRAME_WINDOWS: usize = 3;

/// Per-variable arrow rotation between two aligned frames.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrowDelta {
    /// Variable code.
    pub name: String,
    /// Signed angle change in radians, wrapped to (-pi, pi].
    pub angle_delta: f64,
}

/// Drift of one frame relative to the previous embedded frame, measured
/// after Procrustes alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Change in the coefficient of alienation (new minus previous).
    pub theta_delta: f64,
    /// Mean displacement of the observations both frames share.
    pub mean_displacement: f64,
    /// Largest single shared-observation displacement.
    pub max_displacement: f64,
    /// RMS residual of the alignment fit over the shared observations.
    pub alignment_rmsd: f64,
    /// How many observations the frames share.
    pub shared_observations: usize,
    /// Arrow rotations for the variables both frames fitted.
    pub arrow_deltas: Vec<ArrowDelta>,
}

/// One embedded frame of the stream.
#[derive(Debug, Clone)]
pub struct Frame {
    /// 1-based sequence number of the newest (just-sealed) window.
    pub window: usize,
    /// The newest window's display name (`w<seq>`).
    pub window_name: String,
    /// Records in the newest window.
    pub jobs: usize,
    /// Names of the windows in this frame, oldest first.
    pub observations: Vec<String>,
    /// Aligned 2-D coordinates, one row per observation.
    pub coords: Matrix,
    /// Fitted arrows on the aligned configuration.
    pub arrows: Vec<Arrow>,
    /// Guttman's coefficient of alienation of this frame's embedding.
    pub alienation: f64,
    /// True when the warm-started solution was kept; false when a cold
    /// fallback won (always false for the first embedded frame).
    pub warm: bool,
    /// Majorization iterations the kept solution spent.
    pub mds_iterations: usize,
    /// Drift against the previous embedded frame (`None` for the first).
    pub drift: Option<Drift>,
    /// Online R/S Hurst estimate of the cumulative inter-arrival series
    /// over [`wl_selfsim::OnlineHurst`]'s fixed block-size grid, when
    /// enabled, long enough (32 inter-arrivals) and finite. Reported only:
    /// it never feeds back into the embedding.
    pub hurst: Option<f64>,
    /// Variables dropped from this frame because they were constant over
    /// the retained windows (the streaming analogue of
    /// [`coplot::CoplotResult::removed`]).
    pub removed: Vec<String>,
}

/// What sealing one window produced.
#[derive(Debug, Clone)]
pub enum WindowEvent {
    /// The window sealed but the frame is still warming up (fewer than
    /// [`MIN_FRAME_WINDOWS`] rows).
    Pending {
        /// 1-based window sequence number.
        window: usize,
        /// Window display name.
        name: String,
        /// Records in the window.
        jobs: usize,
    },
    /// The frame embedded successfully.
    Frame(Box<Frame>),
    /// The frame could not embed — e.g. a rank-deficient variable matrix
    /// (fewer than two variables vary across the retained windows, so
    /// dropping the constant ones leaves nothing to map). The stream
    /// continues; the previous embedded frame stays the alignment anchor.
    Degenerate {
        /// 1-based window sequence number.
        window: usize,
        /// Window display name.
        name: String,
        /// Records in the window.
        jobs: usize,
        /// Why the embedding failed.
        error: CoplotError,
    },
}

/// State the alignment carries across frames.
#[derive(Debug, Clone)]
struct PrevFrame {
    observations: Vec<String>,
    coords: Matrix,
    arrows: Vec<Arrow>,
    alienation: f64,
}

/// The incremental windowed Co-plot driver. Feed records with
/// [`push_job`](WindowedCoplot::push_job); every sealed window yields one
/// [`WindowEvent`].
#[derive(Debug)]
pub struct WindowedCoplot {
    config: StreamConfig,
    machine: TraceMeta,
    /// Records of the open (unsealed) window, in arrival order.
    open: Vec<JobRecord>,
    sealed: usize,
    /// Cached per-window rows of the rolling frame: (name, jobs, stats).
    rows: VecDeque<(String, usize, TraceStats)>,
    prev: Option<PrevFrame>,
    hurst: OnlineHurst,
    last_submit: Option<f64>,
}

impl WindowedCoplot {
    /// A fresh driver for records from the given machine.
    ///
    /// # Errors
    /// [`CoplotError::InvalidConfig`] when `jobs_per_window` is zero, the
    /// frame holds fewer than [`MIN_FRAME_WINDOWS`] windows, or no
    /// variables are configured.
    pub fn new(config: StreamConfig, machine: TraceMeta) -> Result<WindowedCoplot, CoplotError> {
        if config.jobs_per_window == 0 {
            return Err(CoplotError::InvalidConfig(
                "stream: jobs_per_window must be positive".into(),
            ));
        }
        if config.max_windows < MIN_FRAME_WINDOWS {
            return Err(CoplotError::InvalidConfig(format!(
                "stream: max_windows must be at least {MIN_FRAME_WINDOWS}"
            )));
        }
        if config.variables.is_empty() {
            return Err(CoplotError::InvalidConfig(
                "stream: at least one variable is required".into(),
            ));
        }
        Ok(WindowedCoplot {
            config,
            machine,
            open: Vec::new(),
            sealed: 0,
            rows: VecDeque::new(),
            prev: None,
            hurst: OnlineHurst::new(),
            last_submit: None,
        })
    }

    /// Feed one record (records must arrive in ascending submit-time
    /// order — the order every [`NormalizedTrace`] guarantees). Returns an
    /// event when this record seals a window.
    pub fn push_job(&mut self, job: &JobRecord) -> Option<WindowEvent> {
        if let (true, Some(prev)) = (self.config.hurst, self.last_submit) {
            self.hurst.extend(&[job.submit_time - prev]);
        }
        self.last_submit = Some(job.submit_time);
        self.open.push(job.clone());
        if self.open.len() >= self.config.jobs_per_window {
            Some(self.seal())
        } else {
            None
        }
    }

    /// Seal the open window even if it is short (or empty: an empty
    /// window becomes an all-missing row, i.e. "average in every
    /// variable" under column-mean imputation). Used by
    /// [`finish`](WindowedCoplot::finish) for the final partial window.
    pub fn seal(&mut self) -> WindowEvent {
        let _span = wl_obs::span!("stream.seal");
        self.sealed += 1;
        let jobs = self.open.len();
        let name = format!("w{}", self.sealed);
        let records = std::mem::take(&mut self.open);
        let stats = TraceStats::compute(&NormalizedTrace::new(name.clone(), self.machine, records))
            .with_load_imputation();
        self.rows.push_back((name.clone(), jobs, stats));
        if self.rows.len() > self.config.max_windows {
            self.rows.pop_front();
            wl_obs::counter!("stream.windows_retired", 1u64);
        }
        wl_obs::counter!("stream.windows_sealed", 1u64);

        if self.rows.len() < MIN_FRAME_WINDOWS {
            return WindowEvent::Pending {
                window: self.sealed,
                name,
                jobs,
            };
        }
        match self.embed_frame() {
            Ok(e) => {
                wl_obs::counter!("stream.frames", 1u64);
                let hurst = if self.config.hurst {
                    self.hurst.rs_hurst()
                } else {
                    None
                };
                WindowEvent::Frame(Box::new(Frame {
                    window: self.sealed,
                    window_name: name,
                    jobs,
                    observations: e.observations,
                    coords: e.coords,
                    arrows: e.arrows,
                    alienation: e.alienation,
                    warm: e.warm,
                    mds_iterations: e.mds_iterations,
                    drift: e.drift,
                    hurst,
                    removed: e.removed,
                }))
            }
            Err(error) => {
                wl_obs::counter!("stream.degenerate_frames", 1u64);
                WindowEvent::Degenerate {
                    window: self.sealed,
                    name,
                    jobs,
                    error,
                }
            }
        }
    }

    /// Seal the final partial window, if it holds any records.
    pub fn finish(&mut self) -> Option<WindowEvent> {
        if self.open.is_empty() {
            None
        } else {
            Some(self.seal())
        }
    }

    /// Windows sealed so far.
    pub fn windows_sealed(&self) -> usize {
        self.sealed
    }

    /// Records in the currently open (unsealed) window.
    pub fn open_window_jobs(&self) -> usize {
        self.open.len()
    }

    /// Embed the current frame, align it, and measure drift.
    fn embed_frame(&mut self) -> Result<EmbeddedFrame, CoplotError> {
        let stats: Vec<TraceStats> = self.rows.iter().map(|(_, _, s)| s.clone()).collect();
        let codes: Vec<&str> = self.config.variables.iter().map(|s| s.as_str()).collect();
        // Windows of one machine are far more alike than the paper's
        // cross-machine observations, so a variable can easily go constant
        // over the retained frame (z-scores undefined). Drop such
        // variables for this frame only, recording them — the streaming
        // analogue of the batch pipeline's `CoplotResult::removed`. Too
        // few informative variables left make the whole frame degenerate.
        let (data, removed) = varying_stats_matrix(&stats, &codes)?;
        if !removed.is_empty() {
            wl_obs::counter!("stream.variables_dropped", removed.len() as u64);
        }
        let z = data.normalize(Imputation::ColumnMean)?;
        let diss = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        let observations: Vec<String> = z.observations().to_vec();
        let n = observations.len();

        // Warm start from the previous embedded frame's aligned
        // coordinates where the observation survives, origin for fresh
        // windows; cold restarts when there is no previous frame or the
        // warm solution regresses.
        let (solution, warm) = match &self.prev {
            None => (nonmetric_mds(&diss, &self.config.mds)?, false),
            Some(prev) => {
                let mut init = Matrix::zeros(n, 2);
                for (i, obs) in observations.iter().enumerate() {
                    if let Some(k) = prev.observations.iter().position(|o| o == obs) {
                        init[(i, 0)] = prev.coords[(k, 0)];
                        init[(i, 1)] = prev.coords[(k, 1)];
                    }
                }
                let warm_sol = nonmetric_mds_warm(&diss, &self.config.mds, &init)?;
                if warm_sol.alienation <= prev.alienation + self.config.regression_tolerance {
                    wl_obs::counter!("stream.warm_accepted", 1u64);
                    (warm_sol, true)
                } else {
                    wl_obs::counter!("stream.cold_fallbacks", 1u64);
                    let cold = nonmetric_mds(&diss, &self.config.mds)?;
                    if cold.alienation < warm_sol.alienation {
                        (cold, false)
                    } else {
                        (warm_sol, true)
                    }
                }
            }
        };

        // Align onto the previous frame over the shared observations.
        let (coords, drift) = match &self.prev {
            Some(prev) => {
                let shared: Vec<(usize, usize)> = observations
                    .iter()
                    .enumerate()
                    .filter_map(|(i, obs)| {
                        prev.observations
                            .iter()
                            .position(|o| o == obs)
                            .map(|k| (i, k))
                    })
                    .collect();
                if shared.len() >= 2 {
                    let take = |m: &Matrix, idx: &dyn Fn(&(usize, usize)) -> usize| {
                        let rows: Vec<Vec<f64>> = shared
                            .iter()
                            .map(|pair| vec![m[(idx(pair), 0)], m[(idx(pair), 1)]])
                            .collect();
                        Matrix::from_rows(&rows)
                    };
                    let target = take(&prev.coords, &|&(_, k)| k);
                    let source = take(&solution.coords, &|&(i, _)| i);
                    let t = procrustes_transform(&target, &source);
                    let aligned = t.apply(&solution.coords);
                    let mut sum = 0.0;
                    let mut max = 0.0f64;
                    let mut ss = 0.0;
                    for &(i, k) in &shared {
                        let dx = aligned[(i, 0)] - prev.coords[(k, 0)];
                        let dy = aligned[(i, 1)] - prev.coords[(k, 1)];
                        let d = (dx * dx + dy * dy).sqrt();
                        sum += d;
                        ss += dx * dx + dy * dy;
                        max = max.max(d);
                    }
                    let drift = Drift {
                        theta_delta: solution.alienation - prev.alienation,
                        mean_displacement: sum / shared.len() as f64,
                        max_displacement: max,
                        alignment_rmsd: (ss / shared.len() as f64).sqrt(),
                        shared_observations: shared.len(),
                        arrow_deltas: Vec::new(), // filled after arrow fit
                    };
                    (aligned, Some(drift))
                } else {
                    (solution.coords.clone(), None)
                }
            }
            None => (solution.coords.clone(), None),
        };

        // Arrows are fitted on the *aligned* configuration so their angles
        // are comparable frame to frame. Degenerate variables (constant
        // within the frame) are skipped, as the batch pipeline does.
        let mut arrows = Vec::new();
        for (v, code) in z.variables().iter().enumerate() {
            match try_fit_arrow(code, &coords, &z.column(v)) {
                Ok(a) => arrows.push(a),
                Err(CoplotError::DegenerateVariable(_)) => {}
                Err(e) => return Err(e),
            }
        }

        let drift = drift.map(|mut d| {
            if let Some(prev) = &self.prev {
                d.arrow_deltas = arrows
                    .iter()
                    .filter_map(|a| {
                        prev.arrows.iter().find(|p| p.name == a.name).map(|p| {
                            ArrowDelta {
                                name: a.name.clone(),
                                angle_delta: wrap_angle(a.angle() - p.angle()),
                            }
                        })
                    })
                    .collect();
            }
            d
        });

        self.prev = Some(PrevFrame {
            observations: observations.clone(),
            coords: coords.clone(),
            arrows: arrows.clone(),
            alienation: solution.alienation,
        });
        Ok(EmbeddedFrame {
            coords,
            arrows,
            alienation: solution.alienation,
            warm,
            mds_iterations: solution.iterations,
            observations,
            drift,
            removed,
        })
    }
}

/// [`Frame`] fields produced by the embedding step (the seal loop adds
/// the window bookkeeping and the Hurst estimate).
struct EmbeddedFrame {
    coords: Matrix,
    arrows: Vec<Arrow>,
    alienation: f64,
    warm: bool,
    mds_iterations: usize,
    observations: Vec<String>,
    drift: Option<Drift>,
    removed: Vec<String>,
}

/// Wrap an angle difference into (-pi, pi].
fn wrap_angle(a: f64) -> f64 {
    let mut a = a;
    while a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    }
    while a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    }
    a
}

/// Replay a whole trace through a [`WindowedCoplot`] and collect every
/// event — the shared execution path behind `POST /v1/stream` and
/// `wl stream`.
///
/// # Errors
/// [`CoplotError::UnsortedInput`] under [`OrderPolicy::Reject`] when the
/// trace's original record order had submit-time inversions, plus any
/// driver construction error.
pub fn run_stream(
    trace: &NormalizedTrace,
    config: &StreamConfig,
) -> Result<Vec<WindowEvent>, CoplotError> {
    if config.order_policy == OrderPolicy::Reject && trace.presort_inversions() > 0 {
        return Err(CoplotError::UnsortedInput {
            inversions: trace.presort_inversions(),
        });
    }
    let _span = wl_obs::span!("stream.run");
    let mut driver = WindowedCoplot::new(config.clone(), trace.machine)?;
    let mut events = Vec::new();
    for job in trace.jobs() {
        if let Some(ev) = driver.push_job(job) {
            events.push(ev);
        }
    }
    if let Some(ev) = driver.finish() {
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_logsynth::machines::MachineId;
    use wl_trace::{AllocationFlexibility, SchedulerFlexibility};

    fn config(jobs_per_window: usize) -> StreamConfig {
        StreamConfig {
            jobs_per_window,
            ..StreamConfig::default()
        }
    }

    fn trace(jobs: usize) -> NormalizedTrace {
        MachineId::Ctc.generate(jobs, 1999)
    }

    #[test]
    fn stream_emits_one_event_per_window() {
        let t = trace(2000);
        // The generator produces "about" the requested job count; derive
        // the expected window count from what it actually produced.
        let n = t.jobs().len();
        let full = n / 256;
        let tail = n % 256;
        let windows = full + usize::from(tail > 0);
        let events = run_stream(&t, &config(256)).unwrap();
        assert_eq!(events.len(), windows);
        let pending = events
            .iter()
            .filter(|e| matches!(e, WindowEvent::Pending { .. }))
            .count();
        assert_eq!(pending, MIN_FRAME_WINDOWS - 1);
        let frames: Vec<&Frame> = events
            .iter()
            .filter_map(|e| match e {
                WindowEvent::Frame(f) => Some(f.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), windows - (MIN_FRAME_WINDOWS - 1));
        // Window sequence numbers are 1-based and contiguous.
        assert_eq!(frames[0].window, 3);
        assert_eq!(frames.last().unwrap().window, windows);
        assert_eq!(
            frames.last().unwrap().jobs,
            if tail > 0 { tail } else { 256 }
        );
        // The first embedded frame has no drift; later ones do.
        assert!(frames[0].drift.is_none());
        assert!(frames[1..].iter().all(|f| f.drift.is_some()));
        // Frames grow until max_windows, then stay there.
        assert_eq!(frames[0].observations.len(), 3);
        for f in &frames {
            assert!(f.observations.len() <= StreamConfig::default().max_windows);
            assert_eq!(f.coords.rows(), f.observations.len());
            assert!(f.alienation.is_finite());
        }
    }

    #[test]
    fn warm_starts_dominate_and_iterate_less() {
        let t = trace(4000);
        let window = t.jobs().len() / 14; // ~14 windows whatever the exact count
        let events = run_stream(&t, &config(window)).unwrap();
        let frames: Vec<&Frame> = events
            .iter()
            .filter_map(|e| match e {
                WindowEvent::Frame(f) => Some(f.as_ref()),
                _ => None,
            })
            .collect();
        assert!(frames.len() >= 10, "{} frames", frames.len());
        let warm: Vec<&&Frame> = frames[1..].iter().filter(|f| f.warm).collect();
        // On a stationary synthetic workload, warm starts should be the
        // common case...
        assert!(
            warm.len() * 2 > frames.len() - 1,
            "only {}/{} frames warm",
            warm.len(),
            frames.len() - 1
        );
        // ...and far cheaper in aggregate than cold frames: a cold frame
        // sums majorization iterations over all of its restarts, a warm
        // frame runs one refinement.
        let mean = |fs: &[&&Frame]| {
            fs.iter().map(|f| f.mds_iterations).sum::<usize>() as f64 / fs.len() as f64
        };
        let cold: Vec<&&Frame> = frames[1..].iter().filter(|f| !f.warm).collect();
        let warm_mean = mean(&warm);
        let cold_mean = if cold.is_empty() {
            frames[0].mds_iterations as f64
        } else {
            mean(&cold)
        };
        assert!(
            warm_mean < cold_mean,
            "warm frames averaged {warm_mean} iterations vs cold {cold_mean}"
        );
        // And no warm frame exceeds one full refinement budget.
        let cap = StreamConfig::default().mds.max_iterations;
        for f in &warm {
            assert!(f.mds_iterations <= cap);
        }
    }

    #[test]
    fn drift_metrics_are_finite_and_bounded() {
        let t = trace(3000);
        let events = run_stream(&t, &config(300)).unwrap();
        for e in &events {
            if let WindowEvent::Frame(f) = e {
                if let Some(d) = &f.drift {
                    assert!(d.mean_displacement.is_finite());
                    assert!(d.max_displacement >= d.mean_displacement);
                    assert!(d.alignment_rmsd.is_finite());
                    assert!(d.shared_observations >= 2);
                    for ad in &d.arrow_deltas {
                        assert!(
                            ad.angle_delta > -std::f64::consts::PI
                                && ad.angle_delta <= std::f64::consts::PI
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_sequence() {
        let t = trace(2500);
        let mut c1 = config(256);
        c1.mds.threads = 1;
        let mut c8 = config(256);
        c8.mds.threads = 8;
        let a = run_stream(&t, &c1).unwrap();
        let b = run_stream(&t, &c8).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (WindowEvent::Frame(f), WindowEvent::Frame(g)) => {
                    assert_eq!(f.coords.as_slice(), g.coords.as_slice());
                    assert_eq!(f.alienation.to_bits(), g.alienation.to_bits());
                    assert_eq!(f.warm, g.warm);
                    assert_eq!(f.mds_iterations, g.mds_iterations);
                    assert_eq!(
                        f.hurst.map(f64::to_bits),
                        g.hurst.map(f64::to_bits)
                    );
                }
                (WindowEvent::Pending { window: a, .. }, WindowEvent::Pending { window: b, .. }) => {
                    assert_eq!(a, b)
                }
                other => panic!("event kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn reject_policy_errors_on_unsorted_input() {
        use wl_trace::JobRecord;
        let machine = TraceMeta::new(
            64,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        );
        let mut jobs = Vec::new();
        for i in 0..10u64 {
            // Every second job arrives late: 4 adjacent inversions... no,
            // alternate high/low submit times -> inversions.
            let submit = if i % 2 == 0 { i as f64 * 10.0 + 100.0 } else { i as f64 };
            let mut j = JobRecord::new(i + 1, submit);
            j.run_time = 5.0;
            j.used_procs = 1;
            jobs.push(j);
        }
        let t = NormalizedTrace::new("ooo", machine, jobs);
        assert!(t.presort_inversions() > 0);
        let mut cfg = config(4);
        cfg.order_policy = OrderPolicy::Reject;
        let err = run_stream(&t, &cfg).unwrap_err();
        assert!(matches!(err, CoplotError::UnsortedInput { inversions } if inversions > 0));
        // The default policy sorts and proceeds.
        cfg.order_policy = OrderPolicy::Sort;
        assert!(run_stream(&t, &cfg).is_ok());
    }

    #[test]
    fn empty_trace_produces_no_events() {
        let machine = TraceMeta::new(
            64,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        );
        let t = NormalizedTrace::new("empty", machine, vec![]);
        let events = run_stream(&t, &config(16)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn single_job_trace_yields_one_pending_window() {
        let t = trace(1);
        let events = run_stream(&t, &config(16)).unwrap();
        assert_eq!(events.len(), 1);
        match &events[0] {
            WindowEvent::Pending { window, jobs, .. } => {
                assert_eq!(*window, 1);
                assert_eq!(*jobs, 1);
            }
            other => panic!("expected Pending, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_frame_does_not_poison_the_stream() {
        use wl_trace::JobRecord;
        let machine = TraceMeta::new(
            64,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        );
        // Identical windows: every variable is constant across rows, so
        // normalization finds no usable variable and the frame degenerates.
        let mut jobs = Vec::new();
        for i in 0..12u64 {
            let mut j = JobRecord::new(i + 1, i as f64 * 10.0);
            j.run_time = 100.0;
            j.used_procs = 4;
            jobs.push(j);
        }
        let t = NormalizedTrace::new("const", machine, jobs);
        let mut cfg = config(4);
        cfg.hurst = false;
        let events = run_stream(&t, &cfg).unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], WindowEvent::Pending { .. }));
        assert!(matches!(events[1], WindowEvent::Pending { .. }));
        match &events[2] {
            WindowEvent::Degenerate { window, error, .. } => {
                assert_eq!(*window, 3);
                // A typed pipeline error, not a panic.
                let _ = error.to_string();
            }
            other => panic!("expected Degenerate, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let machine = TraceMeta::new(
            8,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        );
        let mut c = config(0);
        assert!(WindowedCoplot::new(c.clone(), machine).is_err());
        c = config(16);
        c.max_windows = 2;
        assert!(WindowedCoplot::new(c.clone(), machine).is_err());
        c = config(16);
        c.variables.clear();
        assert!(WindowedCoplot::new(c, machine).is_err());
    }

    #[test]
    fn order_policy_labels_round_trip() {
        for p in [OrderPolicy::Sort, OrderPolicy::Reject] {
            assert_eq!(OrderPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(OrderPolicy::from_label("drop"), None);
    }
}
