//! The staged Co-plot engine: one concrete four-stage pipeline with
//! per-stage instrumentation.
//!
//! [`CoplotEngine`] runs the paper's fixed algorithm, one direct call per
//! stage:
//!
//! 1. z-scores ([`DataMatrix::normalize`], Eq. 1);
//! 2. per-variable pair contributions to the city-block dissimilarities
//!    ([`PairContributions::compute`], Eq. 2);
//! 3. nonmetric MDS scored by Guttman's coefficient of alienation
//!    ([`nonmetric_mds`], Eqs. 3–4);
//! 4. one regression arrow per variable ([`try_fit_arrow`]).
//!
//! [`Coplot`] is the engine's only configuration: build one with
//! [`Coplot::engine`]. The engine holds no data between calls: each
//! [`CoplotEngine::run`] computes stages 1–2 once, and the paper's
//! variable-elimination rounds re-embed from them without re-normalizing.
//!
//! [`CoplotEngine::run`] takes the data and a [`Selection`] — all
//! variables, or the paper's variable-elimination workflow.
//! [`CoplotEngine::shared_session`] computes stages 1–2 once and opens
//! analyses of variable subsets over them. The engine takes `&self` (the
//! stage reports sit behind a `Mutex`), and a session is shared by `&`, so
//! many workers can score subsets at once (this is what the parallel subset
//! search relies on).
//!
//! Every `run` records a [`StageReport`] per stage — wall time, iteration
//! counts, the per-restart MDS thetas, and whether the stage reused the
//! run's stages 1–2 — retrievable via [`CoplotEngine::reports`] and
//! printable with [`StageReportTable`].
//!
//! ```
//! use coplot::{Coplot, DataMatrix, Selection, StageReportTable};
//!
//! let data = DataMatrix::from_rows(
//!     (1..=6).map(|i| format!("o{i}")).collect(),
//!     vec!["a".into(), "a2".into(), "anti".into(), "b".into()],
//!     &[
//!         &[1.0, 1.1, 9.0, 5.0],
//!         &[1.2, 1.0, 8.8, 3.0],
//!         &[0.9, 1.2, 9.1, 4.0],
//!         &[5.0, 5.2, 1.0, 4.2],
//!         &[5.3, 4.9, 1.2, 2.8],
//!         &[4.8, 5.1, 0.8, 5.1],
//!     ],
//! );
//! let engine = Coplot::new()
//!     .seed(7)
//!     .threads(4) // parallel MDS restarts, bit-identical results
//!     .engine();
//! let full = engine.run(&data, &Selection::All)?;
//! print!("{}", StageReportTable(&engine.reports()));
//! let hits: Vec<bool> = engine.reports().iter().map(|r| r.cache_hit).collect();
//! assert_eq!(hits, [false, false, false, false]);
//! assert_eq!(full.arrows.len(), 4);
//!
//! // Subset analyses over one stages-1/2 pass, bit-identical to a fresh
//! // engine run on `data.select_variables(&[0, 2, 3])`.
//! let session = engine.shared_session(&data)?;
//! let subset = session.run_subset(&[0, 2, 3])?;
//! assert_eq!(subset.arrows.len(), 3);
//! # Ok::<(), coplot::CoplotError>(())
//! ```
//!
//! # Deadlines
//!
//! With [`Coplot::deadline`] set, the engine refuses to *start* a stage
//! past it, with [`CoplotError::DeadlineExceeded`] naming the stage that
//! was about to run: `normalize` before stages 1–2 of each `run` or
//! `shared_session`, `embed` before each embedding and `arrows` before each
//! arrow stage. A stage that has started runs to completion, so a run that
//! finishes returns exactly what it would have returned without a deadline.
//!
//! # Subsets and exactness
//!
//! Z-scores are per-column, so a column subset of the normalized matrix
//! equals the normalization of the subset. All three [`Metric`]s are
//! Minkowski distances `(sum_v |dz_v|^p)^(1/p)`, so the engine keeps the
//! per-variable contributions `|dz_v|^p` for every observation pair and
//! builds the dissimilarities of any variable subset by summing the active
//! contributions in ascending variable order — the same floating-point
//! additions, in the same order, as a direct computation, hence
//! bit-identical results.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::arrows::try_fit_arrow;
use crate::data::{DataMatrix, NormalizedMatrix};
use crate::dissimilarity::{DissimilarityMatrix, Metric};
use crate::error::CoplotError;
use crate::mds::nonmetric_mds;
use crate::pipeline::{Coplot, CoplotResult};

/// Per-variable dissimilarity contributions `|dz_v|^p` for every observation
/// pair, kept so any variable subset's dissimilarities can be rebuilt by
/// summation instead of a fresh pass over the data.
#[derive(Debug, Clone)]
pub struct PairContributions {
    n: usize,
    order: f64,
    /// `per_variable[v][pair]` in upper-triangle pair order.
    per_variable: Vec<Vec<f64>>,
}

impl PairContributions {
    /// Contributions of every variable of `z` under `metric`.
    pub fn compute(z: &NormalizedMatrix, metric: Metric) -> PairContributions {
        let n = z.n_observations();
        let p = z.n_variables();
        let order = metric.order();
        let n_pairs = n * (n - 1) / 2;
        // Flat preallocated rows (one per variable) with the metric match
        // hoisted out of the per-cell loop.
        let mut per_variable = vec![vec![0.0f64; n_pairs]; p];
        let mut pair = 0usize;
        for i in 0..n {
            for k in (i + 1)..n {
                let (a, b) = (z.row(i), z.row(k));
                // Match vecops' per-term expressions exactly so summing
                // contributions is bit-identical to a direct distance.
                match metric {
                    Metric::CityBlock => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            contribs[pair] = (a[v] - b[v]).abs();
                        }
                    }
                    Metric::Euclidean => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            let d = a[v] - b[v];
                            contribs[pair] = d * d;
                        }
                    }
                    Metric::Minkowski(p) => {
                        for (v, contribs) in per_variable.iter_mut().enumerate() {
                            contribs[pair] = (a[v] - b[v]).abs().powf(p);
                        }
                    }
                }
                pair += 1;
            }
        }
        PairContributions {
            n,
            order,
            per_variable,
        }
    }

    /// Number of variables with contributions.
    pub fn n_variables(&self) -> usize {
        self.per_variable.len()
    }

    /// Number of observation pairs per variable row.
    pub fn n_pairs(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    /// Dissimilarities over the variable subset `keep`.
    ///
    /// `keep` must be ascending for bit-identity with a direct computation
    /// (a direct pass sums variables in ascending order).
    ///
    /// # Panics
    /// Panics on an out-of-range variable index — a caller bug.
    pub fn combine(&self, keep: &[usize]) -> DissimilarityMatrix {
        let mut sums = vec![0.0; self.n_pairs()];
        for &v in keep {
            for (s, &c) in sums.iter_mut().zip(&self.per_variable[v]) {
                *s += c;
            }
        }
        if self.order == 2.0 {
            // `.sqrt()` rather than `.powf(0.5)`: same choice as vecops.
            for s in &mut sums {
                *s = s.sqrt();
            }
        } else if self.order != 1.0 {
            for s in &mut sums {
                *s = s.powf(1.0 / self.order);
            }
        }
        DissimilarityMatrix::from_pairs(self.n, sums)
    }
}

/// Which analysis [`CoplotEngine::run`] performs over the data.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// All variables.
    All,
    /// The paper's variable-elimination workflow: analyze, drop the worst
    /// variable while any arrow correlation is below `min_correlation`,
    /// re-embed, repeat. The removal order lands in
    /// [`CoplotResult::removed`].
    Eliminate {
        /// Keep eliminating while any arrow correlation is below this.
        min_correlation: f64,
    },
}

/// Which pipeline stage a [`StageReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: z-score normalization.
    Normalize,
    /// Stage 2: pairwise dissimilarities.
    Dissimilarity,
    /// Stage 3: MDS embedding.
    Embedding,
    /// Stage 4: variable arrows.
    Arrows,
}

impl Stage {
    /// Lower-case stage name as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Normalize => "normalize",
            Stage::Dissimilarity => "dissimilarity",
            Stage::Embedding => "embedding",
            Stage::Arrows => "arrows",
        }
    }

    /// Parse a stage from its [`Stage::name`] label.
    pub fn from_name(name: &str) -> Option<Stage> {
        match name {
            "normalize" => Some(Stage::Normalize),
            "dissimilarity" => Some(Stage::Dissimilarity),
            "embedding" => Some(Stage::Embedding),
            "arrows" => Some(Stage::Arrows),
            _ => None,
        }
    }
}

/// One stage's instrumentation record for one pipeline pass.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage this record describes.
    pub stage: Stage,
    /// Wall-clock time the stage spent.
    pub wall_time: Duration,
    /// Iterations consumed (MDS majorization iterations across all starts;
    /// 0 for non-iterative stages).
    pub iterations: usize,
    /// Per-start coefficients of alienation (embedding stage only).
    pub theta_per_restart: Vec<f64>,
    /// Wall time inside the MDS majorization descent (embedding stage only;
    /// zero elsewhere).
    pub majorization_time: Duration,
    /// Wall time scoring configurations with the Θ kernel — map distances
    /// plus coefficient of alienation (embedding stage only; zero
    /// elsewhere).
    pub theta_time: Duration,
    /// Whether the stage reused the run's stages-1/2 intermediates instead
    /// of computing them (elimination rounds after the first).
    pub cache_hit: bool,
}

/// Renders a slice of [`StageReport`]s as an aligned text table (what the
/// CLI's `--timings` flag prints).
pub struct StageReportTable<'a>(pub &'a [StageReport]);

impl fmt::Display for StageReportTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>12} {:>6} {:>6} {:>12} {:>12}  theta per start",
            "stage", "wall", "iters", "cache", "major", "theta"
        )?;
        for r in self.0 {
            let micros = r.wall_time.as_secs_f64() * 1e6;
            let thetas = if r.theta_per_restart.is_empty() {
                "-".to_string()
            } else {
                r.theta_per_restart
                    .iter()
                    .map(|t| {
                        if t.is_finite() {
                            format!("{t:.4}")
                        } else {
                            "collapsed".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            // The majorization / theta-evaluation split only exists for the
            // embedding stage; other rows print "-".
            let split = |d: Duration| {
                if r.stage == Stage::Embedding {
                    format!("{:.1} us", d.as_secs_f64() * 1e6)
                } else {
                    "-".to_string()
                }
            };
            writeln!(
                f,
                "{:<14} {:>9.1} us {:>6} {:>6} {:>12} {:>12}  {}",
                r.stage.name(),
                micros,
                r.iterations,
                if r.cache_hit { "hit" } else { "miss" },
                split(r.majorization_time),
                split(r.theta_time),
                thetas
            )?;
        }
        Ok(())
    }
}

/// Stages 1–2 of one input: its z-scores and the per-variable pair
/// contributions every selection sums its dissimilarities from.
struct Prepared {
    z: NormalizedMatrix,
    contributions: PairContributions,
}

/// How the stage-1/2 work of one selection was paid for (threaded into its
/// stage reports).
#[derive(Clone, Copy)]
struct PrepareInfo {
    cache_hit: bool,
    normalize_time: Duration,
    contrib_time: Duration,
}

impl PrepareInfo {
    /// A later elimination round, which reuses the run's stages 1–2.
    fn reused() -> PrepareInfo {
        PrepareInfo {
            cache_hit: true,
            normalize_time: Duration::ZERO,
            contrib_time: Duration::ZERO,
        }
    }
}

/// The staged, instrumented Co-plot pipeline.
///
/// Build one with [`Coplot::engine`]; run analyses with
/// [`run`](CoplotEngine::run) and a [`Selection`] or through a
/// [`shared_session`](CoplotEngine::shared_session); inspect the last run's
/// per-stage instrumentation with [`reports`](CoplotEngine::reports).
#[derive(Debug)]
pub struct CoplotEngine {
    config: Coplot,
    reports: Mutex<Vec<StageReport>>,
}

impl CoplotEngine {
    /// An engine configured by `config`.
    pub(crate) fn new(config: Coplot) -> CoplotEngine {
        CoplotEngine {
            config,
            reports: Mutex::new(Vec::new()),
        }
    }

    /// Run the pipeline for one [`Selection`].
    ///
    /// Computes stages 1–2 once and records per-stage [`StageReport`]s
    /// (replacing the previous run's reports); elimination rounds after the
    /// first reuse them, visible as `cache_hit` in the reports.
    ///
    /// # Errors
    /// Any stage's [`CoplotError`], including
    /// [`CoplotError::DeadlineExceeded`] past the configured deadline.
    pub fn run(&self, data: &DataMatrix, selection: &Selection) -> Result<CoplotResult, CoplotError> {
        let (prepared, info) = self.prepare(data)?;
        self.reports.lock().expect("engine reports lock").clear();
        match selection {
            Selection::All => {
                let keep: Vec<usize> = (0..prepared.z.n_variables()).collect();
                self.run_selection(&prepared, &keep, info)
            }
            Selection::Eliminate { min_correlation } => {
                self.run_elimination(&prepared, info, *min_correlation)
            }
        }
    }

    /// Per-stage instrumentation of the last `run`, in execution order.
    /// Elimination runs append one group of four reports per round.
    /// [`SharedSubsetSession`] runs leave the reports untouched.
    pub fn reports(&self) -> Vec<StageReport> {
        self.reports.lock().expect("engine reports lock").clone()
    }

    /// Compute `data`'s stages 1–2 once and open a batch of subset analyses
    /// over them.
    ///
    /// Each [`SharedSubsetSession::run_subset`] call is bit-identical to a
    /// fresh engine's `run(&data.select_variables(keep), &Selection::All)`:
    /// the session owns the z-scores and pair contributions, and sums each
    /// subset's dissimilarities from the contributions. Reports are never
    /// touched, so worker threads share one session by `&`.
    ///
    /// # Errors
    /// [`CoplotError::DeadlineExceeded`] (stage `normalize`) past the
    /// configured deadline, or a normalization error.
    pub fn shared_session(&self, data: &DataMatrix) -> Result<SharedSubsetSession<'_>, CoplotError> {
        let (prepared, _) = self.prepare(data)?;
        Ok(SharedSubsetSession {
            engine: self,
            prepared,
        })
    }

    /// Refuse to start `stage` past the configured deadline.
    fn check_deadline(&self, stage: &'static str) -> Result<(), CoplotError> {
        match self.config.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                Err(CoplotError::DeadlineExceeded { stage })
            }
            _ => Ok(()),
        }
    }

    /// Stages 1–2: normalize `data` and compute its pair contributions.
    fn prepare(&self, data: &DataMatrix) -> Result<(Prepared, PrepareInfo), CoplotError> {
        self.check_deadline("normalize")?;
        let _span = wl_obs::span!("engine.prepare");
        wl_obs::counter!("engine.prepared", 1u64);
        let t = Instant::now();
        let z = {
            let _span = wl_obs::span!("engine.normalize");
            data.normalize(self.config.imputation)?
        };
        let normalize_time = t.elapsed();
        let t = Instant::now();
        let contributions = {
            let _span = wl_obs::span!("engine.contributions");
            PairContributions::compute(&z, self.config.metric)
        };
        let contrib_time = t.elapsed();
        Ok((
            Prepared { z, contributions },
            PrepareInfo {
                cache_hit: false,
                normalize_time,
                contrib_time,
            },
        ))
    }

    /// Run stages 1'–4 for one variable selection, timing each stage and
    /// appending its report.
    fn run_selection(
        &self,
        prepared: &Prepared,
        keep: &[usize],
        info: PrepareInfo,
    ) -> Result<CoplotResult, CoplotError> {
        let (result, t) = self.compute_selection(prepared, keep)?;
        let mut reports = self.reports.lock().expect("engine reports lock");
        reports.push(StageReport {
            stage: Stage::Normalize,
            wall_time: info.normalize_time + t.select,
            iterations: 0,
            theta_per_restart: Vec::new(),
            majorization_time: Duration::ZERO,
            theta_time: Duration::ZERO,
            cache_hit: info.cache_hit,
        });
        reports.push(StageReport {
            stage: Stage::Dissimilarity,
            wall_time: info.contrib_time + t.diss,
            iterations: 0,
            theta_per_restart: Vec::new(),
            majorization_time: Duration::ZERO,
            theta_time: Duration::ZERO,
            cache_hit: info.cache_hit,
        });
        reports.push(StageReport {
            stage: Stage::Embedding,
            wall_time: t.embed,
            iterations: t.iterations,
            theta_per_restart: t.theta_per_restart,
            majorization_time: t.majorization_time,
            theta_time: t.theta_time,
            cache_hit: false,
        });
        reports.push(StageReport {
            stage: Stage::Arrows,
            wall_time: t.arrows,
            iterations: 0,
            theta_per_restart: Vec::new(),
            majorization_time: Duration::ZERO,
            theta_time: Duration::ZERO,
            cache_hit: false,
        });
        Ok(result)
    }

    /// The elimination loop: analyze, drop the worst variable while any
    /// arrow correlation is below `min_correlation`, re-run, repeat.
    ///
    /// At least two variables are always kept; if even those fall below the
    /// threshold the last result is returned anyway (matching how the paper
    /// reports maps with a few weaker variables noted). Normalization and
    /// dissimilarity contributions are computed once; each round only
    /// re-embeds and re-fits arrows.
    fn run_elimination(
        &self,
        prepared: &Prepared,
        info: PrepareInfo,
        min_correlation: f64,
    ) -> Result<CoplotResult, CoplotError> {
        let mut info = info;
        let mut keep: Vec<usize> = (0..prepared.z.n_variables()).collect();
        let mut removed = Vec::new();
        loop {
            let mut result = self.run_selection(prepared, &keep, info)?;
            info = PrepareInfo::reused();
            if keep.len() <= 2 {
                result.removed = removed;
                return Ok(result);
            }
            // Find the worst-fitting variable. The comparison is total:
            // arrow correlations are finite by construction (a NaN fit is a
            // DegenerateVariable error upstream).
            let worst = result
                .arrows
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.correlation
                        .abs()
                        .partial_cmp(&b.correlation.abs())
                        .expect("finite correlations")
                })
                .map(|(i, a)| (i, a.correlation.abs(), a.name.clone()))
                .expect("at least one arrow");
            if worst.1 >= min_correlation {
                result.removed = removed;
                return Ok(result);
            }
            keep.remove(worst.0);
            removed.push(worst.2);
        }
    }

    /// The shared selection core: stages 1'–4 over prepared stages 1–2,
    /// with per-stage timings returned rather than recorded. Both reported
    /// runs and shared sessions run exactly this code, so their results are
    /// bit-identical by construction.
    fn compute_selection(
        &self,
        prepared: &Prepared,
        keep: &[usize],
    ) -> Result<(CoplotResult, SelectionTimings), CoplotError> {
        let _span = wl_obs::span!("engine.selection");
        wl_obs::counter!("engine.selections", 1u64);
        let full = keep.len() == prepared.z.n_variables()
            && keep.iter().enumerate().all(|(i, &v)| i == v);

        let t = Instant::now();
        let z = if full {
            prepared.z.clone()
        } else {
            prepared.z.select_variables(keep)
        };
        let select = t.elapsed();

        let t = Instant::now();
        let diss = {
            let _span = wl_obs::span!("engine.dissimilarity");
            prepared.contributions.combine(keep)
        };
        let diss_time = t.elapsed();

        self.check_deadline("embed")?;
        let t = Instant::now();
        let sol = {
            let _span = wl_obs::span!("engine.embed");
            nonmetric_mds(&diss, &self.config.mds)?
        };
        let embed = t.elapsed();

        self.check_deadline("arrows")?;
        let t = Instant::now();
        let mut arrows = Vec::with_capacity(z.n_variables());
        {
            let _span = wl_obs::span!("engine.arrows");
            for v in 0..z.n_variables() {
                let col = z.column(v);
                arrows.push(try_fit_arrow(&z.variables()[v], &sol.coords, &col)?);
            }
        }
        let arrows_time = t.elapsed();

        let timings = SelectionTimings {
            select,
            diss: diss_time,
            embed,
            arrows: arrows_time,
            iterations: sol.iterations,
            theta_per_restart: sol.theta_per_restart,
            majorization_time: sol.majorization_time,
            theta_time: sol.theta_time,
        };
        Ok((
            CoplotResult {
                observations: z.observations().to_vec(),
                coords: sol.coords,
                arrows,
                alienation: sol.alienation,
                stress: sol.stress,
                dissimilarities: diss,
                removed: Vec::new(),
            },
            timings,
        ))
    }
}

/// Reject empty, out-of-range or not strictly ascending variable
/// selections (a repeated variable would count its contributions twice).
fn validate_keep(p: usize, keep: &[usize]) -> Result<(), CoplotError> {
    if keep.is_empty() {
        return Err(CoplotError::EmptyInput {
            what: "selected variables",
        });
    }
    if let Some(&bad) = keep.iter().find(|&&v| v >= p) {
        return Err(CoplotError::DimensionMismatch {
            context: "SharedSubsetSession: variable index".into(),
            expected: p,
            got: bad,
        });
    }
    if let Some(w) = keep.windows(2).find(|w| w[0] >= w[1]) {
        return Err(CoplotError::InvalidConfig(format!(
            "SharedSubsetSession: variable indices must be strictly ascending, \
             got {} after {}",
            w[1], w[0]
        )));
    }
    Ok(())
}

/// Per-stage wall times (and embedding diagnostics) of one selection pass,
/// handed back by the selection core for the caller to fold into reports.
struct SelectionTimings {
    select: Duration,
    diss: Duration,
    embed: Duration,
    arrows: Duration,
    iterations: usize,
    theta_per_restart: Vec<f64>,
    majorization_time: Duration,
    theta_time: Duration,
}

/// A batch of subset analyses over one input's stages 1–2 (see
/// [`CoplotEngine::shared_session`]). Owns the z-scores and pair
/// contributions; worker threads share it by `&`.
pub struct SharedSubsetSession<'e> {
    engine: &'e CoplotEngine,
    prepared: Prepared,
}

impl SharedSubsetSession<'_> {
    /// Analyze one strictly ascending variable subset.
    ///
    /// The dissimilarity matrix is [`PairContributions::combine`] over the
    /// session's contributions, and everything downstream is the engine's
    /// one selection core. All variables (`0..p`) is the computation
    /// `run(&data, &Selection::All)` makes; `engine.shared_selections`
    /// counts the proper subsets.
    ///
    /// # Errors
    /// Any stage's [`CoplotError`]; [`CoplotError::EmptyInput`],
    /// [`CoplotError::DimensionMismatch`] or [`CoplotError::InvalidConfig`]
    /// for an empty, out-of-range or not strictly ascending `keep`.
    pub fn run_subset(&self, keep: &[usize]) -> Result<CoplotResult, CoplotError> {
        let p = self.prepared.z.n_variables();
        validate_keep(p, keep)?;
        if keep.len() < p {
            wl_obs::counter!("engine.shared_selections", 1u64);
        }
        self.engine
            .compute_selection(&self.prepared, keep)
            .map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Imputation;

    fn structured_data() -> DataMatrix {
        DataMatrix::from_rows(
            vec![
                "lo1".into(),
                "lo2".into(),
                "lo3".into(),
                "hi1".into(),
                "hi2".into(),
                "hi3".into(),
            ],
            vec!["a".into(), "a2".into(), "anti".into(), "b".into()],
            &[
                &[1.0, 1.1, 9.0, 5.0],
                &[1.2, 1.0, 8.8, 3.0],
                &[0.9, 1.2, 9.1, 4.0],
                &[5.0, 5.2, 1.0, 4.2],
                &[5.3, 4.9, 1.2, 2.8],
                &[4.8, 5.1, 0.8, 5.1],
            ],
        )
    }

    /// Strong 2-D structure plus a noise variable: elimination at 0.95
    /// runs at least two rounds and removes the noise.
    fn elimination_data() -> DataMatrix {
        DataMatrix::from_rows(
            (1..=8).map(|i| format!("o{i}")).collect(),
            vec![
                "x".into(),
                "x2".into(),
                "y".into(),
                "y2".into(),
                "noise".into(),
            ],
            &[
                &[1.0, 1.1, 8.0, 7.9, 3.0],
                &[2.0, 2.2, 1.0, 1.2, -1.0],
                &[3.0, 2.9, 6.0, 6.1, 4.0],
                &[4.0, 4.1, 2.0, 2.1, -3.0],
                &[5.0, 4.8, 7.0, 7.2, 3.5],
                &[6.0, 6.2, 3.0, 2.8, -2.0],
                &[7.0, 7.1, 5.0, 5.2, 2.0],
                &[8.0, 7.9, 4.0, 4.1, -4.0],
            ],
        )
    }

    fn assert_bit_identical(a: &CoplotResult, b: &CoplotResult, context: &str) {
        assert_eq!(a.coords.as_slice(), b.coords.as_slice(), "{context}");
        assert_eq!(a.alienation.to_bits(), b.alienation.to_bits(), "{context}");
        assert_eq!(a.arrows, b.arrows, "{context}");
        assert_eq!(a.removed, b.removed, "{context}");
    }

    #[test]
    fn engine_matches_pipeline_facade() {
        let data = structured_data();
        let facade = Coplot::new().seed(11).analyze(&data).unwrap();
        let engine = Coplot::new().seed(11).engine();
        let direct = engine.run(&data, &Selection::All).unwrap();
        assert_bit_identical(&facade, &direct, "facade vs engine");
    }

    #[test]
    fn contributions_combine_is_bit_identical_to_direct_compute() {
        let data = structured_data();
        let z = data.normalize(Imputation::ColumnMean).unwrap();
        for metric in [Metric::CityBlock, Metric::Euclidean, Metric::Minkowski(3.0)] {
            let direct_full = DissimilarityMatrix::compute(&z, metric);
            let contribs = PairContributions::compute(&z, metric);
            let combined_full = contribs.combine(&[0, 1, 2, 3]);
            assert_eq!(direct_full, combined_full, "{metric:?}");

            let keep = [0usize, 2];
            let direct_sub = DissimilarityMatrix::compute(&z.select_variables(&keep), metric);
            let combined_sub = contribs.combine(&keep);
            assert_eq!(direct_sub, combined_sub, "{metric:?} subset");
        }
    }

    #[test]
    fn subset_selection_matches_fresh_analysis_of_the_subset() {
        let data = structured_data();
        let engine = Coplot::new().seed(14).engine();
        let subsets: [&[usize]; 5] = [&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 3], &[0, 1, 2, 3]];
        let session = engine.shared_session(&data).unwrap();
        for keep in subsets {
            let sub = session.run_subset(keep).unwrap();
            let fresh = Coplot::new()
                .seed(14)
                .engine()
                .run(&data.select_variables(keep), &Selection::All)
                .unwrap();
            assert_bit_identical(&sub, &fresh, &format!("keep={keep:?}"));
        }
    }

    #[test]
    fn full_subset_is_bit_identical_to_run_all() {
        let data = structured_data();
        let engine = Coplot::new().seed(15).engine();
        let all = engine.run(&data, &Selection::All).unwrap();
        let session = engine.shared_session(&data).unwrap();
        let full = session.run_subset(&[0, 1, 2, 3]).unwrap();
        assert_bit_identical(&all, &full, "run(All) vs run_subset(0..p)");
        assert_eq!(all.stress.to_bits(), full.stress.to_bits());
        assert_eq!(all.dissimilarities, full.dissimilarities);
    }

    #[test]
    fn shared_session_checks_the_deadline() {
        // A deadline of "now" has passed by the time the session checks it.
        let engine = Coplot::new().deadline(Some(Instant::now())).engine();
        match engine.shared_session(&structured_data()) {
            Err(CoplotError::DeadlineExceeded { stage }) => assert_eq!(stage, "normalize"),
            Err(other) => panic!("expected a deadline error, got {other}"),
            Ok(_) => panic!("session opened past its deadline"),
        }
    }

    #[test]
    fn subset_selection_rejects_bad_selections() {
        let data = structured_data();
        let engine = Coplot::new().engine();
        let session = engine.shared_session(&data).unwrap();
        assert!(matches!(
            session.run_subset(&[]).unwrap_err(),
            CoplotError::EmptyInput { .. }
        ));
        assert!(matches!(
            session.run_subset(&[0, 9]).unwrap_err(),
            CoplotError::DimensionMismatch { got: 9, .. }
        ));
        // A repeated variable would sum its contributions twice.
        assert!(matches!(
            session.run_subset(&[0, 1, 1]).unwrap_err(),
            CoplotError::InvalidConfig(_)
        ));
        assert!(matches!(
            session.run_subset(&[2, 0]).unwrap_err(),
            CoplotError::InvalidConfig(_)
        ));
    }

    #[test]
    fn elimination_rounds_reuse_stages_one_and_two() {
        let engine = Coplot::new().seed(5).engine();
        let result = engine
            .run(&elimination_data(), &Selection::Eliminate { min_correlation: 0.95 })
            .unwrap();
        assert!(!result.removed.is_empty());
        let reports = engine.reports();
        assert!(reports.len() >= 8, "at least two rounds of four stages");
        assert!(!reports[0].cache_hit, "first round computes");
        assert!(reports[4].cache_hit, "second round reuses normalization");
        assert!(reports[5].cache_hit, "second round reuses contributions");
    }

    #[test]
    fn expired_deadline_fails_before_normalize() {
        // A deadline of "now" has passed by the time `run` checks it.
        let engine = Coplot::new().deadline(Some(Instant::now())).engine();
        for selection in [Selection::All, Selection::Eliminate { min_correlation: 0.95 }] {
            match engine.run(&elimination_data(), &selection) {
                Err(CoplotError::DeadlineExceeded { stage }) => {
                    assert_eq!(stage, "normalize", "{selection:?}")
                }
                other => panic!("{selection:?}: expected a deadline error, got {other:?}"),
            }
        }
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_none() {
        let deadline = Instant::now() + Duration::from_secs(600);
        for selection in [Selection::All, Selection::Eliminate { min_correlation: 0.95 }] {
            let free = Coplot::new().seed(5).engine();
            let gated = Coplot::new().seed(5).deadline(Some(deadline)).engine();
            let free = free.run(&elimination_data(), &selection).unwrap();
            let gated = gated.run(&elimination_data(), &selection).unwrap();
            assert_bit_identical(&free, &gated, &format!("{selection:?}"));
        }
    }

    #[test]
    fn prepared_counter_counts_each_run_and_session() {
        wl_obs::set_enabled(true);
        let before = wl_obs::registry().snapshot();
        let data = structured_data();
        let engine = Coplot::new().seed(21).engine();
        engine.run(&data, &Selection::All).unwrap();
        engine
            .run(&data, &Selection::Eliminate { min_correlation: 0.95 })
            .unwrap();
        let session = engine.shared_session(&data).unwrap();
        session.run_subset(&[0, 2]).unwrap();
        session.run_subset(&[1, 3]).unwrap();
        let after = wl_obs::registry().snapshot();
        // Delta assertions — the registry is global and tests run
        // concurrently, so check growth by at least this test's activity.
        let grew = |name: &str, by: u64| {
            assert!(
                after.counter(name) >= before.counter(name) + by,
                "{name}: {} -> {}",
                before.counter(name),
                after.counter(name)
            );
        };
        // One stages-1/2 pass per run (elimination rounds included) and one
        // per session, however many subsets the session scores.
        grew("engine.prepared", 3);
        grew("engine.shared_selections", 2);
        grew("engine.selections", 4);
    }

    #[test]
    fn report_table_renders_every_stage() {
        let data = structured_data();
        let engine = Coplot::new().engine();
        engine.run(&data, &Selection::All).unwrap();
        let table = StageReportTable(&engine.reports()).to_string();
        for stage in ["normalize", "dissimilarity", "embedding", "arrows"] {
            assert!(table.contains(stage), "missing {stage} in:\n{table}");
        }
        assert!(table.contains("miss"));
    }

    #[test]
    fn embedding_report_carries_restart_thetas() {
        let data = structured_data();
        let engine = Coplot::new().restarts(3).engine();
        let r = engine.run(&data, &Selection::All).unwrap();
        let embed = &engine.reports()[2];
        assert_eq!(embed.stage, Stage::Embedding);
        assert_eq!(embed.theta_per_restart.len(), 4);
        assert!(embed.iterations > 0);
        let min = embed
            .theta_per_restart
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, r.alienation);
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in [
            Stage::Normalize,
            Stage::Dissimilarity,
            Stage::Embedding,
            Stage::Arrows,
        ] {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(Stage::from_name("nope"), None);
    }
}
