//! The staged Co-plot engine: explicit stage traits, intermediate-result
//! caching, and per-stage instrumentation.
//!
//! [`CoplotEngine`] owns the four pipeline stages behind trait objects, so
//! each can be swapped independently:
//!
//! * [`Normalizer`] — raw data to z-scores ([`ZScoreNormalizer`]);
//! * [`DissimilarityStage`] — z-scores to pairwise dissimilarities
//!   ([`MetricDissimilarity`]);
//! * [`Embedder`] — dissimilarities to a planar configuration
//!   ([`NonmetricMdsEmbedder`]);
//! * [`ArrowFitter`] — variable columns to arrows ([`OlsArrowFitter`]).
//!
//! Unlike the one-shot [`crate::pipeline::Coplot`] facade (a thin wrapper
//! over this engine), the engine is stateful: it caches the normalized
//! matrix and the per-variable dissimilarity contributions of the last
//! input, so variable elimination and subset searches re-embed without
//! re-normalizing or recomputing distances from scratch.
//!
//! There is one entry point: [`CoplotEngine::run`] takes the data and a
//! [`Selection`] describing *which* analysis to perform — all variables, an
//! index subset, a cache-only shared subset, or the paper's
//! variable-elimination workflow. The engine takes `&self`: the cache sits
//! behind an `RwLock` and the stage reports behind a `Mutex`, so one engine
//! can serve many concurrent selections (this is what the parallel subset
//! search and the `wl-serve` workers rely on).
//!
//! Every reported run records a [`StageReport`] per stage — wall time,
//! iteration counts, the per-restart MDS thetas, and whether the stage was
//! served from cache — retrievable via [`CoplotEngine::reports`] and
//! printable with [`StageReportTable`].
//!
//! # Caching and exactness
//!
//! Z-scores are per-column, so a column subset of the cached normalized
//! matrix equals the normalization of the subset. All three [`Metric`]s are
//! Minkowski distances `(sum_v |dz_v|^p)^(1/p)`, so the engine caches the
//! per-variable contributions `|dz_v|^p` for every observation pair and
//! rebuilds the dissimilarities of any variable subset by summing the active
//! contributions in ascending variable order — the same floating-point
//! additions, in the same order, as a direct computation, hence
//! bit-identical results.

use std::fmt;
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::arrows::{try_fit_arrow, Arrow};
use crate::data::{DataMatrix, Imputation, NormalizedMatrix};
use crate::dissimilarity::{DissimilarityMatrix, Metric};
use crate::error::CoplotError;
use crate::mds::{nonmetric_mds, MdsConfig, MdsSolution};
use crate::pipeline::CoplotResult;
use wl_linalg::Matrix;

/// Stage 1: raw data to a complete z-score matrix.
///
/// Implementations must normalize column-locally (each output column a
/// function of that input column alone); the engine relies on this to reuse
/// one normalization across variable subsets.
pub trait Normalizer: fmt::Debug + Send + Sync {
    /// Normalize a data matrix.
    fn normalize(&self, data: &DataMatrix) -> Result<NormalizedMatrix, CoplotError>;
}

/// Stage 2: z-scores to pairwise dissimilarities.
pub trait DissimilarityStage: fmt::Debug + Send + Sync {
    /// Dissimilarities over all variables of `z`.
    fn compute(&self, z: &NormalizedMatrix) -> Result<DissimilarityMatrix, CoplotError>;

    /// Reusable per-variable pair contributions, if this stage's metric
    /// decomposes over variables. `None` (the default) disables the
    /// engine's dissimilarity cache; subsets are then recomputed directly.
    fn contributions(&self, _z: &NormalizedMatrix) -> Option<PairContributions> {
        None
    }
}

/// Stage 3: dissimilarities to a low-dimensional configuration.
pub trait Embedder: fmt::Debug + Send + Sync {
    /// Embed the dissimilarities.
    fn embed(&self, diss: &DissimilarityMatrix) -> Result<MdsSolution, CoplotError>;
}

/// Stage 4: one variable column to an arrow over the configuration.
pub trait ArrowFitter: fmt::Debug + Send + Sync {
    /// Fit the arrow for variable `name`.
    fn fit(&self, name: &str, coords: &Matrix, z: &[f64]) -> Result<Arrow, CoplotError>;
}

/// The paper's stage 1: z-score normalization (Eq. 1).
#[derive(Debug, Clone, Copy)]
pub struct ZScoreNormalizer {
    /// Missing-cell policy.
    pub imputation: Imputation,
}

impl Normalizer for ZScoreNormalizer {
    fn normalize(&self, data: &DataMatrix) -> Result<NormalizedMatrix, CoplotError> {
        data.normalize(self.imputation)
    }
}

/// The paper's stage 2: a Minkowski-family metric over z-score rows (Eq. 2
/// uses city-block).
#[derive(Debug, Clone, Copy)]
pub struct MetricDissimilarity {
    /// The row metric.
    pub metric: Metric,
}

impl DissimilarityStage for MetricDissimilarity {
    fn compute(&self, z: &NormalizedMatrix) -> Result<DissimilarityMatrix, CoplotError> {
        Ok(DissimilarityMatrix::compute(z, self.metric))
    }

    fn contributions(&self, z: &NormalizedMatrix) -> Option<PairContributions> {
        Some(PairContributions::compute(z, self.metric))
    }
}

/// The paper's stage 3: nonmetric MDS scored by Guttman's coefficient of
/// alienation.
#[derive(Debug, Clone, Copy)]
pub struct NonmetricMdsEmbedder {
    /// Optimizer knobs (restarts, seed, threads...).
    pub config: MdsConfig,
}

impl Embedder for NonmetricMdsEmbedder {
    fn embed(&self, diss: &DissimilarityMatrix) -> Result<MdsSolution, CoplotError> {
        nonmetric_mds(diss, &self.config)
    }
}

/// The paper's stage 4: closed-form OLS arrow fits.
#[derive(Debug, Clone, Copy)]
pub struct OlsArrowFitter;

impl ArrowFitter for OlsArrowFitter {
    fn fit(&self, name: &str, coords: &Matrix, z: &[f64]) -> Result<Arrow, CoplotError> {
        try_fit_arrow(name, coords, z)
    }
}

/// Per-variable dissimilarity contributions `|dz_v|^p` for every observation
/// pair, cached so any variable subset's dissimilarities can be rebuilt by
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

    /// Number of variables with cached contributions.
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
        self.apply_root(sums)
    }

    /// Apply the metric's outer root to summed contributions and wrap them
    /// as a matrix — the shared tail of [`combine`](Self::combine) and
    /// [`SubsetCombiner::combine`].
    fn apply_root(&self, mut sums: Vec<f64>) -> DissimilarityMatrix {
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

/// Incrementally recombines dissimilarities across a *sequence* of variable
/// subsets, reusing the partial sums of the longest shared ascending prefix
/// between consecutive subsets.
///
/// `prefix[j]` caches the element-wise contribution sum of `keep[..=j]`.
/// Because [`PairContributions::combine`] adds variables in ascending order
/// starting from zeros — and `0.0 + x == x` bitwise for the non-negative
/// contributions — extending a cached prefix performs the *same* additions
/// in the same order as a fresh combine, so every result is bit-identical
/// to `contribs.combine(keep)` regardless of what the combiner saw before.
/// Lexicographic subset enumeration and elimination rounds share long
/// prefixes, turning the O(k·n²) fresh combine into O(changed-levels·n²).
///
/// A combiner must only ever be fed one `PairContributions` value; the
/// engine's [`SharedSubsetSession`] and elimination loop each own one for
/// exactly that reason.
#[derive(Debug, Default)]
pub struct SubsetCombiner {
    keep: Vec<usize>,
    prefix: Vec<Vec<f64>>,
}

impl SubsetCombiner {
    /// An empty combiner (no cached levels).
    pub fn new() -> SubsetCombiner {
        SubsetCombiner::default()
    }

    /// Dissimilarities over `keep` (ascending), bit-identical to
    /// `contribs.combine(keep)`.
    ///
    /// # Panics
    /// Panics on an out-of-range variable index or an empty `keep` — caller
    /// bugs, like [`PairContributions::combine`].
    pub fn combine(&mut self, contribs: &PairContributions, keep: &[usize]) -> DissimilarityMatrix {
        assert!(!keep.is_empty(), "SubsetCombiner: empty variable subset");
        // Defensive: a contributions value of a different shape invalidates
        // every cached level (the documented contract is one combiner per
        // PairContributions; this catches the shape-changing misuse).
        if self
            .prefix
            .first()
            .is_some_and(|row| row.len() != contribs.n_pairs())
        {
            self.keep.clear();
            self.prefix.clear();
        }
        let shared = self
            .keep
            .iter()
            .zip(keep)
            .take_while(|(a, b)| a == b)
            .count();
        if shared > 0 {
            wl_obs::counter!("engine.subset.incremental.hits", 1u64);
            wl_obs::counter!("engine.subset.incremental.levels_reused", shared as u64);
        } else {
            wl_obs::counter!("engine.subset.incremental.misses", 1u64);
        }
        wl_obs::counter!(
            "engine.subset.incremental.levels_computed",
            (keep.len() - shared) as u64
        );
        self.keep.truncate(shared);
        self.prefix.truncate(shared);
        for &v in &keep[shared..] {
            let next = match self.prefix.last() {
                // Extending: prev already equals the fresh sum over
                // keep[..j], so prev + contribs[v] is the fresh combine's
                // next addition verbatim.
                Some(prev) => {
                    let mut sums = prev.clone();
                    for (s, &c) in sums.iter_mut().zip(&contribs.per_variable[v]) {
                        *s += c;
                    }
                    sums
                }
                // First level: 0.0 + c == c bitwise for the non-negative
                // contributions, so the plain copy matches a fresh combine.
                None => contribs.per_variable[v].clone(),
            };
            self.keep.push(v);
            self.prefix.push(next);
        }
        let sums = self.prefix.last().expect("non-empty keep").clone();
        contribs.apply_root(sums)
    }
}

/// Which analysis [`CoplotEngine::run`] performs over the data.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// All variables, recording stage reports.
    All,
    /// An ascending subset of variable indices, recording stage reports.
    Subset(Vec<usize>),
    /// Like [`Selection::Subset`] but served entirely from the
    /// already-populated cache and without recording reports, so many
    /// `SubsetShared` runs can proceed concurrently against one engine.
    /// Errors with [`CoplotError::InvalidConfig`] when the cache does not
    /// hold this data's intermediates (run [`Selection::All`] first).
    SubsetShared(Vec<usize>),
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
    /// Whether the stage reused a cached intermediate instead of computing
    /// from the raw input.
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

/// Cached intermediates of the engine's last input.
#[derive(Debug, Clone)]
struct EngineCache {
    fingerprint: u64,
    z: NormalizedMatrix,
    contributions: Option<PairContributions>,
}

/// How much prepare-time work the current pass inherited (threaded into the
/// stage reports of the first selection it serves).
#[derive(Clone, Copy)]
struct PrepareInfo {
    cache_hit: bool,
    normalize_time: Duration,
    contrib_time: Duration,
}

impl PrepareInfo {
    fn cached() -> PrepareInfo {
        PrepareInfo {
            cache_hit: true,
            normalize_time: Duration::ZERO,
            contrib_time: Duration::ZERO,
        }
    }
}

/// FNV-1a over the data matrix's names and cells; a content fingerprint for
/// the cache (collisions are astronomically unlikely at the scale of tens of
/// workloads, and a false hit only ever reuses a *valid* normalization of
/// the colliding data).
fn fingerprint(data: &DataMatrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for name in data.observations() {
        eat(name.as_bytes());
        eat(&[0xff]);
    }
    eat(&[0xfe]);
    for name in data.variables() {
        eat(name.as_bytes());
        eat(&[0xff]);
    }
    for i in 0..data.n_observations() {
        for v in 0..data.n_variables() {
            match data.get(i, v) {
                Some(x) => {
                    eat(&[1]);
                    eat(&x.to_bits().to_le_bytes());
                }
                None => eat(&[0]),
            }
        }
    }
    h
}

/// The staged, caching, instrumented Co-plot pipeline.
///
/// Build one with [`CoplotEngine::builder`]; run analyses with
/// [`run`](CoplotEngine::run) and a [`Selection`]; inspect the last
/// reported run's per-stage instrumentation with
/// [`reports`](CoplotEngine::reports).
#[derive(Debug)]
pub struct CoplotEngine {
    normalizer: Box<dyn Normalizer>,
    dissimilarity: Box<dyn DissimilarityStage>,
    embedder: Box<dyn Embedder>,
    arrow_fitter: Box<dyn ArrowFitter>,
    cache: RwLock<Option<EngineCache>>,
    reports: Mutex<Vec<StageReport>>,
}

impl Default for CoplotEngine {
    fn default() -> Self {
        CoplotEngine::builder().build()
    }
}

impl CoplotEngine {
    /// A builder preloaded with the paper's defaults.
    pub fn builder() -> CoplotEngineBuilder {
        CoplotEngineBuilder::default()
    }

    /// Run the pipeline for one [`Selection`].
    ///
    /// `All`, `Subset` and `Eliminate` populate the cache for `data` when it
    /// is cold and record per-stage [`StageReport`]s (replacing the previous
    /// run's reports); re-running on the same data reuses the cached
    /// normalization and dissimilarity contributions, visible as
    /// `cache_hit` in the reports. `SubsetShared` is served entirely from
    /// the already-populated cache without touching the reports, so any
    /// number of `SubsetShared` runs can proceed concurrently against one
    /// shared engine; results are bit-identical to `Subset` (both run the
    /// same selection core).
    ///
    /// # Errors
    /// Any stage's [`CoplotError`]; additionally
    /// [`CoplotError::EmptyInput`] / [`CoplotError::DimensionMismatch`] for
    /// invalid subsets and [`CoplotError::InvalidConfig`] for a
    /// `SubsetShared` against a cold or mismatched cache.
    pub fn run(&self, data: &DataMatrix, selection: &Selection) -> Result<CoplotResult, CoplotError> {
        let fp = fingerprint(data);
        match selection {
            Selection::All => self.with_cache(data, fp, |this, cache, info| {
                let keep: Vec<usize> = (0..cache.z.n_variables()).collect();
                this.run_reported(cache, &keep, info)
            }),
            Selection::Subset(keep) => self.with_cache(data, fp, |this, cache, info| {
                validate_keep(cache.z.n_variables(), keep, "Selection::Subset")?;
                this.run_reported(cache, keep, info)
            }),
            Selection::SubsetShared(keep) => {
                let guard = self.cache.read().expect("engine cache lock");
                let cache = guard
                    .as_ref()
                    .filter(|c| c.fingerprint == fp)
                    .ok_or_else(|| {
                        CoplotError::InvalidConfig(
                            "Selection::SubsetShared: engine cache does not hold this \
                             data's intermediates; run Selection::All on it first"
                                .into(),
                        )
                    })?;
                validate_keep(cache.z.n_variables(), keep, "Selection::SubsetShared")?;
                wl_obs::counter!("engine.shared_selections", 1u64);
                self.compute_selection(cache, keep, None).map(|(r, _)| r)
            }
            Selection::Eliminate { min_correlation } => {
                self.with_cache(data, fp, |this, cache, info| {
                    this.run_elimination(cache, info, *min_correlation)
                })
            }
        }
    }

    /// Per-stage instrumentation of the last reported `run` (selections
    /// `All`, `Subset`, `Eliminate`), in execution order. Elimination runs
    /// append one group of four reports per round. `SubsetShared` runs
    /// leave the reports untouched.
    pub fn reports(&self) -> Vec<StageReport> {
        self.reports.lock().expect("engine reports lock").clone()
    }

    /// Drop the cached intermediates (the next run recomputes everything).
    pub fn clear_cache(&self) {
        *self.cache.write().expect("engine cache lock") = None;
    }

    /// Open a batch of cache-only subset analyses against this engine.
    ///
    /// Each [`SharedSubsetSession::run_subset`] call is bit-identical to
    /// `run(data, &Selection::SubsetShared(keep))`, but the session holds
    /// the cache read-lock once for its whole lifetime and threads a
    /// [`SubsetCombiner`] through the calls, so consecutive subsets that
    /// share an ascending keep-prefix (lexicographic subset enumeration,
    /// elimination-style nested subsets) only recombine the changed
    /// levels. Reports are never touched, so any number of sessions can
    /// proceed concurrently against one engine.
    ///
    /// Note the session keeps the engine's cache read-locked: reported runs
    /// on *new* data (which must write the cache) block until every open
    /// session drops.
    ///
    /// # Errors
    /// [`CoplotError::InvalidConfig`] when the cache does not hold this
    /// data's intermediates (run [`Selection::All`] first).
    pub fn shared_session(&self, data: &DataMatrix) -> Result<SharedSubsetSession<'_>, CoplotError> {
        let fp = fingerprint(data);
        let guard = self.cache.read().expect("engine cache lock");
        if guard.as_ref().filter(|c| c.fingerprint == fp).is_none() {
            return Err(CoplotError::InvalidConfig(
                "shared_session: engine cache does not hold this data's \
                 intermediates; run Selection::All on it first"
                    .into(),
            ));
        }
        Ok(SharedSubsetSession {
            engine: self,
            guard,
            combiner: SubsetCombiner::new(),
        })
    }

    /// Run `f` against a cache guaranteed to hold `data`'s intermediates.
    ///
    /// `prepare` populates the cache, but another thread may replace it
    /// between preparing and re-acquiring the read lock (the engine is
    /// `&self`-shared); the loop re-prepares until the fingerprint under
    /// the read lock is ours, so concurrent runs on different data are
    /// slow (they evict each other) but never wrong.
    fn with_cache<T>(
        &self,
        data: &DataMatrix,
        fp: u64,
        f: impl FnOnce(&CoplotEngine, &EngineCache, PrepareInfo) -> Result<T, CoplotError>,
    ) -> Result<T, CoplotError> {
        let mut f = Some(f);
        loop {
            let info = self.prepare(data, fp)?;
            let guard = self.cache.read().expect("engine cache lock");
            if let Some(cache) = guard.as_ref().filter(|c| c.fingerprint == fp) {
                let f = f.take().expect("closure consumed once");
                return f(self, cache, info);
            }
        }
    }

    /// Make sure the cache holds this data's normalization and
    /// contributions, computing them if the fingerprint changed.
    fn prepare(&self, data: &DataMatrix, fp: u64) -> Result<PrepareInfo, CoplotError> {
        let _span = wl_obs::span!("engine.prepare");
        {
            let guard = self.cache.read().expect("engine cache lock");
            if let Some(c) = guard.as_ref().filter(|c| c.fingerprint == fp) {
                wl_obs::counter!("engine.cache.normalized.hit", 1u64);
                if c.contributions.is_some() {
                    wl_obs::counter!("engine.cache.contributions.hit", 1u64);
                }
                return Ok(PrepareInfo::cached());
            }
        }
        wl_obs::counter!("engine.cache.normalized.miss", 1u64);
        let t = Instant::now();
        let z = {
            let _span = wl_obs::span!("engine.normalize");
            self.normalizer.normalize(data)?
        };
        let normalize_time = t.elapsed();
        let t = Instant::now();
        let contributions = {
            let _span = wl_obs::span!("engine.contributions");
            self.dissimilarity.contributions(&z)
        };
        let contrib_time = t.elapsed();
        if contributions.is_some() {
            wl_obs::counter!("engine.cache.contributions.miss", 1u64);
        }
        *self.cache.write().expect("engine cache lock") = Some(EngineCache {
            fingerprint: fp,
            z,
            contributions,
        });
        Ok(PrepareInfo {
            cache_hit: false,
            normalize_time,
            contrib_time,
        })
    }

    /// One reported selection pass: clear the previous run's reports, run
    /// the selection core, record the four stage reports.
    fn run_reported(
        &self,
        cache: &EngineCache,
        keep: &[usize],
        info: PrepareInfo,
    ) -> Result<CoplotResult, CoplotError> {
        self.reports.lock().expect("engine reports lock").clear();
        self.run_selection(cache, keep, info, None)
    }

    /// Run stages 1'–4 for one variable selection against the cache, timing
    /// each stage and appending its report. `pre` optionally supplies an
    /// already-combined dissimilarity matrix (the elimination loop's
    /// incremental combiner); it must be bit-identical to what the cache
    /// would produce for `keep`.
    fn run_selection(
        &self,
        cache: &EngineCache,
        keep: &[usize],
        info: PrepareInfo,
        pre: Option<PreDiss>,
    ) -> Result<CoplotResult, CoplotError> {
        let (result, t) = self.compute_selection(cache, keep, pre)?;
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
            cache_hit: t.diss_cacheable && info.cache_hit,
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
        cache: &EngineCache,
        info: PrepareInfo,
        min_correlation: f64,
    ) -> Result<CoplotResult, CoplotError> {
        self.reports.lock().expect("engine reports lock").clear();
        let mut info = info;
        let mut keep: Vec<usize> = (0..cache.z.n_variables()).collect();
        let mut removed = Vec::new();
        // Successive rounds differ by one removed variable, so an
        // incremental combiner reuses every contribution level below the
        // removal point instead of re-summing the whole keep set.
        let mut combiner = SubsetCombiner::new();
        loop {
            let pre = cache.contributions.as_ref().map(|c| {
                let t = Instant::now();
                let diss = combiner.combine(c, &keep);
                PreDiss {
                    diss,
                    combine_time: t.elapsed(),
                }
            });
            let mut result = self.run_selection(cache, &keep, info, pre)?;
            info = PrepareInfo::cached();
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

    /// The shared selection core: stages 1'–4 against a populated cache,
    /// with per-stage timings returned rather than recorded. Both the
    /// report-recording path and the immutable shared path run exactly this
    /// code, so their results are bit-identical by construction.
    fn compute_selection(
        &self,
        cache: &EngineCache,
        keep: &[usize],
        pre: Option<PreDiss>,
    ) -> Result<(CoplotResult, SelectionTimings), CoplotError> {
        let _span = wl_obs::span!("engine.selection");
        wl_obs::counter!("engine.selections", 1u64);
        let full = keep.len() == cache.z.n_variables()
            && keep.iter().enumerate().all(|(i, &v)| i == v);

        let t = Instant::now();
        let z = if full {
            cache.z.clone()
        } else {
            cache.z.select_variables(keep)
        };
        let select = t.elapsed();

        let t = Instant::now();
        let (diss, diss_cacheable, pre_time) = {
            let _span = wl_obs::span!("engine.dissimilarity");
            match pre {
                // An incremental combiner already produced this subset's
                // matrix (bit-identical to the cache path by the combiner's
                // contract); only fold its measured time in.
                Some(p) => {
                    wl_obs::counter!("engine.selection.diss.cached", 1u64);
                    (p.diss, true, p.combine_time)
                }
                None => match &cache.contributions {
                    Some(c) => {
                        wl_obs::counter!("engine.selection.diss.cached", 1u64);
                        (c.combine(keep), true, Duration::ZERO)
                    }
                    None => {
                        wl_obs::counter!("engine.selection.diss.direct", 1u64);
                        (self.dissimilarity.compute(&z)?, false, Duration::ZERO)
                    }
                },
            }
        };
        let diss_time = t.elapsed() + pre_time;

        let t = Instant::now();
        let sol = {
            let _span = wl_obs::span!("engine.embed");
            self.embedder.embed(&diss)?
        };
        let embed = t.elapsed();

        let t = Instant::now();
        let mut arrows = Vec::with_capacity(z.n_variables());
        {
            let _span = wl_obs::span!("engine.arrows");
            for v in 0..z.n_variables() {
                let col = z.column(v);
                arrows.push(self.arrow_fitter.fit(&z.variables()[v], &sol.coords, &col)?);
            }
        }
        let arrows_time = t.elapsed();

        let timings = SelectionTimings {
            select,
            diss: diss_time,
            diss_cacheable,
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

/// Reject empty or out-of-range variable selections.
fn validate_keep(p: usize, keep: &[usize], context: &str) -> Result<(), CoplotError> {
    if keep.is_empty() {
        return Err(CoplotError::EmptyInput {
            what: "selected variables",
        });
    }
    if let Some(&bad) = keep.iter().find(|&&v| v >= p) {
        return Err(CoplotError::DimensionMismatch {
            context: format!("{context}: variable index"),
            expected: p,
            got: bad,
        });
    }
    Ok(())
}

/// Per-stage wall times (and embedding diagnostics) of one selection pass,
/// handed back by the selection core for the caller to fold into reports.
struct SelectionTimings {
    select: Duration,
    diss: Duration,
    diss_cacheable: bool,
    embed: Duration,
    arrows: Duration,
    iterations: usize,
    theta_per_restart: Vec<f64>,
    majorization_time: Duration,
    theta_time: Duration,
}

/// A dissimilarity matrix combined ahead of the selection core (by an
/// incremental [`SubsetCombiner`]), plus the wall time the combine took so
/// the dissimilarity stage report stays honest.
struct PreDiss {
    diss: DissimilarityMatrix,
    combine_time: Duration,
}

/// A batch of cache-only subset analyses against one engine (see
/// [`CoplotEngine::shared_session`]). Holds the engine's cache read-lock
/// for its lifetime and an incremental [`SubsetCombiner`] keyed to the
/// cached contributions.
pub struct SharedSubsetSession<'e> {
    engine: &'e CoplotEngine,
    guard: std::sync::RwLockReadGuard<'e, Option<EngineCache>>,
    combiner: SubsetCombiner,
}

impl SharedSubsetSession<'_> {
    /// Analyze one ascending variable subset from the session's cache.
    ///
    /// Bit-identical to `Selection::SubsetShared(keep)` — the dissimilarity
    /// matrix comes from the incremental combiner, whose output matches
    /// `PairContributions::combine` exactly, and everything downstream is
    /// the same selection core.
    ///
    /// # Errors
    /// Any stage's [`CoplotError`], plus the usual invalid-subset errors.
    pub fn run_subset(&mut self, keep: &[usize]) -> Result<CoplotResult, CoplotError> {
        let cache = self
            .guard
            .as_ref()
            .expect("session cache validated at construction");
        validate_keep(cache.z.n_variables(), keep, "SharedSubsetSession")?;
        wl_obs::counter!("engine.shared_selections", 1u64);
        let pre = cache.contributions.as_ref().map(|c| {
            let t = Instant::now();
            let diss = self.combiner.combine(c, keep);
            PreDiss {
                diss,
                combine_time: t.elapsed(),
            }
        });
        self.engine
            .compute_selection(cache, keep, pre)
            .map(|(r, _)| r)
    }
}

/// Builder for [`CoplotEngine`]; defaults match the paper (city-block
/// metric, column-mean imputation, classical init + 8 seeded restarts).
#[derive(Debug)]
pub struct CoplotEngineBuilder {
    metric: Metric,
    imputation: Imputation,
    mds: MdsConfig,
    normalizer: Option<Box<dyn Normalizer>>,
    dissimilarity: Option<Box<dyn DissimilarityStage>>,
    embedder: Option<Box<dyn Embedder>>,
    arrow_fitter: Option<Box<dyn ArrowFitter>>,
}

impl Default for CoplotEngineBuilder {
    fn default() -> Self {
        CoplotEngineBuilder {
            metric: Metric::CityBlock,
            imputation: Imputation::ColumnMean,
            mds: MdsConfig::default(),
            normalizer: None,
            dissimilarity: None,
            embedder: None,
            arrow_fitter: None,
        }
    }
}

impl CoplotEngineBuilder {
    /// Choose the stage-2 metric.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Choose the missing-cell policy.
    pub fn imputation(mut self, imputation: Imputation) -> Self {
        self.imputation = imputation;
        self
    }

    /// Replace the whole MDS configuration.
    pub fn mds(mut self, config: MdsConfig) -> Self {
        self.mds = config;
        self
    }

    /// Seed the MDS restarts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.mds.seed = seed;
        self
    }

    /// Number of random restarts (beyond the classical-scaling start).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.mds.restarts = restarts;
        self
    }

    /// Worker threads for the MDS restarts (results are bit-identical for
    /// any thread count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.mds.threads = threads;
        self
    }

    /// Majorization iteration cap per start.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.mds.max_iterations = iters;
        self
    }

    /// Install a custom stage-1 normalizer (must be column-local; see
    /// [`Normalizer`]).
    pub fn normalizer(mut self, stage: Box<dyn Normalizer>) -> Self {
        self.normalizer = Some(stage);
        self
    }

    /// Install a custom stage-2 dissimilarity.
    pub fn dissimilarity(mut self, stage: Box<dyn DissimilarityStage>) -> Self {
        self.dissimilarity = Some(stage);
        self
    }

    /// Install a custom stage-3 embedder.
    pub fn embedder(mut self, stage: Box<dyn Embedder>) -> Self {
        self.embedder = Some(stage);
        self
    }

    /// Install a custom stage-4 arrow fitter.
    pub fn arrow_fitter(mut self, stage: Box<dyn ArrowFitter>) -> Self {
        self.arrow_fitter = Some(stage);
        self
    }

    /// Build the engine.
    pub fn build(self) -> CoplotEngine {
        CoplotEngine {
            normalizer: self.normalizer.unwrap_or_else(|| {
                Box::new(ZScoreNormalizer {
                    imputation: self.imputation,
                })
            }),
            dissimilarity: self
                .dissimilarity
                .unwrap_or_else(|| Box::new(MetricDissimilarity { metric: self.metric })),
            embedder: self
                .embedder
                .unwrap_or_else(|| Box::new(NonmetricMdsEmbedder { config: self.mds })),
            arrow_fitter: self.arrow_fitter.unwrap_or(Box::new(OlsArrowFitter)),
            cache: RwLock::new(None),
            reports: Mutex::new(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Coplot;

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

    #[test]
    fn engine_matches_pipeline_facade() {
        let data = structured_data();
        let facade = Coplot::new().seed(11).analyze(&data).unwrap();
        let engine = CoplotEngine::builder().seed(11).build();
        let direct = engine.run(&data, &Selection::All).unwrap();
        assert_eq!(facade.coords.as_slice(), direct.coords.as_slice());
        assert_eq!(facade.alienation.to_bits(), direct.alienation.to_bits());
        assert_eq!(facade.arrows, direct.arrows);
    }

    #[test]
    fn second_run_hits_the_cache_with_identical_results() {
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(12).build();
        let first = engine.run(&data, &Selection::All).unwrap();
        assert!(engine.reports().iter().all(|r| !r.cache_hit));
        let second = engine.run(&data, &Selection::All).unwrap();
        let hits: Vec<bool> = engine.reports().iter().map(|r| r.cache_hit).collect();
        assert_eq!(hits, [true, true, false, false]);
        assert_eq!(first.coords.as_slice(), second.coords.as_slice());
        assert_eq!(first.alienation.to_bits(), second.alienation.to_bits());
    }

    #[test]
    fn cache_invalidates_on_new_data() {
        let engine = CoplotEngine::builder().seed(13).build();
        engine.run(&structured_data(), &Selection::All).unwrap();
        let mut other = structured_data();
        other = other.select_observations(&[0, 1, 2, 3, 4]);
        engine.run(&other, &Selection::All).unwrap();
        assert!(engine.reports().iter().all(|r| !r.cache_hit));
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
    fn subset_combiner_is_bit_identical_to_fresh_combine() {
        let data = structured_data();
        let z = data.normalize(Imputation::ColumnMean).unwrap();
        for metric in [Metric::CityBlock, Metric::Euclidean, Metric::Minkowski(3.0)] {
            let contribs = PairContributions::compute(&z, metric);
            let mut combiner = SubsetCombiner::new();
            // A history of overlapping, shrinking, and disjoint ascending
            // subsets: every result must equal the fresh combine bitwise,
            // no matter what the combiner cached before.
            let history: [&[usize]; 8] = [
                &[0, 1, 2, 3],
                &[0, 1, 2],
                &[0, 1, 3],
                &[0, 1, 3], // identical to previous: full prefix reuse
                &[2, 3],
                &[0],
                &[1, 2, 3],
                &[0, 1, 2, 3],
            ];
            for keep in history {
                let incremental = combiner.combine(&contribs, keep);
                let fresh = contribs.combine(keep);
                assert_eq!(incremental, fresh, "{metric:?} keep={keep:?}");
            }
        }
    }

    #[test]
    fn shared_session_matches_subset_shared_runs() {
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(14).build();
        engine.run(&data, &Selection::All).unwrap();
        let subsets: [&[usize]; 4] = [&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 3]];
        let mut via_session = Vec::new();
        {
            let mut session = engine.shared_session(&data).unwrap();
            for keep in subsets {
                via_session.push(session.run_subset(keep).unwrap());
            }
        }
        for (keep, from_session) in subsets.iter().zip(&via_session) {
            let direct = engine
                .run(&data, &Selection::SubsetShared(keep.to_vec()))
                .unwrap();
            assert_eq!(
                from_session.coords.as_slice(),
                direct.coords.as_slice(),
                "keep={keep:?}"
            );
            assert_eq!(
                from_session.alienation.to_bits(),
                direct.alienation.to_bits()
            );
            assert_eq!(from_session.arrows, direct.arrows);
        }
    }

    #[test]
    fn shared_session_requires_populated_cache() {
        let engine = CoplotEngine::builder().seed(14).build();
        match engine.shared_session(&structured_data()) {
            Err(CoplotError::InvalidConfig(msg)) => {
                assert!(msg.contains("Selection::All"), "{msg}")
            }
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("session opened without a populated cache"),
        };
    }

    #[test]
    fn incremental_counters_record_prefix_reuse() {
        wl_obs::set_enabled(true);
        let before = wl_obs::registry().snapshot();
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(33).build();
        engine.run(&data, &Selection::All).unwrap();
        let mut session = engine.shared_session(&data).unwrap();
        session.run_subset(&[0, 1, 2]).unwrap();
        session.run_subset(&[0, 1, 3]).unwrap(); // shares the [0, 1] prefix
        drop(session);
        let after = wl_obs::registry().snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert!(delta("engine.subset.incremental.hits") >= 1);
        assert!(delta("engine.subset.incremental.levels_reused") >= 2);
        assert!(delta("engine.subset.incremental.levels_computed") >= 4);
    }

    #[test]
    fn subset_selection_matches_fresh_analysis_of_the_subset() {
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(14).build();
        engine.run(&data, &Selection::All).unwrap();
        let sub = engine.run(&data, &Selection::Subset(vec![0, 1, 3])).unwrap();
        // The dissimilarity stage must have come from the cache.
        assert!(engine.reports()[1].cache_hit);

        let fresh_data = data.select_variables(&[0, 1, 3]);
        let fresh = CoplotEngine::builder()
            .seed(14)
            .build()
            .run(&fresh_data, &Selection::All)
            .unwrap();
        assert_eq!(sub.coords.as_slice(), fresh.coords.as_slice());
        assert_eq!(sub.alienation.to_bits(), fresh.alienation.to_bits());
        assert_eq!(sub.arrows, fresh.arrows);
    }

    #[test]
    fn shared_selection_matches_reported_selection() {
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(14).build();
        engine.run(&data, &Selection::All).unwrap();
        let reported = engine.run(&data, &Selection::Subset(vec![0, 1, 3])).unwrap();
        let shared = engine
            .run(&data, &Selection::SubsetShared(vec![0, 1, 3]))
            .unwrap();
        assert_eq!(reported.coords.as_slice(), shared.coords.as_slice());
        assert_eq!(reported.alienation.to_bits(), shared.alienation.to_bits());
        assert_eq!(reported.arrows, shared.arrows);
    }

    #[test]
    fn shared_selection_requires_populated_cache() {
        let engine = CoplotEngine::builder().seed(14).build();
        let err = engine
            .run(&structured_data(), &Selection::SubsetShared(vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");

        // A cache of *different* data is also rejected.
        let engine = CoplotEngine::builder().seed(14).build();
        engine
            .run(
                &structured_data().select_observations(&[0, 1, 2, 3, 4]),
                &Selection::All,
            )
            .unwrap();
        let err = engine
            .run(&structured_data(), &Selection::SubsetShared(vec![0, 1]))
            .unwrap_err();
        assert!(matches!(err, CoplotError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn subset_selection_rejects_bad_selections() {
        let data = structured_data();
        let engine = CoplotEngine::default();
        assert!(matches!(
            engine.run(&data, &Selection::Subset(vec![])).unwrap_err(),
            CoplotError::EmptyInput { .. }
        ));
        assert!(matches!(
            engine.run(&data, &Selection::Subset(vec![0, 9])).unwrap_err(),
            CoplotError::DimensionMismatch { got: 9, .. }
        ));
    }

    #[test]
    fn elimination_reuses_the_cache_across_rounds() {
        // Strong 2-D structure plus a noise variable: elimination runs at
        // least two rounds, and only the first computes stages 1-2.
        let d = DataMatrix::from_rows(
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
        );
        let engine = CoplotEngine::builder().seed(5).build();
        let result = engine
            .run(&d, &Selection::Eliminate { min_correlation: 0.95 })
            .unwrap();
        assert!(!result.removed.is_empty());
        let reports = engine.reports();
        assert!(reports.len() >= 8, "at least two rounds of four stages");
        assert!(!reports[0].cache_hit, "first round computes");
        assert!(reports[4].cache_hit, "second round reuses normalization");
        assert!(reports[5].cache_hit, "second round reuses contributions");
    }

    #[test]
    fn cache_counters_increment_for_shared_selections() {
        wl_obs::set_enabled(true);
        let before = wl_obs::registry().snapshot();
        let data = structured_data();
        let engine = CoplotEngine::builder().seed(21).build();
        engine.run(&data, &Selection::All).unwrap(); // cold: normalized miss
        engine.run(&data, &Selection::All).unwrap(); // warm: normalized + contributions hit
        engine
            .run(&data, &Selection::SubsetShared(vec![0, 2]))
            .unwrap();
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
        grew("engine.cache.normalized.miss", 1);
        grew("engine.cache.normalized.hit", 1);
        grew("engine.cache.contributions.hit", 1);
        grew("engine.cache.contributions.miss", 1);
        grew("engine.shared_selections", 1);
        // All three selections combined cached contributions.
        grew("engine.selection.diss.cached", 3);
        assert!(after.counter("engine.cache.normalized.hit") > 0);
        assert!(after.counter("engine.cache.normalized.miss") > 0);
    }

    #[test]
    fn report_table_renders_every_stage() {
        let data = structured_data();
        let engine = CoplotEngine::default();
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
        let engine = CoplotEngine::builder().restarts(3).build();
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
