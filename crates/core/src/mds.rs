//! Stage 3: nonmetric multidimensional scaling.
//!
//! The paper uses Guttman's Smallest Space Analysis (SSA) in two dimensions.
//! The modern formulation implemented here produces the same kind of
//! solution — a planar configuration whose inter-point distances preserve
//! the *order* of the input dissimilarities, scored by Guttman's coefficient
//! of alienation. The embedding is always two-dimensional, because the
//! arrows of stage 4 live in the plane.
//!
//! The optimizer combines three standard ingredients:
//!
//! * **Classical (Torgerson) scaling** of the squared dissimilarities as the
//!   initial configuration — double-center, eigendecompose, take the top
//!   eigenpairs;
//! * **Monotone regression** (Kruskal's primary approach to ties) of the
//!   current map distances against the dissimilarity order, producing
//!   *disparities* — the best order-preserving targets for the distances;
//! * **Majorization** (the Guttman transform / SMACOF update) to move the
//!   configuration toward the disparities, which monotonically decreases
//!   raw stress.
//!
//! Several random restarts guard against local minima; the returned solution
//! is the one with the smallest coefficient of alienation. Output
//! configurations are centered on the origin with unit RMS radius (MDS
//! solutions are only defined up to similarity transforms anyway).
//!
//! # Determinism and parallel restarts
//!
//! Each restart draws its initial configuration from its **own** ChaCha
//! generator, seeded by [`restart_seed`] from the base seed and the restart
//! index. Restarts therefore do not share RNG state, so they can run on the
//! workspace pool ([`wl_par::par_map_indexed`], [`MdsConfig::threads`] > 1)
//! and still produce results bit-identical to the sequential path: the
//! winning solution only depends on (seed, restart index), never on
//! scheduling order.

use crate::alienation::coefficient_of_alienation;
use crate::dissimilarity::DissimilarityMatrix;
use crate::error::CoplotError;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use wl_linalg::{double_center, jacobi_eigen, Matrix};
use wl_stats::isotonic::Pava;
use wl_stats::rng::derive_seed;

/// Tuning knobs for the MDS optimizer. Every run tries all
/// `restarts + 1` starts and keeps the best.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdsConfig {
    /// Majorization iterations per start.
    pub max_iterations: usize,
    /// Stop when the relative stress improvement falls below this.
    pub tolerance: f64,
    /// Random restarts in addition to the classical-scaling start.
    pub restarts: usize,
    /// RNG seed for the restarts.
    pub seed: u64,
    /// Worker threads for the restarts (1 = run them sequentially on the
    /// calling thread). Results are bit-identical for any thread count.
    pub threads: usize,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            max_iterations: 300,
            tolerance: 1e-9,
            restarts: 8,
            seed: 0x5EED,
            threads: 1,
        }
    }
}

/// A converged configuration.
#[derive(Debug, Clone)]
pub struct MdsSolution {
    /// `n x 2` coordinates, centered with unit RMS radius.
    pub coords: Matrix,
    /// Guttman's coefficient of alienation against the input
    /// dissimilarities (lower is better; < 0.15 is "good").
    pub alienation: f64,
    /// Kruskal stress-1 at convergence (diagnostic only).
    pub stress: f64,
    /// Total majorization iterations spent across all starts.
    pub iterations: usize,
    /// Coefficient of alienation achieved by each start, in start order
    /// (index 0 is the classical-scaling start). Collapsed configurations
    /// score infinity.
    pub theta_per_restart: Vec<f64>,
    /// Wall time spent inside the majorization descent (monotone regression
    /// + Guttman transforms), summed across all starts.
    pub majorization_time: Duration,
    /// Wall time spent scoring configurations with the Θ kernel (map
    /// distances + coefficient of alienation), summed across all starts.
    pub theta_time: Duration,
}

/// The seed for one restart's private generator.
///
/// Both the sequential and the parallel restart paths derive per-restart
/// seeds through this single helper (SplitMix64 finalizer via
/// [`wl_stats::rng::derive_seed`]), which is what makes them bit-identical:
/// a restart's initial configuration depends only on `(base, restart)`.
pub fn restart_seed(base: u64, restart: usize) -> u64 {
    derive_seed(base, restart as u64)
}

/// What one start produced, before the best-of selection.
struct StartOutcome {
    coords: Matrix,
    stress: f64,
    iterations: usize,
    theta: f64,
    majorization_time: Duration,
    theta_time: Duration,
}

/// Run nonmetric MDS on a dissimilarity matrix.
///
/// # Errors
/// Returns [`CoplotError::TooFewObservations`] for fewer than 3
/// observations, [`CoplotError::NonFinite`] when a dissimilarity is NaN or
/// infinite, and propagates kernel errors from the classical-scaling start.
pub fn nonmetric_mds(
    diss: &DissimilarityMatrix,
    config: &MdsConfig,
) -> Result<MdsSolution, CoplotError> {
    let pair_idx = pair_index(diss)?;
    let deltas = diss.pairs();

    let n_starts = config.restarts + 1;
    let _span = wl_obs::span!("mds.restarts");
    wl_obs::counter!("mds.starts", n_starts as u64);
    // Each start's result is a pure function of (seed, start index), so the
    // pool's determinism contract applies and any thread count reproduces
    // the sequential path bit for bit.
    let outcomes = wl_par::par_map_indexed(config.threads, n_starts, |i| {
        initial_config(i, diss, config).map(|init| run_start(init, deltas, &pair_idx, config))
    });

    // Select the best start exactly as the sequential loop would: walk in
    // start order, keep a strictly better theta (ties keep the earliest).
    let mut best: Option<StartOutcome> = None;
    let mut total_iters = 0;
    let mut majorization_time = Duration::ZERO;
    let mut theta_time = Duration::ZERO;
    let mut theta_per_restart = Vec::with_capacity(n_starts);
    for outcome in outcomes {
        let outcome = outcome?;
        total_iters += outcome.iterations;
        majorization_time += outcome.majorization_time;
        theta_time += outcome.theta_time;
        theta_per_restart.push(outcome.theta);
        let better = match &best {
            None => true,
            Some(b) => outcome.theta < b.theta,
        };
        if better {
            best = Some(outcome);
        }
    }

    let best = best.expect("at least one start runs");
    let mut coords = best.coords;
    normalize_config(&mut coords);
    Ok(MdsSolution {
        coords,
        alienation: best.theta,
        stress: best.stress,
        iterations: total_iters,
        theta_per_restart,
        majorization_time,
        theta_time,
    })
}

/// Run nonmetric MDS refinement from a caller-supplied initial
/// configuration (a **warm start**).
///
/// Unlike [`nonmetric_mds`], this runs a *single* start from `init` — no
/// classical-scaling start, no random restarts, no RNG at all — on the
/// calling thread, so it is thread-invariant by construction and typically
/// converges in a small fraction of the iterations a cold multi-start run
/// spends. The streaming window driver uses it with the previous window's
/// aligned embedding as `init`; callers are expected to compare the
/// returned alienation against their previous frame and fall back to a
/// cold [`nonmetric_mds`] run when the warm solution regresses (the init
/// may sit in the wrong basin after a drift event).
///
/// The output is normalized exactly like [`nonmetric_mds`] (centered, unit
/// RMS radius) and a collapsed configuration scores `alienation = +inf` so
/// the caller's regression check rejects it.
///
/// # Errors
/// Same input validation as [`nonmetric_mds`], plus
/// [`CoplotError::DimensionMismatch`] when `init` is not `n x 2` and
/// [`CoplotError::NonFinite`] when `init` contains NaN or infinite
/// coordinates.
pub fn nonmetric_mds_warm(
    diss: &DissimilarityMatrix,
    config: &MdsConfig,
    init: &Matrix,
) -> Result<MdsSolution, CoplotError> {
    let pair_idx = pair_index(diss)?;
    let n = diss.n();
    if init.rows() != n {
        return Err(CoplotError::DimensionMismatch {
            context: "nonmetric_mds_warm: init rows must match observations".into(),
            expected: n,
            got: init.rows(),
        });
    }
    if init.cols() != 2 {
        return Err(CoplotError::DimensionMismatch {
            context: "nonmetric_mds_warm: init must be planar".into(),
            expected: 2,
            got: init.cols(),
        });
    }
    if init.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(CoplotError::NonFinite(
            "warm-start configuration contains NaN or infinite coordinates".into(),
        ));
    }

    let _span = wl_obs::span!("mds.warm_start");
    wl_obs::counter!("mds.warm_starts", 1u64);
    let start = run_start(init.clone(), diss.pairs(), &pair_idx, config);
    let mut coords = start.coords;
    normalize_config(&mut coords);
    Ok(MdsSolution {
        coords,
        alienation: start.theta,
        stress: start.stress,
        iterations: start.iterations,
        theta_per_restart: vec![start.theta],
        majorization_time: start.majorization_time,
        theta_time: start.theta_time,
    })
}

/// Check the dissimilarities both entry points accept (at least 3
/// observations, every entry finite) and build the pair index table every
/// start works from: pair p connects observations `pair_idx[p] = (i, k)`.
fn pair_index(diss: &DissimilarityMatrix) -> Result<Vec<(usize, usize)>, CoplotError> {
    let n = diss.n();
    if n < 3 {
        return Err(CoplotError::TooFewObservations { n, min: 3 });
    }
    if diss.pairs().iter().any(|d| !d.is_finite()) {
        return Err(CoplotError::NonFinite(
            "dissimilarity matrix contains NaN or infinite entries".into(),
        ));
    }
    Ok((0..n)
        .flat_map(|i| ((i + 1)..n).map(move |k| (i, k)))
        .collect())
}

/// The initial configuration of one cold start: classical scaling for
/// start 0, a configuration drawn from the start's own seeded generator
/// otherwise.
fn initial_config(
    start: usize,
    diss: &DissimilarityMatrix,
    config: &MdsConfig,
) -> Result<Matrix, CoplotError> {
    if start == 0 {
        return classical_init(diss);
    }
    let mut rng = ChaCha12Rng::seed_from_u64(restart_seed(config.seed, start));
    let mut m = Matrix::zeros(diss.n(), 2);
    for i in 0..diss.n() {
        for c in 0..2 {
            m[(i, c)] = rng.gen_range(-1.0..1.0);
        }
    }
    Ok(m)
}

/// Run one start from its initial configuration through the refinement
/// loop, score it, and record it in the `mds.*` metrics.
fn run_start(
    mut coords: Matrix,
    deltas: &[f64],
    pair_idx: &[(usize, usize)],
    config: &MdsConfig,
) -> StartOutcome {
    let n = coords.rows();
    let major_started = Instant::now();
    let (stress, iterations) = refine(&mut coords, deltas, pair_idx, n, config);
    let majorization_time = major_started.elapsed();

    let theta_started = Instant::now();
    let dists = pair_distances(&coords, pair_idx);
    // A collapsed configuration (all points coincident) has all-equal
    // distances, which scores a vacuous theta of zero; never prefer it
    // over a spread-out solution.
    let spread = dists.iter().cloned().fold(0.0, f64::max);
    let max_delta = deltas.iter().cloned().fold(0.0, f64::max);
    let collapsed = spread <= 1e-9 && max_delta > 0.0;
    let theta = if collapsed {
        f64::INFINITY
    } else {
        coefficient_of_alienation(deltas, &dists)
    };
    let theta_time = theta_started.elapsed();

    wl_obs::hist_record!("mds.iterations_per_start", iterations as u64);
    if collapsed {
        wl_obs::counter!("mds.collapsed_starts", 1u64);
    }
    if iterations >= config.max_iterations {
        wl_obs::counter!("mds.unconverged_starts", 1u64);
    }
    StartOutcome {
        coords,
        stress,
        iterations,
        theta,
        majorization_time,
        theta_time,
    }
}

/// Classical (Torgerson) scaling of the dissimilarities into the plane: the
/// top two eigenpairs of the double-centered squared dissimilarities.
fn classical_init(diss: &DissimilarityMatrix) -> Result<Matrix, CoplotError> {
    let n = diss.n();
    let mut d2 = Matrix::zeros(n, n);
    for i in 0..n {
        for k in 0..n {
            let d = diss.get(i, k);
            d2[(i, k)] = d * d;
        }
    }
    let b = double_center(&d2)?;
    let eig = jacobi_eigen(&b, 1e-12, 100)?;
    let mut coords = Matrix::zeros(n, 2);
    for j in 0..2 {
        let scale = eig.values[j].max(0.0).sqrt();
        for i in 0..n {
            coords[(i, j)] = eig.vectors[(i, j)] * scale;
        }
    }
    Ok(coords)
}

/// Ratio-matrix rows one gather step of the Guttman transform accumulates
/// side by side, in independent chains.
const GATHER_ROWS: usize = 4;

/// Alternate monotone regression and Guttman-transform updates until the
/// stress stops improving. Returns (final stress-1, iterations used).
///
/// Every accumulator sees the same float operations, in the same order, as
/// the textbook pair-order loop (kept as the `refine_oracle` test oracle),
/// so the refined configuration, stress and iteration count are
/// bit-identical to it; DESIGN §3 *Kernel model* gives the argument. No
/// buffer is allocated inside the loop. The per-iteration sort is
/// incremental: pairs are sorted by dissimilarity once up front, and only
/// ties (groups with equal delta) need re-ranking by the fresh distances
/// each iteration.
fn refine(
    coords: &mut Matrix,
    deltas: &[f64],
    pair_idx: &[(usize, usize)],
    n: usize,
    config: &MdsConfig,
) -> (f64, usize) {
    let p = deltas.len();
    let mut last_stress = f64::INFINITY;
    let mut iters = 0;

    // Kruskal's primary approach orders pairs by (delta, distance) so tied
    // dissimilarities don't constrain each other. The delta component never
    // changes across iterations: sort by it once (stably, so tied deltas
    // stay index-ascending) and remember the tie groups. Re-sorting a
    // group by (distance, index) each iteration reproduces the full stable
    // (delta, distance) sort exactly; distinct deltas cost nothing.
    // Deltas are validated finite at the entry point and distances of a
    // finite configuration are finite, so the comparisons are total.
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| {
        deltas[a]
            .partial_cmp(&deltas[b])
            .expect("finite dissimilarities")
    });
    let mut tie_groups: Vec<(usize, usize)> = Vec::new();
    let mut g0 = 0;
    while g0 < p {
        let mut g1 = g0 + 1;
        while g1 < p && deltas[order[g1]] == deltas[order[g0]] {
            g1 += 1;
        }
        if g1 - g0 > 1 {
            tie_groups.push((g0, g1));
        }
        g0 = g1;
    }

    let mut dists = Vec::with_capacity(p);
    let mut disparities = vec![0.0; p];
    let mut pava = Pava::default();
    // The symmetric n x n matrix of dhat/d ratios, row-major, plus zero
    // rows up to a whole number of gather steps. Only off-diagonal cells
    // are ever written, so the diagonal and the padding stay +0.0.
    let padded = n.next_multiple_of(GATHER_ROWS);
    let mut ratio = vec![0.0; padded * n];
    let mut updated = Matrix::zeros(n, 2);

    for it in 0..config.max_iterations {
        iters = it + 1;
        pair_distances_into(coords, pair_idx, &mut dists);

        for &(g0, g1) in &tie_groups {
            order[g0..g1].sort_unstable_by(|&a, &b| {
                dists[a]
                    .partial_cmp(&dists[b])
                    .expect("finite distances")
                    .then(a.cmp(&b))
            });
        }
        // Monotone regression of the distances in (delta, distance) order,
        // each pooled block written straight back to its pairs.
        let mut pos = 0;
        for block in pava.fit(order.iter().map(|&i| (dists[i], 1.0))) {
            for &i in &order[pos..pos + block.count] {
                disparities[i] = block.mean;
            }
            pos += block.count;
        }

        // Stress-1 for convergence monitoring: both sums in one pass, each
        // a left fold in pair order.
        let mut num = 0.0;
        let mut den = 0.0;
        for (&d, &dh) in dists.iter().zip(&disparities) {
            num += (d - dh) * (d - dh);
            den += d * d;
        }
        let stress = if den > 0.0 { (num / den).sqrt() } else { 0.0 };

        if last_stress.is_finite() && (last_stress - stress).abs() <= config.tolerance {
            last_stress = stress;
            break;
        }
        last_stress = stress;

        // Guttman transform: X <- (1/n) B(X) X where B has off-diagonal
        // entries b_ik = -dhat_ik / d_ik and diagonal b_ii = sum_k dhat/d.
        // Fill the ratio matrix once, then gather each row j's sum_k r_jk
        // and sum_k r_jk * x_kc over ascending k from +0.0: the order in
        // which a pair-order scatter adds them. The diagonal term adds an
        // exact zero (DESIGN §3).
        for (&(i, k), (&d, &dh)) in pair_idx.iter().zip(dists.iter().zip(&disparities)) {
            let r = if d > 1e-12 { dh / d } else { 0.0 };
            ratio[i * n + k] = r;
            ratio[k * n + i] = r;
        }
        let xs = coords.as_slice();
        let out = updated.as_mut_slice();
        for (step, rows) in ratio.chunks_exact(GATHER_ROWS * n).enumerate() {
            let j0 = step * GATHER_ROWS;
            // Both coordinate columns in one pass over the points.
            let mut row_sum = [0.0; GATHER_ROWS];
            let mut cross0 = [0.0; GATHER_ROWS];
            let mut cross1 = [0.0; GATHER_ROWS];
            for (k, x) in xs.chunks_exact(2).enumerate() {
                for l in 0..GATHER_ROWS {
                    let r = rows[l * n + k];
                    row_sum[l] += r;
                    cross0[l] += r * x[0];
                    cross1[l] += r * x[1];
                }
            }
            for l in 0..GATHER_ROWS.min(n - j0) {
                let j = (j0 + l) * 2;
                out[j] = (row_sum[l] * xs[j] - cross0[l]) / n as f64;
                out[j + 1] = (row_sum[l] * xs[j + 1] - cross1[l]) / n as f64;
            }
        }
        // `updated` is fully overwritten next iteration, so the old coords
        // it now holds are just scratch.
        std::mem::swap(coords, &mut updated);
    }
    (last_stress, iters)
}

/// Euclidean distances for every pair in `pair_idx` order.
fn pair_distances(coords: &Matrix, pair_idx: &[(usize, usize)]) -> Vec<f64> {
    let mut dists = Vec::with_capacity(pair_idx.len());
    pair_distances_into(coords, pair_idx, &mut dists);
    dists
}

/// [`pair_distances`] of a planar configuration into a reused buffer, four
/// pairs per step with independent chains; `0.0 + x == x` for the
/// non-negative squares, so each distance is bit-identical to a per-pair
/// loop over the two columns.
fn pair_distances_into(coords: &Matrix, pair_idx: &[(usize, usize)], out: &mut Vec<f64>) {
    out.clear();
    let xs = coords.as_slice();
    let mut chunks = pair_idx.chunks_exact(4);
    for quad in &mut chunks {
        let mut block = [0.0f64; 4];
        for (b, &(i, k)) in block.iter_mut().zip(quad) {
            let dx = xs[2 * i] - xs[2 * k];
            let dy = xs[2 * i + 1] - xs[2 * k + 1];
            *b = (dx * dx + dy * dy).sqrt();
        }
        out.extend_from_slice(&block);
    }
    for &(i, k) in chunks.remainder() {
        let dx = xs[2 * i] - xs[2 * k];
        let dy = xs[2 * i + 1] - xs[2 * k + 1];
        out.push((dx * dx + dy * dy).sqrt());
    }
}

/// Center at the origin and scale to unit RMS radius.
fn normalize_config(coords: &mut Matrix) {
    let n = coords.rows();
    let dims = coords.cols();
    if n == 0 {
        return;
    }
    for c in 0..dims {
        let mean: f64 = (0..n).map(|i| coords[(i, c)]).sum::<f64>() / n as f64;
        for i in 0..n {
            coords[(i, c)] -= mean;
        }
    }
    let mut r2 = 0.0;
    for i in 0..n {
        for c in 0..dims {
            r2 += coords[(i, c)].powi(2);
        }
    }
    let rms = (r2 / n as f64).sqrt();
    if rms > 0.0 {
        for i in 0..n {
            for c in 0..dims {
                coords[(i, c)] /= rms;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_linalg::procrustes_align;
    use wl_stats::isotonic::isotonic_regression;

    /// Dissimilarity matrix of a planted 2-D configuration (Euclidean).
    fn planted(points: &[(f64, f64)]) -> DissimilarityMatrix {
        let n = points.len();
        let mut full = vec![vec![0.0; n]; n];
        for i in 0..n {
            for k in 0..n {
                let dx = points[i].0 - points[k].0;
                let dy = points[i].1 - points[k].1;
                full[i][k] = (dx * dx + dy * dy).sqrt();
            }
        }
        DissimilarityMatrix::from_full(&full).unwrap()
    }

    #[test]
    fn recovers_planted_configuration() {
        let pts = [
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.3),
            (0.5, 1.5),
            (1.7, 1.2),
            (0.1, 2.4),
        ];
        let diss = planted(&pts);
        let sol = nonmetric_mds(&diss, &MdsConfig::default()).unwrap();
        assert!(
            sol.alienation < 0.02,
            "planted config should embed nearly perfectly, theta = {}",
            sol.alienation
        );
        // Procrustes-align to the truth: residual should be tiny.
        let truth = Matrix::from_rows(
            &pts.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
        let fit = procrustes_align(&truth, &sol.coords);
        // Truth coordinates are O(1), so rmsd below 0.15 means shapes match.
        assert!(fit.rmsd < 0.15, "rmsd = {}", fit.rmsd);
    }

    #[test]
    fn output_is_normalized() {
        let pts = [(0.0, 0.0), (5.0, 0.0), (0.0, 7.0), (4.0, 4.0)];
        let sol = nonmetric_mds(&planted(&pts), &MdsConfig::default()).unwrap();
        let n = sol.coords.rows();
        let (mut cx, mut cy, mut r2) = (0.0, 0.0, 0.0);
        for i in 0..n {
            cx += sol.coords[(i, 0)];
            cy += sol.coords[(i, 1)];
            r2 += sol.coords[(i, 0)].powi(2) + sol.coords[(i, 1)].powi(2);
        }
        assert!(cx.abs() < 1e-9 && cy.abs() < 1e-9, "centered");
        assert!((r2 / n as f64 - 1.0).abs() < 1e-9, "unit RMS radius");
    }

    #[test]
    fn monotone_transform_of_distances_still_perfect() {
        // Nonmetric MDS should be invariant to monotone distortion of the
        // dissimilarities.
        let pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.2, 1.1), (2.0, 0.5)];
        let n = pts.len();
        let base = planted(&pts);
        let mut warped = vec![vec![0.0; n]; n];
        for (i, row) in warped.iter_mut().enumerate() {
            for (k, cell) in row.iter_mut().enumerate() {
                let d = base.get(i, k);
                *cell = d * d * d + d; // strictly monotone
            }
        }
        let sol = nonmetric_mds(
            &DissimilarityMatrix::from_full(&warped).unwrap(),
            &MdsConfig::default(),
        )
        .unwrap();
        assert!(sol.alienation < 0.05, "theta = {}", sol.alienation);
    }

    #[test]
    fn equilateral_triangle() {
        let full = vec![
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ];
        let sol = nonmetric_mds(
            &DissimilarityMatrix::from_full(&full).unwrap(),
            &MdsConfig::default(),
        )
        .unwrap();
        // All pairwise map distances equal.
        let d01 = dist(&sol.coords, 0, 1);
        let d02 = dist(&sol.coords, 0, 2);
        let d12 = dist(&sol.coords, 1, 2);
        assert!((d01 - d02).abs() < 1e-6 && (d02 - d12).abs() < 1e-6);
        assert!(sol.alienation < 1e-6);
    }

    #[test]
    fn four_dim_structure_cannot_fully_embed() {
        // Simplex of 5 equidistant points needs 4 dimensions; in 2-D some
        // alienation remains... but weak monotonicity tolerates ties, so
        // theta stays small. Check it at least runs and stays bounded.
        let n = 5;
        let mut full = vec![vec![1.0; n]; n];
        for (i, row) in full.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        let sol = nonmetric_mds(
            &DissimilarityMatrix::from_full(&full).unwrap(),
            &MdsConfig::default(),
        )
        .unwrap();
        assert!((0.0..=1.0).contains(&sol.alienation));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let diss = planted(&pts);
        let a = nonmetric_mds(&diss, &MdsConfig::default()).unwrap();
        let b = nonmetric_mds(&diss, &MdsConfig::default()).unwrap();
        assert_eq!(a.coords.as_slice(), b.coords.as_slice());
        assert_eq!(a.alienation, b.alienation);
    }

    #[test]
    fn too_few_observations_is_an_error() {
        let full = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let err = nonmetric_mds(
            &DissimilarityMatrix::from_full(&full).unwrap(),
            &MdsConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CoplotError::TooFewObservations { n: 2, min: 3 });
    }

    #[test]
    fn nan_dissimilarity_is_an_error() {
        let pts = [(0.0f64, 0.0f64), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let mut full = vec![vec![0.0; 4]; 4];
        for i in 0..4 {
            for k in 0..4 {
                let dx = pts[i].0 - pts[k].0;
                let dy = pts[i].1 - pts[k].1;
                full[i][k] = (dx * dx + dy * dy).sqrt();
            }
        }
        let mut diss = DissimilarityMatrix::from_full(&full).unwrap();
        diss.poison_for_tests(0, f64::NAN);
        let err = nonmetric_mds(&diss, &MdsConfig::default()).unwrap_err();
        assert!(matches!(err, CoplotError::NonFinite(_)), "{err}");
    }

    #[test]
    fn parallel_restarts_bit_identical_to_sequential() {
        // The regression test for the parallel path: any thread count must
        // reproduce the sequential result bit for bit, for any restart
        // count (0 = classical start only, 1 = one random start, 8 =
        // default-sized pool).
        let pts = [
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.3),
            (0.5, 1.5),
            (1.7, 1.2),
            (0.1, 2.4),
        ];
        let diss = planted(&pts);
        for restarts in [0usize, 1, 8] {
            let seq = nonmetric_mds(
                &diss,
                &MdsConfig { restarts, threads: 1, ..Default::default() },
            )
            .unwrap();
            for threads in [2usize, 4, 8] {
                let par = nonmetric_mds(
                    &diss,
                    &MdsConfig { restarts, threads, ..Default::default() },
                )
                .unwrap();
                assert_eq!(
                    seq.coords.as_slice(),
                    par.coords.as_slice(),
                    "restarts {restarts}, threads {threads}"
                );
                assert_eq!(seq.alienation.to_bits(), par.alienation.to_bits());
                assert_eq!(seq.stress.to_bits(), par.stress.to_bits());
                assert_eq!(seq.theta_per_restart, par.theta_per_restart);
                assert_eq!(seq.iterations, par.iterations);
            }
        }
    }

    #[test]
    fn theta_per_restart_has_one_entry_per_start() {
        let pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let sol = nonmetric_mds(
            &planted(&pts),
            &MdsConfig { restarts: 5, ..Default::default() },
        )
        .unwrap();
        assert_eq!(sol.theta_per_restart.len(), 6);
        // The winner is the minimum of the per-start thetas.
        let min = sol
            .theta_per_restart
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, sol.alienation);
    }

    #[test]
    fn restart_seeds_are_distinct_and_stable() {
        // Shared helper between the sequential and parallel paths: stable
        // in (base, index) and collision-free across a realistic pool.
        let seeds: Vec<u64> = (0..64).map(|i| restart_seed(0x5EED, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        assert_eq!(restart_seed(7, 3), restart_seed(7, 3));
        assert_ne!(restart_seed(7, 3), restart_seed(8, 3));
    }

    #[test]
    fn warm_start_from_converged_solution_is_cheap_and_good() {
        let pts = [
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.3),
            (0.5, 1.5),
            (1.7, 1.2),
            (0.1, 2.4),
        ];
        let diss = planted(&pts);
        let config = MdsConfig::default();
        let cold = nonmetric_mds(&diss, &config).unwrap();
        let warm = nonmetric_mds_warm(&diss, &config, &cold.coords).unwrap();
        // Restarting from the converged config must not lose quality and
        // must spend far fewer iterations than the multi-start run.
        assert!(warm.alienation <= cold.alienation + 1e-9);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert_eq!(warm.theta_per_restart.len(), 1);
    }

    #[test]
    fn warm_start_is_deterministic() {
        let pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let diss = planted(&pts);
        let config = MdsConfig::default();
        let init = nonmetric_mds(&diss, &config).unwrap().coords;
        let a = nonmetric_mds_warm(&diss, &config, &init).unwrap();
        let b = nonmetric_mds_warm(&diss, &config, &init).unwrap();
        assert_eq!(a.coords.as_slice(), b.coords.as_slice());
        assert_eq!(a.alienation.to_bits(), b.alienation.to_bits());
        // Thread count lives in MdsConfig but the warm path never fans out;
        // any value must reproduce the same bits.
        let c = nonmetric_mds_warm(&diss, &MdsConfig { threads: 8, ..config }, &init).unwrap();
        assert_eq!(a.coords.as_slice(), c.coords.as_slice());
    }

    #[test]
    fn warm_start_output_is_normalized() {
        let pts = [(0.0, 0.0), (5.0, 0.0), (0.0, 7.0), (4.0, 4.0)];
        let diss = planted(&pts);
        let init = nonmetric_mds(&diss, &MdsConfig::default()).unwrap().coords;
        let sol = nonmetric_mds_warm(&diss, &MdsConfig::default(), &init).unwrap();
        let n = sol.coords.rows();
        let (mut cx, mut cy, mut r2) = (0.0, 0.0, 0.0);
        for i in 0..n {
            cx += sol.coords[(i, 0)];
            cy += sol.coords[(i, 1)];
            r2 += sol.coords[(i, 0)].powi(2) + sol.coords[(i, 1)].powi(2);
        }
        assert!(cx.abs() < 1e-9 && cy.abs() < 1e-9);
        assert!((r2 / n as f64 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_rejects_bad_init() {
        let pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let diss = planted(&pts);
        let config = MdsConfig::default();
        // Wrong row count.
        let err = nonmetric_mds_warm(&diss, &config, &Matrix::zeros(3, 2)).unwrap_err();
        assert!(matches!(err, CoplotError::DimensionMismatch { got: 3, .. }), "{err}");
        // Wrong column count.
        let err = nonmetric_mds_warm(&diss, &config, &Matrix::zeros(4, 3)).unwrap_err();
        assert!(matches!(err, CoplotError::DimensionMismatch { got: 3, .. }), "{err}");
        // Non-finite coordinates.
        let mut init = Matrix::zeros(4, 2);
        init[(1, 0)] = f64::NAN;
        let err = nonmetric_mds_warm(&diss, &config, &init).unwrap_err();
        assert!(matches!(err, CoplotError::NonFinite(_)), "{err}");
    }

    #[test]
    fn warm_start_from_collapsed_init_reports_infinite_theta() {
        // An all-zeros init stays collapsed under the Guttman transform
        // (every pair distance is 0, every ratio is 0), so the warm path
        // must flag it rather than report a vacuous perfect fit.
        let pts = [(0.0, 0.0), (1.0, 0.2), (0.3, 1.0), (1.5, 1.5)];
        let diss = planted(&pts);
        let sol = nonmetric_mds_warm(&diss, &MdsConfig::default(), &Matrix::zeros(4, 2)).unwrap();
        assert!(sol.alienation.is_infinite());
    }

    /// The pre-gather `refine`, verbatim but for its name: fresh
    /// `isotonic_regression` vectors every iteration and a pair-order
    /// scatter. The shipped kernel must reproduce it bit for bit.
    fn refine_oracle(
        coords: &mut Matrix,
        deltas: &[f64],
        pair_idx: &[(usize, usize)],
        n: usize,
        config: &MdsConfig,
    ) -> (f64, usize) {
        let dims = coords.cols();
        let p = deltas.len();
        let mut last_stress = f64::INFINITY;
        let mut iters = 0;

        // Kruskal's primary approach orders pairs by (delta, distance) so tied
        // dissimilarities don't constrain each other. The delta component never
        // changes across iterations: sort by it once (stably, so tied deltas
        // stay index-ascending) and remember the tie groups. Re-sorting a
        // group by (distance, index) each iteration reproduces the full stable
        // (delta, distance) sort exactly; distinct deltas cost nothing.
        // Deltas are validated finite at the entry point and distances of a
        // finite configuration are finite, so the comparisons are total.
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            deltas[a]
                .partial_cmp(&deltas[b])
                .expect("finite dissimilarities")
        });
        let mut tie_groups: Vec<(usize, usize)> = Vec::new();
        let mut g0 = 0;
        while g0 < p {
            let mut g1 = g0 + 1;
            while g1 < p && deltas[order[g1]] == deltas[order[g0]] {
                g1 += 1;
            }
            if g1 - g0 > 1 {
                tie_groups.push((g0, g1));
            }
            g0 = g1;
        }

        let mut dists = Vec::with_capacity(p);
        let mut sorted_d = vec![0.0; p];
        let mut disparities = vec![0.0; p];
        let mut ratios = vec![0.0; p];
        let mut row_ratio_sum = vec![0.0; n];
        let mut cross = Matrix::zeros(n, dims);
        let mut updated = Matrix::zeros(n, dims);

        for it in 0..config.max_iterations {
            iters = it + 1;
            pair_distances_into(coords, pair_idx, &mut dists);

            for &(g0, g1) in &tie_groups {
                order[g0..g1].sort_unstable_by(|&a, &b| {
                    dists[a]
                        .partial_cmp(&dists[b])
                        .expect("finite distances")
                        .then(a.cmp(&b))
                });
            }
            for (pos, &i) in order.iter().enumerate() {
                sorted_d[pos] = dists[i];
            }
            let fitted = isotonic_regression(&sorted_d, None);
            for (pos, &i) in order.iter().enumerate() {
                disparities[i] = fitted[pos];
            }

            // Stress-1 for convergence monitoring.
            let num: f64 = dists
                .iter()
                .zip(&disparities)
                .map(|(d, dh)| (d - dh) * (d - dh))
                .sum();
            let den: f64 = dists.iter().map(|d| d * d).sum();
            let stress = if den > 0.0 { (num / den).sqrt() } else { 0.0 };

            if last_stress.is_finite() && (last_stress - stress).abs() <= config.tolerance {
                last_stress = stress;
                break;
            }
            last_stress = stress;

            // Guttman transform: X <- (1/n) B(X) X where B has off-diagonal
            // entries b_ik = -dhat_ik / d_ik and diagonal b_ii = sum_k dhat/d.
            // The ratios are independent per pair, so compute them in one flat
            // pass before the scatter; then accumulate sum_k ratio_ik (into
            // `row_ratio_sum`) and sum_k ratio_ik * x_k (into `cross`), and
            // apply per row.
            for (r, (&d, &dh)) in ratios.iter_mut().zip(dists.iter().zip(&disparities)) {
                *r = if d > 1e-12 { dh / d } else { 0.0 };
            }
            row_ratio_sum.fill(0.0);
            cross.as_mut_slice().fill(0.0);
            for (pidx, &(i, k)) in pair_idx.iter().enumerate() {
                let ratio = ratios[pidx];
                row_ratio_sum[i] += ratio;
                row_ratio_sum[k] += ratio;
                for c in 0..dims {
                    cross[(i, c)] += ratio * coords[(k, c)];
                    cross[(k, c)] += ratio * coords[(i, c)];
                }
            }
            for i in 0..n {
                for c in 0..dims {
                    updated[(i, c)] =
                        (row_ratio_sum[i] * coords[(i, c)] - cross[(i, c)]) / n as f64;
                }
            }
            // `updated` is fully overwritten next iteration, so the old coords
            // it now holds are just scratch.
            std::mem::swap(coords, &mut updated);
        }
        (last_stress, iters)
    }

    /// A refinement problem for the oracle check: `n` observations,
    /// tie-forcing dissimilarities and an initial planar configuration.
    fn refine_problem(
        n: usize,
        delta_kind: usize,
        init_kind: usize,
        seed: u64,
    ) -> (Vec<f64>, Matrix) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let p = n * (n - 1) / 2;
        let deltas: Vec<f64> = match delta_kind {
            // Continuous: ties only by accident.
            0 => (0..p).map(|_| rng.gen_range(0.0..10.0)).collect(),
            // Small integer pool: long tie groups.
            1 => (0..p).map(|_| f64::from(rng.gen_range(1u8..5))).collect(),
            // Every value duplicated, scattered over the pairs.
            2 => {
                let pool: Vec<f64> = (0..p.div_ceil(2))
                    .map(|_| rng.gen_range(0.5..3.0))
                    .collect();
                (0..p).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
            }
            // All equal: one tie group spanning every pair.
            _ => vec![1.0; p],
        };
        let diss = DissimilarityMatrix::from_pairs(n, deltas.clone());
        let mut random = Matrix::zeros(n, 2);
        for v in random.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let init = match init_kind {
            0 => classical_init(&diss).expect("finite dissimilarities"),
            1 => random,
            // Warm: a converged, normalized solution.
            2 => {
                let config = MdsConfig {
                    restarts: 1,
                    ..Default::default()
                };
                nonmetric_mds(&diss, &config).expect("valid problem").coords
            }
            // Coincident points: zero distances, so zero ratios off the
            // diagonal too.
            3 => {
                for i in 1..n.div_ceil(2) {
                    for c in 0..2 {
                        random[(i, c)] = random[(0, c)];
                    }
                }
                random
            }
            // Signed zeros and repeated coordinates: the diagonal term
            // 0.0 * x is -0.0 wherever x is negative or -0.0.
            _ => {
                let pool = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5];
                for v in random.as_mut_slice() {
                    *v = pool[rng.gen_range(0..pool.len())];
                }
                random
            }
        };
        (deltas, init)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        #[test]
        fn gather_refine_matches_scatter_oracle_bit_for_bit(
            n_idx in 0usize..5,
            delta_kind in 0usize..4,
            init_kind in 0usize..5,
            seed in 0u64..1 << 32,
        ) {
            let n = [3, 4, 10, 15, 31][n_idx];
            let (deltas, init) = refine_problem(n, delta_kind, init_kind, seed);
            let pair_idx: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |k| (i, k)))
                .collect();
            let config = MdsConfig::default();
            let mut fast = init.clone();
            let (stress, iters) = refine(&mut fast, &deltas, &pair_idx, n, &config);
            let mut oracle = init;
            let (oracle_stress, oracle_iters) =
                refine_oracle(&mut oracle, &deltas, &pair_idx, n, &config);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let case = format!("n {n} deltas {delta_kind} init {init_kind} seed {seed}");
            proptest::prop_assert_eq!(bits(&fast), bits(&oracle), "{}", case);
            proptest::prop_assert_eq!(stress.to_bits(), oracle_stress.to_bits(), "{}", case);
            proptest::prop_assert_eq!(iters, oracle_iters, "{}", case);
        }
    }

    fn dist(m: &Matrix, i: usize, k: usize) -> f64 {
        let dx = m[(i, 0)] - m[(k, 0)];
        let dy = m[(i, 1)] - m[(k, 1)];
        (dx * dx + dy * dy).sqrt()
    }
}
