//! Stage 4: variable arrows.
//!
//! Each variable `j` is drawn as an arrow from the centroid of the map. The
//! direction is chosen so that the correlation between the variable's values
//! `z_j` and the projections of the observation points onto the arrow is
//! maximal; the achieved maximal correlation is the variable's
//! goodness-of-fit measure (the paper removes variables whose correlation is
//! low and re-runs the analysis).
//!
//! The maximization has a closed form. For centered coordinates `P` (n x 2)
//! and direction `w`, `corr(z, P w)` is maximized over `w` by the ordinary
//! least-squares coefficients of `z` on the two coordinates:
//! `w* ∝ Σ_P^{-1} cov(P, z)`, and the maximum equals the multiple
//! correlation coefficient `R`. (Intuition: projecting onto any direction
//! is a linear predictor of `z` from `P`; the best linear predictor is the
//! OLS fit.) A brute-force angle scan in the tests confirms this.

use crate::error::CoplotError;
use wl_linalg::solve::solve2;
use wl_linalg::Matrix;
use wl_stats::corr::pearson;

/// A fitted variable arrow.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrow {
    /// Variable name.
    pub name: String,
    /// Unit direction vector from the centroid.
    pub direction: [f64; 2],
    /// The maximal correlation achieved (stage-4 goodness of fit).
    pub correlation: f64,
}

impl Arrow {
    /// Angle of the arrow in radians, in `(-pi, pi]`.
    pub fn angle(&self) -> f64 {
        self.direction[1].atan2(self.direction[0])
    }

    /// Cosine of the angle between two arrows — approximately the
    /// correlation between their variables, per the paper.
    pub fn cos_angle_with(&self, other: &Arrow) -> f64 {
        self.direction[0] * other.direction[0] + self.direction[1] * other.direction[1]
    }
}

/// Fit one variable's arrow against a configuration.
///
/// `coords` is the `n x 2` MDS output; `z` is the variable's (normalized)
/// column.
///
/// # Errors
/// [`CoplotError::DimensionMismatch`] when `z.len() != coords.rows()`;
/// [`CoplotError::DegenerateVariable`] when the fit is degenerate: constant
/// variable, collinear configuration with no usable component, or `n < 3`.
pub fn try_fit_arrow(name: &str, coords: &Matrix, z: &[f64]) -> Result<Arrow, CoplotError> {
    if z.len() != coords.rows() {
        return Err(CoplotError::DimensionMismatch {
            context: format!("arrow fit for variable {name:?}"),
            expected: coords.rows(),
            got: z.len(),
        });
    }
    fit_arrow_inner(name, coords, z)
        .ok_or_else(|| CoplotError::DegenerateVariable(name.to_string()))
}

fn fit_arrow_inner(name: &str, coords: &Matrix, z: &[f64]) -> Option<Arrow> {
    let n = z.len();
    if n < 3 {
        return None;
    }
    let nf = n as f64;

    // Centered coordinate columns and variable.
    let mx = (0..n).map(|i| coords[(i, 0)]).sum::<f64>() / nf;
    let my = (0..n).map(|i| coords[(i, 1)]).sum::<f64>() / nf;
    let mz = z.iter().sum::<f64>() / nf;

    let (mut sxx, mut sxy, mut syy, mut sxz, mut syz, mut szz) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for i in 0..n {
        let dx = coords[(i, 0)] - mx;
        let dy = coords[(i, 1)] - my;
        let dz = z[i] - mz;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
        sxz += dx * dz;
        syz += dy * dz;
        szz += dz * dz;
    }
    if szz <= 0.0 {
        return None; // constant variable
    }

    // OLS coefficients of z on (x, y): solve [sxx sxy; sxy syy] w = [sxz syz].
    let w = match solve2(sxx, sxy, sxy, syy, [sxz, syz]) {
        Some(w) => w,
        None => {
            // Degenerate (collinear or collapsed) configuration: project
            // onto the principal axis of the point cloud and regress on
            // that single direction.
            let trace = sxx + syy;
            if trace <= 0.0 {
                return None; // all points coincide
            }
            // Dominant eigenvector of [[sxx, sxy], [sxy, syy]].
            let half_diff = (sxx - syy) / 2.0;
            let lambda = trace / 2.0 + (half_diff * half_diff + sxy * sxy).sqrt();
            let (ex, ey) = if sxy.abs() > 1e-300 {
                (lambda - syy, sxy)
            } else if sxx >= syy {
                (1.0, 0.0)
            } else {
                (0.0, 1.0)
            };
            let enorm = (ex * ex + ey * ey).sqrt();
            if enorm <= 0.0 || enorm.is_nan() {
                return None;
            }
            let (ex, ey) = (ex / enorm, ey / enorm);
            // Covariance of z with the principal projection.
            let cov = ex * sxz + ey * syz;
            if cov == 0.0 {
                return None; // z carries no signal along the only axis
            }
            [cov.signum() * ex, cov.signum() * ey]
        }
    };
    let norm = (w[0] * w[0] + w[1] * w[1]).sqrt();
    if norm <= 0.0 || norm.is_nan() || norm.is_infinite() {
        return None;
    }
    let direction = [w[0] / norm, w[1] / norm];

    // The achieved maximum is the multiple correlation
    // R = sqrt(w . [sxz syz] / szz) -- equivalently the Pearson correlation
    // between z and the projections (computed directly for robustness).
    let proj: Vec<f64> = (0..n)
        .map(|i| coords[(i, 0)] * direction[0] + coords[(i, 1)] * direction[1])
        .collect();
    let correlation = pearson(&proj, z);
    if !correlation.is_finite() {
        return None;
    }

    Some(Arrow {
        name: name.to_string(),
        direction,
        correlation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(points: &[(f64, f64)]) -> Matrix {
        Matrix::from_rows(&points.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>())
    }

    /// Brute-force the best correlation over a fine angle grid.
    fn brute_force_best(coords: &Matrix, z: &[f64]) -> (f64, f64) {
        let n = coords.rows();
        let mut best = (f64::NEG_INFINITY, 0.0);
        for step in 0..3600 {
            let angle = step as f64 * std::f64::consts::PI / 1800.0;
            let (c, s) = (angle.cos(), angle.sin());
            let proj: Vec<f64> = (0..n)
                .map(|i| coords[(i, 0)] * c + coords[(i, 1)] * s)
                .collect();
            let r = pearson(&proj, z);
            if r > best.0 {
                best = (r, angle);
            }
        }
        best
    }

    #[test]
    fn variable_equal_to_x_coordinate_points_along_x() {
        let m = coords(&[(0.0, 0.0), (1.0, 2.0), (2.0, -1.0), (3.0, 1.0)]);
        let z: Vec<f64> = (0..4).map(|i| m[(i, 0)]).collect();
        let a = try_fit_arrow("x", &m, &z).unwrap();
        assert!((a.correlation - 1.0).abs() < 1e-9);
        // Direction must reproduce z ordering exactly: along +x after
        // accounting for the y-structure. Projection correlation is already
        // checked; also confirm the arrow is closer to +x than to +y.
        assert!(a.direction[0].abs() > a.direction[1].abs());
        assert!(a.direction[0] > 0.0);
    }

    #[test]
    fn closed_form_matches_brute_force() {
        let m = coords(&[
            (0.3, -1.2),
            (1.5, 0.4),
            (-0.7, 0.9),
            (2.2, 1.8),
            (-1.1, -0.6),
            (0.8, 2.5),
        ]);
        let z = [0.2, 1.1, -0.5, 2.8, -1.9, 1.7];
        let a = try_fit_arrow("v", &m, &z).unwrap();
        let (best_r, best_angle) = brute_force_best(&m, &z);
        assert!(
            (a.correlation - best_r).abs() < 1e-5,
            "closed form {} vs brute force {}",
            a.correlation,
            best_r
        );
        // Angles agree modulo the grid resolution.
        let diff = (a.angle() - best_angle).rem_euclid(2.0 * std::f64::consts::PI);
        let diff = diff.min(2.0 * std::f64::consts::PI - diff);
        assert!(diff < 0.01, "angle diff {diff}");
    }

    #[test]
    fn anti_correlated_variables_point_oppositely() {
        let m = coords(&[(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 1.4), (1.5, 2.0)]);
        let z: Vec<f64> = (0..5).map(|i| m[(i, 0)] + 0.1 * m[(i, 1)]).collect();
        let zneg: Vec<f64> = z.iter().map(|v| -v).collect();
        let a = try_fit_arrow("z", &m, &z).unwrap();
        let b = try_fit_arrow("-z", &m, &zneg).unwrap();
        assert!(
            (a.cos_angle_with(&b) + 1.0).abs() < 1e-9,
            "cos = {}",
            a.cos_angle_with(&b)
        );
        assert!((a.correlation - b.correlation).abs() < 1e-9);
    }

    #[test]
    fn correlated_variables_small_angle() {
        let m = coords(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (2.5, 2.5)]);
        let z1: Vec<f64> = (0..5).map(|i| m[(i, 0)] + m[(i, 1)]).collect();
        let z2: Vec<f64> = z1.iter().map(|v| 2.0 * v + 0.3).collect();
        let a = try_fit_arrow("a", &m, &z1).unwrap();
        let b = try_fit_arrow("b", &m, &z2).unwrap();
        assert!(a.cos_angle_with(&b) > 0.999);
    }

    #[test]
    fn constant_variable_is_degenerate() {
        let m = coords(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        assert!(matches!(
            try_fit_arrow("c", &m, &[5.0, 5.0, 5.0]).unwrap_err(),
            CoplotError::DegenerateVariable(_)
        ));
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let m = coords(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let err = try_fit_arrow("v", &m, &[1.0, 2.0]).unwrap_err();
        assert!(
            matches!(err, CoplotError::DimensionMismatch { expected: 3, got: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn collinear_configuration_falls_back_to_line() {
        let m = coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let z = [0.0, 1.0, 2.0, 3.0];
        let a = try_fit_arrow("v", &m, &z).unwrap();
        assert!((a.correlation - 1.0).abs() < 1e-9);
        assert!((a.direction[0].abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unit_direction() {
        let m = coords(&[(0.1, 0.9), (1.2, 0.3), (-0.5, 1.8), (2.0, -0.7)]);
        let z = [1.0, 2.0, 0.5, 3.0];
        let a = try_fit_arrow("v", &m, &z).unwrap();
        let norm = (a.direction[0].powi(2) + a.direction[1].powi(2)).sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_variable_has_low_correlation() {
        // z varies orthogonally to any linear structure of the config.
        let m = coords(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let z = [0.0, 1.0, 0.0, 1.0];
        let a = try_fit_arrow("noise", &m, &z).unwrap();
        assert!(a.correlation.abs() < 0.5);
    }
}
