//! Correlation (Pearson, Spearman).

use crate::error::StatsError;
use crate::rank::ranks;

/// Pearson product-moment correlation. `NaN` when either side has zero
/// variance or fewer than two points.
///
/// # Panics
/// Panics if the slices have different lengths; see [`try_pearson`] for the
/// fallible variant.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    try_pearson(x, y).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`pearson`] for callers that must report invalid
/// input instead of panicking.
///
/// # Errors
/// Returns [`StatsError::LengthMismatch`] when the slices have different
/// lengths.
pub fn try_pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            context: "pearson",
            left: x.len(),
            right: y.len(),
        });
    }
    let n = x.len();
    if n < 2 {
        return Ok(f64::NAN);
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Ok(f64::NAN);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson on midranks, so ties are handled
/// exactly).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "spearman length mismatch");
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_orthogonal_pattern() {
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn constant_series_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        // Pearson on the same data is below 1 (nonlinear).
        assert!(pearson(&x, &y) < 1.0);
    }

    #[test]
    fn spearman_with_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }
}
