//! Least-squares line fitting.
//!
//! All three Hurst estimators in the paper's appendix reduce to fitting a
//! straight line to a log-log scatter (pox plot, variance-time plot,
//! periodogram) and reading off the slope. This module provides that fit
//! with its correlation diagnostics.

/// Result of a least-squares line fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Pearson correlation of x and y (sign matches the slope).
    pub r: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

/// Ordinary least squares fit of `y` on `x`.
///
/// Returns `None` when fewer than two points are supplied or when `x` has no
/// variance.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    assert_eq!(x.len(), y.len(), "linear_fit length mismatch");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = if syy == 0.0 {
        // y constant: the line fits exactly; define r as 0 slope correlation.
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    };
    Some(LinearFit {
        slope,
        intercept,
        r,
        r_squared: r * r,
        n,
    })
}

impl LinearFit {
    /// Evaluate the fitted line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 1.0).abs() < 1e-12);
        assert!((f.r - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_interpolates() {
        let f = LinearFit {
            slope: 2.0,
            intercept: 1.0,
            r: 1.0,
            r_squared: 1.0,
            n: 2,
        };
        assert_eq!(f.predict(3.0), 7.0);
    }

    #[test]
    fn noisy_fit_reasonable() {
        // y = 2x + noise with deterministic "noise".
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 2.0).abs() < 0.01);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[3.0, 3.0], &[1.0, 2.0]).is_none());
        assert!(linear_fit(&[], &[]).is_none());
    }

    #[test]
    fn constant_y_fits_flat_line() {
        let f = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert!(f.slope.abs() < 1e-15);
        assert_eq!(f.intercept, 5.0);
    }
}
