//! Batch descriptive statistics.

/// Arithmetic mean. Returns `f64::NAN` for empty input.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance (denominator `n - 1`).
/// Returns `f64::NAN` for fewer than two points.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return f64::NAN;
    }
    let m = mean(data);
    data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Raw k-th moment `E[X^k]`.
pub fn raw_moment(data: &[f64], k: u32) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().map(|v| v.powi(k as i32)).sum::<f64>() / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&d) - 5.0).abs() < 1e-12);
        // Sample variance of this classic set is 32/7.
        assert!((variance(&d) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(std_dev(&[]).is_nan());
    }

    #[test]
    fn raw_moments() {
        let d = [1.0, 2.0, 3.0];
        assert!((raw_moment(&d, 1) - 2.0).abs() < 1e-12);
        assert!((raw_moment(&d, 2) - 14.0 / 3.0).abs() < 1e-12);
        assert!((raw_moment(&d, 3) - 12.0).abs() < 1e-12);
    }
}
