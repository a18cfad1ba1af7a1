//! The closed-form 2x2 linear solve behind the Co-plot arrow fit.

/// Solve the 2x2 system `[[a,b],[c,d]] x = rhs` in closed form.
///
/// Returns `None` when the determinant is (numerically) zero. This is the
/// kernel behind the closed-form Co-plot arrow fit, where the matrix is the
/// 2x2 covariance of the MDS coordinates.
pub fn solve2(a: f64, b: f64, c: f64, d: f64, rhs: [f64; 2]) -> Option<[f64; 2]> {
    let det = a * d - b * c;
    let scale = a.abs().max(b.abs()).max(c.abs()).max(d.abs());
    if det.abs() <= 1e-14 * scale.max(1e-300) * scale.max(1e-300) {
        return None;
    }
    Some([
        (d * rhs[0] - b * rhs[1]) / det,
        (a * rhs[1] - c * rhs[0]) / det,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve2_known_system() {
        // x + 2y = 5 ; 3x + 4y = 11  =>  x=1, y=2
        let s = solve2(1.0, 2.0, 3.0, 4.0, [5.0, 11.0]).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve2_singular_returns_none() {
        assert!(solve2(1.0, 2.0, 2.0, 4.0, [1.0, 2.0]).is_none());
        assert!(solve2(0.0, 0.0, 0.0, 0.0, [0.0, 0.0]).is_none());
    }
}
