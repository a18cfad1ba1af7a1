//! Double centering for classical (Torgerson) scaling.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Double-center a squared-dissimilarity matrix:
/// `B = -1/2 * J * D2 * J` where `J = I - (1/n) * 11^T`.
///
/// When `D2` holds squared Euclidean distances between points, `B` is the Gram
/// matrix of the centered configuration, whose top eigenpairs give the
/// classical MDS embedding.
///
/// # Errors
/// Returns [`LinalgError::NotSquare`] if `d2` is not square.
pub fn double_center(d2: &Matrix) -> Result<Matrix, LinalgError> {
    if d2.rows() != d2.cols() {
        return Err(LinalgError::NotSquare {
            context: "double_center",
            rows: d2.rows(),
            cols: d2.cols(),
        });
    }
    let n = d2.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let nf = n as f64;

    // Row means, column means, grand mean.
    let mut row_means = vec![0.0; n];
    let mut col_means = vec![0.0; n];
    let mut grand = 0.0;
    for i in 0..n {
        for j in 0..n {
            let v = d2[(i, j)];
            row_means[i] += v;
            col_means[j] += v;
            grand += v;
        }
    }
    for m in &mut row_means {
        *m /= nf;
    }
    for m in &mut col_means {
        *m /= nf;
    }
    grand /= nf * nf;

    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = -0.5 * (d2[(i, j)] - row_means[i] - col_means[j] + grand);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the squared Euclidean distance matrix of a point set.
    fn sq_dist_matrix(points: &[Vec<f64>]) -> Matrix {
        let n = points.len();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                d[(i, j)] = points[i]
                    .iter()
                    .zip(&points[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
            }
        }
        d
    }

    #[test]
    fn centered_gram_matches_inner_products() {
        // Points already centered at origin: B should equal X X^T exactly.
        let pts = vec![vec![1.0, 0.0], vec![-1.0, 0.0], vec![0.0, 2.0], vec![0.0, -2.0]];
        let d2 = sq_dist_matrix(&pts);
        let b = double_center(&d2).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let ip: f64 = pts[i].iter().zip(&pts[j]).map(|(a, b)| a * b).sum();
                assert!(
                    (b[(i, j)] - ip).abs() < 1e-10,
                    "B[{i},{j}] = {} != {}",
                    b[(i, j)],
                    ip
                );
            }
        }
    }

    #[test]
    fn translation_invariance() {
        let pts1 = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let pts2: Vec<Vec<f64>> = pts1
            .iter()
            .map(|p| vec![p[0] + 100.0, p[1] - 42.0])
            .collect();
        let b1 = double_center(&sq_dist_matrix(&pts1)).unwrap();
        let b2 = double_center(&sq_dist_matrix(&pts2)).unwrap();
        assert!(b1.max_abs_diff(&b2) < 1e-8);
    }

    #[test]
    fn rows_and_cols_sum_to_zero() {
        let pts = vec![vec![1.0, 2.0], vec![3.0, -1.0], vec![0.5, 0.5], vec![-2.0, 4.0]];
        let b = double_center(&sq_dist_matrix(&pts)).unwrap();
        for i in 0..4 {
            let rs: f64 = (0..4).map(|j| b[(i, j)]).sum();
            let cs: f64 = (0..4).map(|j| b[(j, i)]).sum();
            assert!(rs.abs() < 1e-9, "row {i} sums to {rs}");
            assert!(cs.abs() < 1e-9, "col {i} sums to {cs}");
        }
    }

    #[test]
    fn empty_input_ok() {
        let b = double_center(&Matrix::zeros(0, 0)).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn non_square_is_an_error() {
        let err = double_center(&Matrix::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, LinalgError::NotSquare { .. }));
    }
}
