//! Property-based tests of the linear-algebra kernels under random inputs.

use proptest::prelude::*;
use wl_linalg::{double_center, jacobi_eigen, procrustes_align, Matrix};

/// Random symmetric matrices with bounded entries.
fn arb_symmetric(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, n * (n + 1) / 2).prop_map(move |tri| {
        let mut m = Matrix::zeros(n, n);
        let mut it = tri.into_iter();
        for i in 0..n {
            for j in i..n {
                let v = it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jacobi_reconstructs_random_symmetric(m in arb_symmetric(5)) {
        let e = jacobi_eigen(&m, 1e-14, 100).expect("finite symmetric input");
        let r = e.reconstruct();
        prop_assert!(m.max_abs_diff(&r) < 1e-7, "diff {}", m.max_abs_diff(&r));
        // Eigenvalues sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // Eigenvectors orthonormal.
        let g = e.vectors.transpose().matmul(&e.vectors);
        prop_assert!(g.max_abs_diff(&Matrix::identity(5)) < 1e-7);
    }

    #[test]
    fn double_center_rows_sum_to_zero(m in arb_symmetric(6)) {
        // Use |m| as a fake squared-distance matrix with zero diagonal.
        let n = 6;
        let mut d2 = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d2[(i, j)] = m[(i, j)].abs();
                }
            }
        }
        let b = double_center(&d2).expect("square input");
        for i in 0..n {
            let rs: f64 = (0..n).map(|j| b[(i, j)]).sum();
            prop_assert!(rs.abs() < 1e-8, "row {i} sums to {rs}");
        }
        prop_assert!(b.is_symmetric(1e-9));
    }

    #[test]
    fn procrustes_recovers_any_similarity_transform(
        angle in 0.0f64..std::f64::consts::TAU,
        scale in 0.1f64..10.0,
        tx in -100.0f64..100.0,
        ty in -100.0f64..100.0,
        reflect in proptest::bool::ANY,
        pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..12),
    ) {
        let a = Matrix::from_rows(
            &pts.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
        let (c, s) = (angle.cos(), angle.sin());
        let mut b = Matrix::zeros(a.rows(), 2);
        for i in 0..a.rows() {
            let x = a[(i, 0)];
            let y = if reflect { -a[(i, 1)] } else { a[(i, 1)] };
            b[(i, 0)] = scale * (c * x - s * y) + tx;
            b[(i, 1)] = scale * (s * x + c * y) + ty;
        }
        let fit = procrustes_align(&a, &b);
        // Exact similarity transforms must align to numerical zero
        // (relative to the configuration's scale).
        let spread: f64 = pts
            .iter()
            .map(|&(x, y)| (x * x + y * y).sqrt())
            .fold(0.0, f64::max)
            .max(1.0);
        prop_assert!(fit.rmsd < 1e-6 * spread * scale.max(1.0), "rmsd {}", fit.rmsd);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn jacobi_rejects_nan_instead_of_panicking(
        m in arb_symmetric(4),
        i in 0usize..4,
        j in 0usize..4,
    ) {
        let mut m = m;
        m[(i, j)] = f64::NAN;
        m[(j, i)] = f64::NAN;
        prop_assert!(jacobi_eigen(&m, 1e-12, 50).is_err());
    }
}
