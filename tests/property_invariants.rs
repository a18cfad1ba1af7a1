//! Cross-crate property-based tests: invariants of the Co-plot pipeline and
//! the workload toolkit under randomized inputs.

use coplot::{Coplot, DataMatrix};
use proptest::prelude::*;

/// Random complete data matrices: n in 4..=9 observations, p in 2..=5
/// variables, cell values in a wide range, with per-column spread enforced
/// (constant columns are a documented error, tested separately).
fn arb_matrix() -> impl Strategy<Value = DataMatrix> {
    (4usize..=9, 2usize..=5)
        .prop_flat_map(|(n, p)| {
            proptest::collection::vec(
                proptest::collection::vec(-1000.0f64..1000.0, p),
                n,
            )
            .prop_filter("columns must vary", move |rows| {
                (0..p).all(|v| {
                    let col: Vec<f64> = rows.iter().map(|r| r[v]).collect();
                    let spread = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        - col.iter().cloned().fold(f64::INFINITY, f64::min);
                    spread > 1.0
                })
            })
            .prop_map(move |rows| {
                let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
                DataMatrix::from_rows(
                    (0..n).map(|i| format!("o{i}")).collect(),
                    (0..p).map(|v| format!("v{v}")).collect(),
                    &row_refs,
                )
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coplot_invariants_hold_on_random_data(data in arb_matrix(), seed in 0u64..1000) {
        let result = Coplot::new().seed(seed).analyze(&data).unwrap();
        // Theta is a bounded statistic.
        prop_assert!((0.0..=1.0).contains(&result.alienation));
        // Every arrow is unit length with a bounded correlation.
        for a in &result.arrows {
            let norm = (a.direction[0].powi(2) + a.direction[1].powi(2)).sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-9);
            prop_assert!(a.correlation.abs() <= 1.0 + 1e-9);
        }
        // Configuration is centered with unit RMS radius.
        let n = data.n_observations();
        let (mut cx, mut cy, mut r2) = (0.0, 0.0, 0.0);
        for i in 0..n {
            cx += result.coords[(i, 0)];
            cy += result.coords[(i, 1)];
            r2 += result.coords[(i, 0)].powi(2) + result.coords[(i, 1)].powi(2);
        }
        prop_assert!(cx.abs() < 1e-6 && cy.abs() < 1e-6);
        prop_assert!((r2 / n as f64 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn coplot_is_deterministic(data in arb_matrix()) {
        let a = Coplot::new().seed(7).analyze(&data).unwrap();
        let b = Coplot::new().seed(7).analyze(&data).unwrap();
        prop_assert_eq!(a.coords.as_slice(), b.coords.as_slice());
        prop_assert_eq!(a.alienation, b.alienation);
    }

    #[test]
    fn variable_scaling_does_not_change_the_map(data in arb_matrix(), scale in 1.0f64..100.0) {
        // z-scoring makes the analysis invariant to positive affine
        // transforms of any variable.
        let n = data.n_observations();
        let p = data.n_variables();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..p)
                    .map(|v| {
                        let x = data.get(i, v).unwrap();
                        if v == 0 { x * scale + 13.0 } else { x }
                    })
                    .collect()
            })
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let scaled = DataMatrix::from_rows(
            data.observations().to_vec(),
            data.variables().to_vec(),
            &row_refs,
        );
        let a = Coplot::new().seed(3).analyze(&data).unwrap();
        let b = Coplot::new().seed(3).analyze(&scaled).unwrap();
        prop_assert!((a.alienation - b.alienation).abs() < 1e-9);
        for i in 0..n {
            prop_assert!((a.coords[(i, 0)] - b.coords[(i, 0)]).abs() < 1e-9);
            prop_assert!((a.coords[(i, 1)] - b.coords[(i, 1)]).abs() < 1e-9);
        }
    }
}

mod pipeline_error_paths {
    use super::*;
    use coplot::CoplotError;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn too_few_observations_is_an_error(n in 0usize..3, p in 1usize..5, seed in 0u64..100) {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..p).map(|v| (i * p + v) as f64).collect())
                .collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let data = DataMatrix::try_from_rows(
                (0..n).map(|i| format!("o{i}")).collect(),
                (0..p).map(|v| format!("v{v}")).collect(),
                &row_refs,
            ).unwrap();
            let err = Coplot::new().seed(seed).analyze(&data).unwrap_err();
            prop_assert!(
                matches!(err, CoplotError::TooFewObservations { min: 3, .. }),
                "{err}"
            );
        }

        #[test]
        fn constant_column_is_an_error(data in arb_matrix(), constant in -50.0f64..50.0) {
            // Overwrite one column with a constant: its z-score is undefined.
            let n = data.n_observations();
            let p = data.n_variables();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..p)
                        .map(|v| if v == 0 { constant } else { data.get(i, v).unwrap() })
                        .collect()
                })
                .collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let degenerate = DataMatrix::try_from_rows(
                data.observations().to_vec(),
                data.variables().to_vec(),
                &row_refs,
            ).unwrap();
            // Rounding can leave the column's std a few ulps above zero, in
            // which case the degeneracy surfaces at the arrow fit instead of
            // normalization — either way a typed error, never a panic.
            let err = Coplot::new().seed(1).analyze(&degenerate).unwrap_err();
            prop_assert!(
                err.to_string().contains("constant")
                    || matches!(err, CoplotError::DegenerateVariable(_)),
                "{err}"
            );
        }

        #[test]
        fn nan_cell_is_an_error(data in arb_matrix(), row in 0usize..4, col in 0usize..2) {
            let n = data.n_observations();
            let p = data.n_variables();
            let (row, col) = (row % n, col % p);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..p)
                        .map(|v| {
                            if (i, v) == (row, col) { f64::NAN } else { data.get(i, v).unwrap() }
                        })
                        .collect()
                })
                .collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let poisoned = DataMatrix::try_from_rows(
                data.observations().to_vec(),
                data.variables().to_vec(),
                &row_refs,
            ).unwrap();
            let err = Coplot::new().seed(1).analyze(&poisoned).unwrap_err();
            prop_assert!(matches!(err, CoplotError::NonFinite(_)), "{err}");
        }
    }

    #[test]
    fn empty_matrix_is_an_error() {
        let data = DataMatrix::try_from_rows(vec![], vec!["v0".into()], &[]).unwrap();
        let err = Coplot::new().analyze(&data).unwrap_err();
        assert!(
            matches!(err, CoplotError::TooFewObservations { n: 0, min: 3 }),
            "{err}"
        );
    }

    #[test]
    fn no_variables_is_an_error() {
        let data = DataMatrix::try_from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![],
            &[&[], &[], &[]],
        )
        .unwrap();
        let err = Coplot::new().analyze(&data).unwrap_err();
        assert!(matches!(err, CoplotError::EmptyInput { what: "variables" }), "{err}");
    }
}

mod swf_props {
    use super::*;
    use wl_swf::job::{Job, JobStatus};
    use wl_swf::workload::{
        AllocationFlexibility, MachineInfo, SchedulerFlexibility, Workload,
    };

    fn arb_job() -> impl Strategy<Value = Job> {
        (
            1u64..10_000,
            0.0f64..1e7,
            prop_oneof![Just(-1.0), 0.0f64..1e5],
            prop_oneof![Just(-1.0), 1.0f64..1e6],
            prop_oneof![Just(-1i64), 1i64..512],
            prop_oneof![Just(-1i64), 0i64..50],
            -1i64..5,
        )
            .prop_map(|(id, submit, wait, run, procs, user, status)| {
                let mut j = Job::new(id, submit);
                j.wait_time = wait;
                j.run_time = run;
                j.used_procs = procs;
                j.user_id = user;
                j.status = JobStatus::from_code(status);
                j
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn swf_text_round_trip(jobs in proptest::collection::vec(arb_job(), 0..40)) {
            let machine = MachineInfo::new(
                512,
                SchedulerFlexibility::Gang,
                AllocationFlexibility::Limited,
            );
            let w = Workload::new("prop", machine, jobs);
            let text = wl_swf::write_swf(&w);
            let doc = wl_swf::parse_swf(&text).unwrap();
            let w2 = doc.into_trace("prop", machine);
            prop_assert_eq!(w, w2);
        }

        #[test]
        fn splits_partition(jobs in proptest::collection::vec(arb_job(), 1..60), n in 1usize..6) {
            let machine = MachineInfo::new(
                64,
                SchedulerFlexibility::BatchQueue,
                AllocationFlexibility::Unlimited,
            );
            let w = Workload::new("prop", machine, jobs);
            let parts = w.split_periods(n, "P");
            prop_assert_eq!(parts.len(), n);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            prop_assert_eq!(total, w.len());
        }
    }
}

mod selfsim_props {
    use super::*;
    use wl_selfsim::aggregate::aggregate_series;
    use wl_selfsim::fft::{fft_any, rfft};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fft_round_trip(x in proptest::collection::vec(-100.0f64..100.0, 2..130)) {
            let n = x.len();
            let (re, im) = rfft(&x);
            let (mut back, _) = fft_any(&re, &im, true);
            for v in &mut back {
                *v /= n as f64;
            }
            for (a, b) in x.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }

        #[test]
        fn parseval(x in proptest::collection::vec(-10.0f64..10.0, 4..100)) {
            let n = x.len() as f64;
            let (re, im) = rfft(&x);
            let t: f64 = x.iter().map(|v| v * v).sum();
            let f: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / n;
            prop_assert!((t - f).abs() < 1e-6 * t.max(1.0));
        }

        #[test]
        fn aggregation_mean_preserved(
            x in proptest::collection::vec(-50.0f64..50.0, 10..200),
            m in 1usize..5,
        ) {
            let agg = aggregate_series(&x, m);
            if !agg.is_empty() {
                let full = m * agg.len();
                let mean_full: f64 = x[..full].iter().sum::<f64>() / full as f64;
                let mean_agg: f64 = agg.iter().sum::<f64>() / agg.len() as f64;
                prop_assert!((mean_full - mean_agg).abs() < 1e-9);
            }
        }
    }
}

mod parser_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The SWF parser must never panic: any input yields Ok or a
        /// structured error.
        #[test]
        fn parse_never_panics(text in "\\PC*") {
            let _ = wl_swf::parse_swf(&text);
        }

        /// Lines of 18 random tokens either parse or produce an error that
        /// names the line.
        #[test]
        fn numeric_lines_parse_or_fail_cleanly(
            fields in proptest::collection::vec(-1e9f64..1e9, 18),
        ) {
            let line: String = fields
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(" ");
            match wl_swf::parse_swf(&line) {
                Ok(doc) => prop_assert_eq!(doc.jobs.len(), 1),
                Err(e) => prop_assert_eq!(e.line, 1),
            }
        }
    }
}

mod stats_props {
    use super::*;
    use wl_stats::order::Percentiles;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Percentiles are monotone in p and bounded by min/max.
        #[test]
        fn percentiles_monotone_and_bounded(
            data in proptest::collection::vec(-1e6f64..1e6, 1..200),
        ) {
            let p = Percentiles::new(&data);
            let mut prev = p.at(0.0);
            prop_assert!((prev - p.min()).abs() < 1e-9);
            for step in 1..=20 {
                let q = p.at(step as f64 * 5.0);
                prop_assert!(q >= prev - 1e-9);
                prev = q;
            }
            prop_assert!((prev - p.max()).abs() < 1e-9);
        }

        /// The interval statistic is non-negative and no wider than the
        /// full range.
        #[test]
        fn interval_bounded_by_range(
            data in proptest::collection::vec(-1e6f64..1e6, 2..200),
            width in 0.01f64..1.0,
        ) {
            let p = Percentiles::new(&data);
            let i = p.interval(width);
            prop_assert!(i >= 0.0);
            prop_assert!(i <= p.max() - p.min() + 1e-9);
        }

        /// Isotonic regression output is monotone and preserves the mean.
        #[test]
        fn pava_invariants(data in proptest::collection::vec(-100.0f64..100.0, 1..100)) {
            let fit = wl_stats::isotonic_regression(&data, None);
            prop_assert_eq!(fit.len(), data.len());
            for w in fit.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
            let m1: f64 = data.iter().sum::<f64>() / data.len() as f64;
            let m2: f64 = fit.iter().sum::<f64>() / fit.len() as f64;
            prop_assert!((m1 - m2).abs() < 1e-6);
        }

        /// Pearson correlation stays within [-1, 1] and is symmetric.
        #[test]
        fn pearson_bounded_symmetric(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
        ) {
            let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let r = wl_stats::pearson(&x, &y);
            if r.is_finite() {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
                let r2 = wl_stats::pearson(&y, &x);
                prop_assert!((r - r2).abs() < 1e-12);
            }
        }
    }
}

mod hurst_props {
    use super::*;
    use wl_selfsim::{FgnDaviesHarte, HurstEstimator};
    use wl_stats::rng::seeded_rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// All three estimators stay within [0, ~1.2] on fGn of any H.
        #[test]
        fn estimates_bounded(h in 0.15f64..0.9, seed in 0u64..500) {
            let x = FgnDaviesHarte::new(h, 2048)
                .unwrap()
                .generate(&mut seeded_rng(seed));
            for est in HurstEstimator::ALL {
                if let Some(est_h) = est.estimate(&x) {
                    prop_assert!((-0.2..=1.3).contains(&est_h),
                        "{}: {est_h}", est.label());
                }
            }
        }

        /// Hurst estimates are shift- and scale-invariant.
        #[test]
        fn estimates_affine_invariant(seed in 0u64..200, scale in 0.1f64..100.0, shift in -50.0f64..50.0) {
            let x = FgnDaviesHarte::new(0.7, 2048)
                .unwrap()
                .generate(&mut seeded_rng(seed));
            let y: Vec<f64> = x.iter().map(|v| v * scale + shift).collect();
            for est in [HurstEstimator::VarianceTime, HurstEstimator::Periodogram] {
                let hx = est.estimate(&x).unwrap();
                let hy = est.estimate(&y).unwrap();
                prop_assert!((hx - hy).abs() < 1e-6, "{}: {hx} vs {hy}", est.label());
            }
        }
    }
}
