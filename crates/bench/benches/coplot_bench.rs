//! Benchmarks of the Co-plot stages, including the MDS restart ablation
//! (classical start only vs classical + 8 random restarts) called out in
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coplot::{
    coefficient_of_alienation, try_fit_arrow, Coplot, DissimilarityMatrix, Imputation, Metric,
};
use wl_bench::synthetic_matrix;

fn bench_normalize(c: &mut Criterion) {
    let data = synthetic_matrix(20, 18);
    c.bench_function("normalize_20x18", |b| {
        b.iter(|| black_box(&data).normalize(Imputation::ColumnMean).unwrap())
    });
}

fn bench_dissimilarity(c: &mut Criterion) {
    let z = synthetic_matrix(20, 18)
        .normalize(Imputation::Forbid)
        .unwrap();
    let mut group = c.benchmark_group("dissimilarity_20x18");
    for (name, metric) in [
        ("cityblock", Metric::CityBlock),
        ("euclidean", Metric::Euclidean),
        ("minkowski3", Metric::Minkowski(3.0)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| DissimilarityMatrix::compute(black_box(&z), metric))
        });
    }
    group.finish();
}

fn bench_mds_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonmetric_mds");
    for n in [10usize, 15, 20, 40] {
        let z = synthetic_matrix(n, 9).normalize(Imputation::Forbid).unwrap();
        let diss = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        group.bench_with_input(BenchmarkId::from_parameter(n), &diss, |b, diss| {
            b.iter(|| {
                coplot::mds::nonmetric_mds(
                    black_box(diss),
                    &coplot::MdsConfig {
                        restarts: 2,
                        ..Default::default()
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_mds_restart_ablation(c: &mut Criterion) {
    let z = synthetic_matrix(15, 9).normalize(Imputation::Forbid).unwrap();
    let diss = DissimilarityMatrix::compute(&z, Metric::CityBlock);
    let mut group = c.benchmark_group("mds_restart_ablation");
    for restarts in [0usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(restarts),
            &restarts,
            |b, &restarts| {
                b.iter(|| {
                    coplot::mds::nonmetric_mds(
                        black_box(&diss),
                        &coplot::MdsConfig {
                            restarts,
                            ..Default::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_mds_parallel_restarts(c: &mut Criterion) {
    // The paper's two main maps: Figure 1 (production workloads, 9
    // variables) and Figure 4 (production + models, the 8 job-stream
    // variables). Results are bit-identical for any thread count, so this
    // measures pure restart-parallelism speedup.
    use wl_logsynth::machines::production_workloads;
    use wl_stats::rng::seeded_rng;

    let fig1_codes = ["RL", "Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"];
    let fig4_codes = ["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"];
    let logs = production_workloads(1999, 2000);
    let mut rng = seeded_rng(1999);
    let mut fig4_ws = logs.clone();
    fig4_ws.extend(
        wl_models::all_models()
            .iter()
            .map(|m| m.generate(2000, &mut rng)),
    );

    for (figure, ws, codes) in [
        ("fig1", &logs, &fig1_codes[..]),
        ("fig4", &fig4_ws, &fig4_codes[..]),
    ] {
        let z = wl_bench::workload_matrix(ws, codes)
            .normalize(Imputation::ColumnMean)
            .unwrap();
        let diss = DissimilarityMatrix::compute(&z, Metric::CityBlock);
        let mut group = c.benchmark_group(format!("mds_parallel_restarts_{figure}"));
        for threads in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        coplot::mds::nonmetric_mds(
                            black_box(&diss),
                            &coplot::MdsConfig {
                                restarts: 8,
                                threads,
                                ..Default::default()
                            },
                        )
                        .unwrap()
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_alienation(c: &mut Criterion) {
    // All pairs-of-pairs: O(P^2) with P = n(n-1)/2.
    let mut group = c.benchmark_group("coefficient_of_alienation");
    for n in [10usize, 20, 40] {
        let p = n * (n - 1) / 2;
        let s: Vec<f64> = (0..p).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let d: Vec<f64> = (0..p).map(|i| (i as f64 * 0.7).sin() + 2.1).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &(s, d), |b, (s, d)| {
            b.iter(|| coefficient_of_alienation(black_box(s), black_box(d)))
        });
    }
    group.finish();
}

fn bench_arrow_fit(c: &mut Criterion) {
    let data = synthetic_matrix(20, 9);
    let result = Coplot::new().seed(1).analyze(&data).unwrap();
    let z: Vec<f64> = (0..20).map(|i| (i as f64 * 1.3).cos()).collect();
    c.bench_function("fit_arrow_20", |b| {
        b.iter(|| try_fit_arrow("v", black_box(&result.coords), black_box(&z)))
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let data = synthetic_matrix(15, 9);
    c.bench_function("coplot_full_pipeline_15x9", |b| {
        b.iter(|| Coplot::new().seed(3).analyze(black_box(&data)).unwrap())
    });
}


/// Short measurement windows: this suite has many benchmarks and several
/// with second-scale iterations; Criterion's defaults would take hours.
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = short();
    targets =
    bench_normalize,
    bench_dissimilarity,
    bench_mds_scaling,
    bench_mds_restart_ablation,
    bench_mds_parallel_restarts,
    bench_alienation,
    bench_arrow_fit,
    bench_full_pipeline

}
criterion_main!(benches);
