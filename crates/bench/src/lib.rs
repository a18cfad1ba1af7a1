//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches measure the performance of every pipeline stage the paper's
//! tables and figures rely on, for example:
//!
//! * `coplot_bench` — normalization, dissimilarities, MDS, alienation, and
//!   arrow fitting, including the MDS restart ablation;
//! * `hurst_bench` — the three Hurst estimators and both fGn generators
//!   (the Davies-Harte vs Hosking ablation).

use coplot::DataMatrix;
use wl_swf::{Variable, Workload, WorkloadStats};

/// Observations-by-variables matrix for a workload set (shared by several
/// benches; mirrors the repro crate's helper without depending on it).
pub fn workload_matrix(workloads: &[Workload], codes: &[&str]) -> DataMatrix {
    let stats: Vec<WorkloadStats> = workloads
        .iter()
        .map(|w| WorkloadStats::compute(w).with_load_imputation())
        .collect();
    let rows: Vec<Vec<Option<f64>>> = stats
        .iter()
        .map(|s| {
            codes
                .iter()
                .map(|c| s.get(Variable::from_code(c).unwrap()))
                .collect()
        })
        .collect();
    let row_refs: Vec<&[Option<f64>]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_optional_rows(
        stats.iter().map(|s| s.name.clone()).collect(),
        codes.iter().map(|c| c.to_string()).collect(),
        &row_refs,
    )
}

/// A synthetic dissimilarity-friendly matrix of the given size, for MDS
/// scaling benches.
pub fn synthetic_matrix(n: usize, p: usize) -> DataMatrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..p)
                .map(|v| ((i * 37 + v * 101) as f64 * 0.618).sin() * 100.0 + i as f64)
                .collect()
        })
        .collect();
    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_rows(
        (0..n).map(|i| format!("o{i}")).collect(),
        (0..p).map(|v| format!("v{v}")).collect(),
        &row_refs,
    )
}
