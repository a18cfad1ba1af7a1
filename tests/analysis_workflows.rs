//! Integration tests for the wl-analysis workflows against the paper's
//! published data and the synthesized suite.

use coplot::DataMatrix;
use wl_analysis::load_alteration::{alter_load, audit, LoadAlteration};
use wl_analysis::{best_variable_subset, match_models, ParametricModel};
use wl_logsynth::machines::production_workloads;
use wl_models::{all_models, SelfSimilarModel, WorkloadModel};
use wl_stats::rng::seeded_rng;
use wl_swf::workload::AllocationFlexibility;
use wl_swf::WorkloadStats;

/// Table 1's twelve map variables (transcribed; see wl-repro::paper for the
/// full tables — integration tests stay on public library APIs).
fn table1_matrix() -> DataMatrix {
    let codes = ["AL", "Rm", "Ri", "Pm", "Pi", "Im", "Ii"];
    let rows: [[f64; 7]; 10] = [
        [3.0, 960.0, 57216.0, 2.0, 37.0, 64.0, 1472.0],
        [3.0, 848.0, 47875.0, 3.0, 31.0, 192.0, 3806.0],
        [1.0, 68.0, 9064.0, 64.0, 224.0, 162.0, 1968.0],
        [1.0, 57.0, 267.0, 32.0, 96.0, 16.0, 276.0],
        [1.0, 376.0, 11136.0, 64.0, 480.0, 169.0, 2064.0],
        [2.0, 36.0, 9143.0, 8.0, 62.0, 119.0, 1660.0],
        [1.0, 19.0, 1168.0, 1.0, 31.0, 56.0, 443.0],
        [2.0, 45.0, 28498.0, 5.0, 63.0, 170.0, 4265.0],
        [2.0, 12.0, 484.0, 4.0, 31.0, 68.0, 2076.0],
        [2.0, 1812.0, 39290.0, 8.0, 63.0, 208.0, 5884.0],
    ];
    let names = ["CTC", "KTH", "LANL", "LANLi", "LANLb", "LLNL", "NASA", "SDSC", "SDSCi", "SDSCb"];
    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_rows(
        names.iter().map(|s| s.to_string()).collect(),
        codes.iter().map(|s| s.to_string()).collect(),
        &row_refs,
    )
}

#[test]
fn subset_search_recovers_one_per_cluster_structure() {
    // Section 8's rule: a good small subset takes one representative from
    // each variable cluster. The clusters here: {Rm, Ri} (runtime),
    // {Pm, Pi} (parallelism), {Im, Ii} (arrivals), AL near runtime. Every
    // top-3 subset must span at least two distinct clusters, and the best
    // must fit well.
    let results = best_variable_subset(&table1_matrix(), 3, 0.15, 3, 1999, 1).unwrap();
    assert!(!results.is_empty());
    let cluster = |v: &str| match v {
        "AL" | "Rm" | "Ri" => "runtime",
        "Pm" | "Pi" => "parallelism",
        _ => "arrival",
    };
    for r in &results {
        let mut clusters: Vec<&str> = r.variables.iter().map(|v| cluster(v)).collect();
        clusters.sort_unstable();
        clusters.dedup();
        assert!(
            clusters.len() >= 2,
            "subset {:?} collapses into one cluster",
            r.variables
        );
    }
    assert!(results[0].alienation < 0.1);
    assert!(results[0].mean_correlation > 0.85);
}

#[test]
fn model_matching_report_is_consistent_with_figure_4() {
    let logs = production_workloads(61, 3000);
    let mut rng = seeded_rng(62);
    let models: Vec<_> = all_models()
        .iter()
        .map(|m| m.generate(3000, &mut rng))
        .collect();
    let report = match_models(&logs, &models, 0.3, 61).unwrap();
    // The batch outliers never accept any model (the paper: "the batch
    // workloads of these two systems are still lonely outliers").
    for m in &report.matches {
        assert_ne!(m.closest_log, "LANLb", "{} matched LANLb", m.model);
        assert_ne!(m.closest_log, "SDSCb", "{} matched SDSCb", m.model);
    }
}

#[test]
fn load_audit_reproduces_section_8_violations() {
    let mut rng = seeded_rng(63);
    let base = all_models()[4].generate(6000, &mut rng); // Lublin
    let rows = audit(&base, 2.0);
    // Condensing arrivals violates the inter-arrival direction; stretching
    // runtimes violates the runtime stability; raising parallelism
    // overshoots the partial correlation.
    let find = |t: LoadAlteration| rows.iter().find(|r| r.technique == t).unwrap();
    assert!(find(LoadAlteration::CondenseArrivals)
        .violations
        .iter()
        .any(|v| v.contains("inter-arrival")));
    assert!(find(LoadAlteration::StretchRuntimes)
        .violations
        .iter()
        .any(|v| v.contains("runtime")));
    assert!(find(LoadAlteration::RaiseParallelism)
        .violations
        .iter()
        .any(|v| v.contains("parallelism")));
}

#[test]
fn altered_workloads_raise_load() {
    let mut rng = seeded_rng(64);
    let base = all_models()[4].generate(6000, &mut rng);
    let s0 = WorkloadStats::compute(&base).runtime_load.unwrap();
    for technique in LoadAlteration::ALL {
        let altered = alter_load(&base, technique, 2.0);
        let s1 = WorkloadStats::compute(&altered).runtime_load.unwrap();
        assert!(
            s1 > 1.5 * s0,
            "{technique:?}: load {s1} vs baseline {s0}"
        );
    }
}

#[test]
fn parametric_model_is_a_usable_workload_source() {
    // The proposed model must produce workloads that flow through the whole
    // toolkit: stats, SWF round trip, Hurst estimation.
    let model = ParametricModel::new(AllocationFlexibility::Unlimited, 4.0, 90.0, 512);
    let w = model.generate(4000, &mut seeded_rng(65));
    let s = WorkloadStats::compute(&w);
    assert_eq!(s.procs_median.unwrap(), 4.0);
    let text = wl_swf::write_swf(&w);
    let back = wl_swf::parse_swf(&text).unwrap().into_trace("P", w.machine);
    assert_eq!(w.len(), back.len());
}

#[test]
fn self_similar_model_separates_from_classics_in_figure_5_style_map() {
    // Put the new model into a Figure 5 style Hurst matrix next to the
    // classics: it must sit on the self-similar side.
    use wl_selfsim::HurstEstimator;
    use wl_swf::JobSeries;
    let mut rng = seeded_rng(66);
    let mut workloads: Vec<_> = all_models()
        .iter()
        .map(|m| m.generate(8192, &mut rng))
        .collect();
    workloads.push(SelfSimilarModel::default().generate(8192, &mut rng));

    let mean_h = |w: &wl_swf::Workload| {
        let mut acc = Vec::new();
        for series in JobSeries::ALL {
            let xs = series.extract(w);
            if let Some(h) = HurstEstimator::VarianceTime.estimate(&xs) {
                acc.push(h);
            }
        }
        wl_stats::mean(&acc)
    };
    let classic_max = workloads[..5]
        .iter()
        .map(&mean_h)
        .fold(f64::NEG_INFINITY, f64::max);
    let ours = mean_h(&workloads[5]);
    assert!(
        ours > classic_max,
        "SelfSimilar H {ours} vs best classic {classic_max}"
    );
}
