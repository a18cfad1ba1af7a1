//! End-to-end integration: synthesize the production-log stand-ins, derive
//! their characteristics, run Co-plot, and check the paper's headline
//! findings — without touching any published matrix.

use coplot::{Coplot, DataMatrix};
use wl_logsynth::machines::{production_workloads, MachineId};
use wl_logsynth::periods::lanl_periods;
use wl_models::all_models;
use wl_selfsim::HurstEstimator;
use wl_stats::rng::seeded_rng;
use wl_swf::{JobSeries, Variable, Workload, WorkloadStats};

fn matrix(workloads: &[Workload], codes: &[&str]) -> DataMatrix {
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

#[test]
fn synthesized_figure1_fits_well_and_clusters() {
    let workloads = production_workloads(77, 4096);
    let data = matrix(&workloads, &["RL", "Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"]);
    let result = Coplot::new().seed(77).analyze(&data).unwrap();
    assert!(result.alienation < 0.15, "theta = {}", result.alienation);
    // The calibrated medians/intervals reproduce the paper's strongest
    // cluster: runtime median ~ runtime interval.
    let cos = result
        .arrow("Rm")
        .unwrap()
        .cos_angle_with(result.arrow("Ri").unwrap());
    assert!(cos > 0.7, "Rm~Ri cos = {cos}");
}

#[test]
fn synthesized_interactive_workloads_cluster() {
    let workloads = production_workloads(78, 4096);
    let kept: Vec<Workload> = workloads
        .into_iter()
        .filter(|w| w.name != "LANLb" && w.name != "SDSCb")
        .collect();
    let data = matrix(&kept, &["Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii"]);
    let result = Coplot::new().seed(78).analyze(&data).unwrap();
    let d = |a: &str, b: &str| result.map_distance(a, b).unwrap();
    // Interactive pair close together, far from the long-running CTC.
    assert!(d("LANLi", "SDSCi") < d("LANLi", "CTC"));
    assert!(d("SDSCi", "NASA") < d("SDSCi", "CTC"));
}

#[test]
fn lanl_period_three_is_an_outlier_on_the_map() {
    let mut workloads = production_workloads(79, 2048);
    workloads.extend(lanl_periods(79, 2048));
    let data = matrix(&workloads, &["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im"]);
    let result = Coplot::new().seed(79).analyze(&data).unwrap();
    let d = |a: &str, b: &str| result.map_distance(a, b).unwrap();
    // Section 6's finding: the first year predicts itself (L1 ~ L2), the
    // second year breaks away (L3 far from both).
    assert!(d("L1", "L2") < d("L1", "L3"), "L1-L2 {} vs L1-L3 {}", d("L1", "L2"), d("L1", "L3"));
}

#[test]
fn production_logs_more_self_similar_than_models() {
    // The Table 3 / Figure 5 headline, end to end: mean Hurst estimate of
    // the production stand-ins exceeds that of the synthetic models.
    let mean_h = |w: &Workload| -> f64 {
        let mut acc = Vec::new();
        for series in JobSeries::ALL {
            let xs = series.extract(w);
            for est in HurstEstimator::ALL {
                if let Some(h) = est.estimate(&xs) {
                    acc.push(h);
                }
            }
        }
        wl_stats::mean(&acc)
    };
    let lanl = MachineId::Lanl.generate(8192, 80);
    let ctc = MachineId::Ctc.generate(8192, 80);
    let mut rng = seeded_rng(80);
    let models: Vec<f64> = all_models()
        .iter()
        .map(|m| mean_h(&m.generate(8192, &mut rng)))
        .collect();
    let prod = (mean_h(&lanl) + mean_h(&ctc)) / 2.0;
    let model_mean = wl_stats::mean(&models);
    assert!(
        prod > model_mean + 0.03,
        "production H {prod} vs model H {model_mean}"
    );
    // And the production stand-ins are genuinely self-similar.
    assert!(prod > 0.6, "production H = {prod}");
}

#[test]
fn swf_round_trip_preserves_statistics() {
    // Model output -> SWF text -> parse -> identical derived statistics.
    let mut rng = seeded_rng(81);
    let w = all_models()[0].generate(2000, &mut rng);
    let text = wl_swf::write_swf(&w);
    let doc = wl_swf::parse_swf(&text).unwrap();
    let w2 = doc.into_trace(w.name.clone(), w.machine);
    let s1 = WorkloadStats::compute(&w);
    let s2 = WorkloadStats::compute(&w2);
    assert_eq!(s1, s2);
}

#[test]
fn calibrated_streams_hit_published_medians() {
    let workloads = production_workloads(82, 6000);
    let expect = [
        ("CTC", 960.0),
        ("KTH", 848.0),
        ("LANLi", 57.0),
        ("LANLb", 376.0),
        ("LLNL", 36.0),
        ("NASA", 19.0),
        ("SDSCi", 12.0),
        ("SDSCb", 1812.0),
    ];
    for (name, rm) in expect {
        let w = workloads.iter().find(|w| w.name == name).unwrap();
        let s = WorkloadStats::compute(w);
        let got = s.runtime_median.unwrap();
        assert!(
            (got - rm).abs() / rm < 0.15,
            "{name}: Rm {got} vs published {rm}"
        );
    }
}
