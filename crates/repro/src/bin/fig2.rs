//! Regenerate Figure 2: the batch outliers (LANLb, SDSCb) removed,
//! un-normalized parallelism. Paper: theta = 0.01, mean correlation 0.88,
//! and the interactive workloads plus NASA form the only natural cluster.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, FIG2_DROPPED, FIG2_VARIABLES};
use wl_repro::{paper_table1_matrix, report_figure, run_suite, stats_matrix, stats_row, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    let full = if opts.paper_data {
        paper_table1_matrix(&FIG2_VARIABLES)
    } else {
        stats_matrix(&run_suite(&opts, Suite::Production, |w| stats_row(&w)), &FIG2_VARIABLES)
    };
    let data = full
        .drop_observations_by_name(&FIG2_DROPPED)
        .expect("drop batch outliers");
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        if opts.paper_data {
            "Figure 2 (paper's Table 1 matrix)"
        } else {
            "Figure 2 (synthesized logs)"
        },
        &result,
        fit_claims::FIG2_THETA,
        fit_claims::FIG2_MEAN_CORR,
    );

    // Interactive cluster check: LANLi, SDSCi and NASA sit together, away
    // from CTC.
    let d = |a: &str, b: &str| result.map_distance(a, b).unwrap();
    outln!("interactive-cluster distances:");
    outln!("  LANLi-SDSCi = {:.3}", d("LANLi", "SDSCi"));
    outln!("  LANLi-NASA  = {:.3}", d("LANLi", "NASA"));
    outln!("  SDSCi-NASA  = {:.3}", d("SDSCi", "NASA"));
    outln!("  LANLi-CTC   = {:.3} (should dwarf the above)", d("LANLi", "CTC"));
    let cluster_max = d("LANLi", "SDSCi").max(d("LANLi", "NASA")).max(d("SDSCi", "NASA"));
    outln!("cluster reproduced: {}", cluster_max < d("LANLi", "CTC"));
}
