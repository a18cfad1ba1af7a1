//! Regenerate Figure 1: Co-plot of all production workloads on the nine
//! retained variables. The paper reports theta = 0.07, mean correlation
//! 0.88 (min 0.83), four variable clusters, and LANLb/SDSCb as outliers.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, FIG1_VARIABLES};
use wl_repro::{paper_table1_matrix, report_figure, run_suite, stats_matrix, stats_row, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    let data = if opts.paper_data {
        paper_table1_matrix(&FIG1_VARIABLES)
    } else {
        stats_matrix(&run_suite(&opts, Suite::Production, |w| stats_row(&w)), &FIG1_VARIABLES)
    };
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        if opts.paper_data {
            "Figure 1 (paper's Table 1 matrix)"
        } else {
            "Figure 1 (synthesized logs)"
        },
        &result,
        fit_claims::FIG1_THETA,
        fit_claims::FIG1_MEAN_CORR,
    );

    // Variable-cluster check: the paper's four clusters as arrow angles.
    outln!("variable cluster cosines (paper: Nm~Ni, Rm~Ri strongly; Nm anti Rm):");
    let pairs = [("Nm", "Ni"), ("Rm", "Ri"), ("Im", "Ci"), ("Nm", "Rm")];
    for (a, b) in pairs {
        if let (Some(aa), Some(ab)) = (result.arrow(a), result.arrow(b)) {
            outln!("  cos({a}, {b}) = {:+.3}", aa.cos_angle_with(ab));
        }
    }
}
