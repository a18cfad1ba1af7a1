//! Regenerate the section 8 parametrization result: one representative per
//! variable cluster — the processor allocation flexibility and the medians
//! of (un-normalized) parallelism and inter-arrival time — reproduces the
//! map with theta = 0.02 and mean correlation 0.94.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, SEC8_VARIABLES};
use wl_repro::{paper_table1_matrix, report_figure, run_suite, stats_matrix, stats_row, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    let data = if opts.paper_data {
        paper_table1_matrix(&SEC8_VARIABLES)
    } else {
        stats_matrix(&run_suite(&opts, Suite::Production, |w| stats_row(&w)), &SEC8_VARIABLES)
    };
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        if opts.paper_data {
            "Section 8 three-parameter map (paper's Table 1 matrix)"
        } else {
            "Section 8 three-parameter map (synthesized logs)"
        },
        &result,
        fit_claims::SEC8_THETA,
        fit_claims::SEC8_MEAN_CORR,
    );

    outln!(
        "good fit with only three parameters: {} (theta {:.3} < {})",
        result.alienation < wl_repro::paper::fit_claims::GOOD_THETA,
        result.alienation,
        wl_repro::paper::fit_claims::GOOD_THETA
    );
    outln!(
        "these are the paper's recommended model parameters: allocation \
         flexibility + medians of parallelism and inter-arrival time"
    );
}
