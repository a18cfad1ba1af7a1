//! Regenerate Figure 3: workloads over time. Eighteen observations — the
//! ten of Figure 1 plus the four LANL and four SDSC six-month periods.
//! The paper finds the SDSC periods clustered, the LANL first year close to
//! the full LANL log, and L3/L4 as definite outliers.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, FIG3_VARIABLES, TABLE2, TABLE2_OBSERVATIONS, TABLE2_VARIABLES};
use wl_repro::{
    paper_table1_matrix, period_suite, report_figure, run_suite, stats_matrix, stats_row, Options,
    Suite,
};
use coplot::DataMatrix;

/// Build the paper-data variant: Table 1's ten columns plus Table 2's eight.
fn paper_matrix() -> DataMatrix {
    let base = paper_table1_matrix(&FIG3_VARIABLES);
    let mut observations: Vec<String> = base.observations().to_vec();
    observations.extend(TABLE2_OBSERVATIONS.iter().map(|s| s.to_string()));
    let mut rows: Vec<Vec<Option<f64>>> = (0..base.n_observations())
        .map(|i| (0..base.n_variables()).map(|v| base.get(i, v)).collect())
        .collect();
    rows.extend((0..TABLE2_OBSERVATIONS.len()).map(|oi| {
        FIG3_VARIABLES
            .iter()
            .map(|code| {
                let vi = TABLE2_VARIABLES.iter().position(|v| v == code).unwrap();
                TABLE2[vi][oi]
            })
            .collect::<Vec<_>>()
    }));
    let row_refs: Vec<&[Option<f64>]> = rows.iter().map(|r| r.as_slice()).collect();
    DataMatrix::from_optional_rows(
        observations,
        FIG3_VARIABLES.iter().map(|s| s.to_string()).collect(),
        &row_refs,
    )
}

fn main() {
    let (opts, _obs) = Options::from_args();
    let data = if opts.paper_data {
        paper_matrix()
    } else {
        let mut stats = run_suite(&opts, Suite::Production, |w| stats_row(&w));
        stats.extend(period_suite(&opts, |w| stats_row(&w)));
        stats_matrix(&stats, &FIG3_VARIABLES)
    };
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        if opts.paper_data {
            "Figure 3 (paper's Tables 1+2)"
        } else {
            "Figure 3 (synthesized logs)"
        },
        &result,
        // The paper quotes no theta for Figure 3; reuse the good-fit bar.
        fit_claims::GOOD_THETA,
        fit_claims::FIG1_MEAN_CORR,
    );

    // Qualitative checks from section 6.
    let d = |a: &str, b: &str| result.map_distance(a, b).unwrap();
    let sdsc_spread = d("S1", "S2").max(d("S1", "S3")).max(d("S2", "S3"));
    outln!("SDSC periods S1-S3 max pairwise distance: {sdsc_spread:.3}");
    outln!("L3 distance from L1: {:.3} (outlier per the paper)", d("L1", "L3"));
    outln!("L1 distance from LANL: {:.3} (first year near the full log)", d("L1", "LANL"));
    outln!(
        "L3 outlier reproduced: {}",
        d("L1", "L3") > 1.5 * sdsc_spread
    );
}
