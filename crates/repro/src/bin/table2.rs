//! Regenerate Table 2: the LANL and SDSC six-month splits.

use wl_repro::outln;
use wl_repro::paper::{TABLE2, TABLE2_OBSERVATIONS, TABLE2_VARIABLES};
use wl_repro::{period_suite, print_comparison, stats_row, Options};
use wl_swf::Variable;

fn main() {
    let (opts, _obs) = Options::from_args();
    let stats = period_suite(&opts, |w| stats_row(&w));

    let names: Vec<String> = TABLE2_OBSERVATIONS.iter().map(|s| s.to_string()).collect();
    print_comparison(
        "Table 2: production workloads divided to six-month periods",
        &names,
        &TABLE2_VARIABLES,
        &|vi, oi| TABLE2[vi][oi],
        &|vi, oi| {
            let var = Variable::from_code(TABLE2_VARIABLES[vi]).unwrap();
            stats[oi].get(var)
        },
    );

    // The headline qualitative claim: L3 is the runtime outlier.
    let rm: Vec<f64> = stats
        .iter()
        .take(4)
        .map(|s| s.runtime_median.unwrap())
        .collect();
    outln!();
    outln!(
        "LANL runtime medians L1..L4: {:.0} {:.0} {:.0} {:.0} (paper: 62 65 643 79)",
        rm[0],
        rm[1],
        rm[2],
        rm[3]
    );
    outln!(
        "L3 outlier reproduced: {}",
        rm[2] > 3.0 * rm[0] && rm[2] > 3.0 * rm[3]
    );
}
