//! Regenerate Table 1: characteristics of the ten production observations,
//! paper values vs values measured on the synthesized logs.

use wl_repro::outln;
use wl_repro::paper::{TABLE1, TABLE1_OBSERVATIONS, TABLE1_VARIABLES};
use wl_repro::{print_comparison, run_suite, stats_row, Options, Suite};
use wl_swf::Variable;

fn main() {
    let (opts, _obs) = Options::from_args();
    let stats = run_suite(&opts, Suite::Production, |w| stats_row(&w));

    let names: Vec<String> = TABLE1_OBSERVATIONS.iter().map(|s| s.to_string()).collect();
    print_comparison(
        "Table 1: data of production workloads",
        &names,
        &TABLE1_VARIABLES,
        &|vi, oi| TABLE1[vi][oi],
        &|vi, oi| {
            let var = Variable::from_code(TABLE1_VARIABLES[vi]).unwrap();
            stats[oi].get(var)
        },
    );

    // Summary of relative agreement on the directly calibrated cells.
    let mut hits = 0;
    let mut total = 0;
    for (vi, code) in TABLE1_VARIABLES.iter().enumerate() {
        // Loads and work statistics are emergent, not calibrated; count the
        // directly targeted cells.
        if !["Rm", "Ri", "Pm", "Pi", "Nm", "Ni", "Im", "Ii", "U", "C", "MP", "SF", "AL"]
            .contains(code)
        {
            continue;
        }
        let var = Variable::from_code(code).unwrap();
        for (oi, s) in stats.iter().enumerate() {
            if let (Some(p), Some(m)) = (TABLE1[vi][oi], s.get(var)) {
                total += 1;
                if (m - p).abs() <= 0.25 * p.abs().max(1.0) {
                    hits += 1;
                }
            }
        }
    }
    outln!();
    outln!("calibrated cells within 25% of the paper: {hits}/{total}");
}
