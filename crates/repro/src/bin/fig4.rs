//! Regenerate Figure 4: the ten production workloads and five synthetic
//! models on the eight shared job-stream variables. Paper: theta = 0.06,
//! mean correlation 0.89; Lublin lands at the center of gravity; Downey and
//! the Feitelson models near the interactive + NASA corner; Jann closest to
//! CTC (and KTH); LANL/SDSC/batch workloads have no model near them.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, FIG4_VARIABLES};
use wl_repro::{report_figure, run_suite, stats_matrix, stats_row, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    if opts.paper_data {
        eprintln!(
            "note: the paper does not publish the models' Figure 4 matrix; \
             --paper is unavailable here, running on synthesized data"
        );
    }
    let stats = run_suite(&opts, Suite::Table3, |w| stats_row(&w));
    let data = stats_matrix(&stats, &FIG4_VARIABLES);
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        "Figure 4 (production + synthetic models)",
        &result,
        fit_claims::FIG4_THETA,
        fit_claims::FIG4_MEAN_CORR,
    );

    // Qualitative placement checks from section 7.
    let center_dist = |name: &str| {
        let (x, y) = result.position(name).unwrap();
        (x * x + y * y).sqrt()
    };
    let d = |a: &str, b: &str| result.map_distance(a, b).unwrap();

    outln!("distance from the center of gravity:");
    for m in ["Lublin", "Feitelson '96", "Feitelson '97", "Downey", "Jann"] {
        outln!("  {m:<15} {:.3}", center_dist(m));
    }
    let lublin_central = ["Feitelson '96", "Feitelson '97", "Downey", "Jann"]
        .iter()
        .all(|m| center_dist("Lublin") < center_dist(m));
    outln!("Lublin most central of the models: {lublin_central}");

    // Which production log is each model closest to?
    let logs = ["CTC", "KTH", "LANL", "LANLi", "LANLb", "LLNL", "NASA", "SDSC", "SDSCi", "SDSCb"];
    outln!("closest production log per model:");
    for m in ["Lublin", "Feitelson '96", "Feitelson '97", "Downey", "Jann"] {
        let closest = logs
            .iter()
            .min_by(|a, b| d(m, a).partial_cmp(&d(m, b)).unwrap())
            .unwrap();
        outln!("  {m:<15} -> {closest} ({:.3})", d(m, closest));
    }
    outln!(
        "Jann nearer to CTC than Downey is: {}",
        d("Jann", "CTC") < d("Downey", "CTC")
    );
    outln!(
        "Downey nearer to the interactive corner (SDSCi) than Jann: {}",
        d("Downey", "SDSCi") < d("Jann", "SDSCi")
    );
}
