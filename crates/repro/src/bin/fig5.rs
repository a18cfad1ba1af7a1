//! Regenerate Figure 5: Co-plot of the Hurst estimates (Table 3) on the
//! nine retained estimator variables. The paper's headline: all arrows
//! point toward the production workloads — the logs are self-similar, the
//! models are not — and Lublin sits isolated with the lowest estimates.

use wl_repro::outln;
use wl_repro::paper::{fit_claims, FIG5_VARIABLES};
use wl_repro::{hurst_matrix, hurst_row, paper_table3_matrix, report_figure, run_suite, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    let data = if opts.paper_data {
        paper_table3_matrix(&FIG5_VARIABLES)
    } else {
        let rows = run_suite(&opts, Suite::Table3, |w| (w.name.clone(), hurst_row(&w)));
        hurst_matrix(&rows, &FIG5_VARIABLES)
    };
    let result = wl_repro::run_coplot(&opts, &data);
    report_figure(
        if opts.paper_data {
            "Figure 5 (paper's Table 3 matrix)"
        } else {
            "Figure 5 (measured Hurst estimates)"
        },
        &result,
        fit_claims::GOOD_THETA,
        0.8,
    );

    // All arrows point toward the production side: compute the mean arrow
    // direction and check the production workloads project positively onto
    // it while the models project negatively.
    let (mut ax, mut ay) = (0.0, 0.0);
    for a in &result.arrows {
        ax += a.direction[0];
        ay += a.direction[1];
    }
    let norm = (ax * ax + ay * ay).sqrt().max(1e-12);
    let (ax, ay) = (ax / norm, ay / norm);
    let proj = |name: &str| {
        let (x, y) = result.position(name).unwrap();
        x * ax + y * ay
    };
    let prod = ["CTC", "KTH", "LANL", "LANLi", "LANLb", "LLNL", "SDSC", "SDSCi", "SDSCb"];
    let models = ["Lublin", "Feitelson '97", "Feitelson '96", "Downey", "Jann"];
    let prod_mean: f64 = prod.iter().map(|n| proj(n)).sum::<f64>() / prod.len() as f64;
    let model_mean: f64 = models.iter().map(|n| proj(n)).sum::<f64>() / models.len() as f64;
    outln!("mean projection onto the arrow bundle:");
    outln!("  production (excl. NASA) {prod_mean:+.3}");
    outln!("  models                  {model_mean:+.3}");
    outln!("  NASA                    {:+.3} (the paper's exception)", proj("NASA"));
    outln!(
        "production/model separation reproduced: {}",
        prod_mean > model_mean
    );
}
