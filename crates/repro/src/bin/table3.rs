//! Regenerate Table 3: Hurst-parameter estimates for every workload
//! (10 production + 5 models), three estimators per series.

use wl_repro::{out, outln};
use wl_repro::paper::{TABLE3, TABLE3_COLUMNS, TABLE3_OBSERVATIONS};
use wl_logsynth::MachineId;
use wl_repro::{cell, hurst_row, run_suite, Options, Suite};

fn main() {
    let (opts, _obs) = Options::from_args();
    // Each log is reduced to its row of estimates in the worker that
    // synthesized it, over --threads workers; its jobs go with it.
    let rows = run_suite(&opts, Suite::Table3, |w| (w.name.clone(), hurst_row(&w)));

    outln!("== Table 3: estimations of self-similarity ==");
    out!("{:<16}", "workload");
    for c in TABLE3_COLUMNS {
        out!("{c:>8}");
    }
    outln!();

    let mut measured_means = Vec::new();
    for (oi, (name, row)) in rows.into_iter().enumerate() {
        out!("{:<16}", format!("{} paper", TABLE3_OBSERVATIONS[oi]));
        for v in TABLE3[oi] {
            out!("{:>8}", format!("{v:.2}"));
        }
        outln!();
        out!("{:<16}", format!("{} meas.", TABLE3_OBSERVATIONS[oi]));
        for v in &row {
            out!("{:>8}", cell(*v));
        }
        outln!();
        let known: Vec<f64> = row.iter().flatten().copied().collect();
        let mean = known.iter().sum::<f64>() / known.len().max(1) as f64;
        measured_means.push((name, mean));
    }

    if opts.timings {
        // The CTC log is long gone; synthesize it again.
        outln!();
        wl_repro::print_estimator_work(&MachineId::Ctc.generate(opts.jobs, opts.seed));
    }

    // The paper's headline: production logs are self-similar (H > 0.5),
    // the synthetic models are not (H ~ 0.5).
    outln!();
    outln!("mean measured H per workload:");
    for (name, mean) in &measured_means {
        outln!("  {name:<16} {mean:.3}");
    }
    let prod_mean: f64 = measured_means[..10].iter().map(|(_, m)| m).sum::<f64>() / 10.0;
    let model_mean: f64 = measured_means[10..].iter().map(|(_, m)| m).sum::<f64>() / 5.0;
    outln!();
    outln!(
        "production mean H = {prod_mean:.3}; model mean H = {model_mean:.3}; \
         separation reproduced: {}",
        prod_mean > model_mean + 0.05
    );

    // Extension (the paper's section 10 future-work call): a model that
    // *does* exhibit self-similarity.
    use wl_models::{SelfSimilarModel, WorkloadModel};
    use wl_stats::rng::seeded_rng;
    let fractal =
        SelfSimilarModel::default().generate(opts.jobs, &mut seeded_rng(opts.seed ^ 0xF2AC));
    let row = hurst_row(&fractal);
    out!("{:<16}", "SelfSim (ours)");
    for v in &row {
        out!("{:>8}", cell(*v));
    }
    outln!();
    let known: Vec<f64> = row.iter().flatten().copied().collect();
    let frac_mean = known.iter().sum::<f64>() / known.len().max(1) as f64;
    outln!(
        "extension: SelfSimilarModel mean H = {frac_mean:.3} — a synthetic model \
         on the production side of the divide (section 10's requirement)"
    );
}
