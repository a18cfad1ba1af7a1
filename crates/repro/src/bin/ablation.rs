//! Quality ablations for the design choices DESIGN.md calls out: how do the
//! dissimilarity metric, the MDS restart budget, and the missing-value
//! policy affect the goodness of fit on the paper's own Figure 1 matrix?

use coplot::{Coplot, Imputation, Metric, Selection};
use wl_repro::outln;
use wl_repro::paper::FIG1_VARIABLES;
use wl_repro::{paper_table1_matrix, Options};

fn main() {
    let (opts, _obs) = Options::from_args();
    let data = paper_table1_matrix(&FIG1_VARIABLES);

    outln!("== ablation: dissimilarity metric (Figure 1 matrix) ==");
    for (name, metric) in [
        ("city-block (paper)", Metric::CityBlock),
        ("euclidean", Metric::Euclidean),
        ("minkowski p=3", Metric::Minkowski(3.0)),
    ] {
        let r = Coplot::new()
            .seed(opts.seed)
            .metric(metric)
            .analyze(&data)
            .expect("coplot");
        outln!(
            "  {name:<20} theta = {:.3}  mean corr = {:.3}  min corr = {:.3}",
            r.alienation,
            r.mean_arrow_correlation(),
            r.min_arrow_correlation()
        );
    }

    outln!();
    outln!("== ablation: MDS restarts (classical init always included) ==");
    for restarts in [0usize, 1, 2, 4, 8, 16] {
        let r = Coplot::new()
            .seed(opts.seed)
            .restarts(restarts)
            .analyze(&data)
            .expect("coplot");
        outln!("  restarts = {restarts:<3} theta = {:.4}", r.alienation);
    }

    outln!();
    outln!("== ablation: missing-value policy ==");
    for (name, imp) in [
        ("column-mean imputation", Imputation::ColumnMean),
        ("drop incomplete variables", Imputation::DropVariables),
    ] {
        let r = Coplot::new()
            .seed(opts.seed)
            .imputation(imp)
            .analyze(&data)
            .expect("coplot");
        outln!(
            "  {name:<28} theta = {:.3}  variables kept = {}",
            r.alienation,
            r.arrows.len()
        );
    }

    outln!();
    outln!("== ablation: variable elimination threshold ==");
    for threshold in [0.0, 0.7, 0.8, 0.85, 0.9] {
        let r = Coplot::new()
            .seed(opts.seed)
            .engine()
            .run(
                &data,
                &Selection::Eliminate {
                    min_correlation: threshold,
                },
            )
            .expect("coplot");
        outln!(
            "  min corr >= {threshold:<5} keeps {} variables (removed {:?}), theta = {:.3}",
            r.arrows.len(),
            r.removed,
            r.alienation
        );
    }
}
