//! Automate section 8's by-hand search: which three variables best conserve
//! the full Figure 1 map? The paper found {allocation flexibility,
//! parallelism median, inter-arrival median} with theta = 0.02 and mean
//! correlation 0.94; this binary searches all 3-subsets of the Table 1
//! variables and ranks them.

use wl_analysis::{rank_subset_results, score_combination_range};
use wl_repro::outln;
use wl_repro::{paper_table1_matrix, Options};

fn main() {
    let (opts, _obs) = Options::from_args();
    // All Table 1 variables that the paper kept in play for this exercise
    // (the always-removed low-correlation set stays out).
    let codes = [
        "AL", "RL", "Rm", "Ri", "Pm", "Pi", "Nm", "Ni", "Cm", "Ci", "Im", "Ii",
    ];
    let data = paper_table1_matrix(&codes);

    outln!("searching all C(12,3) = 220 three-variable subsets of Table 1...");
    // Score every subset once. The top-ten table keeps exactly what a
    // search at theta <= 0.15 keeps (it drops `alienation > 0.15`); the
    // full ranking that places the paper's pick keeps theta <= 1.0.
    let mut all = score_combination_range(&data, 3, 1.0, opts.seed, opts.threads, None)
        .expect("search must run");
    let mut results: Vec<_> = all
        .iter()
        .filter(|r| r.alienation.partial_cmp(&0.15) != Some(std::cmp::Ordering::Greater))
        .cloned()
        .collect();
    rank_subset_results(&mut results, 10);
    rank_subset_results(&mut all, 220);
    outln!(
        "{:<28}{:>8}{:>12}{:>16}",
        "subset",
        "theta",
        "mean corr",
        "map RMSD"
    );
    for r in &results {
        outln!(
            "{:<28}{:>8.3}{:>12.3}{:>16.3}",
            r.variables.join("+"),
            r.alienation,
            r.mean_correlation,
            r.map_conservation_rmsd
        );
    }

    // Where does the paper's choice rank?
    let paper_pick = all
        .iter()
        .position(|r| {
            let mut v = r.variables.clone();
            v.sort();
            v == ["AL", "Im", "Pm"]
        })
        .map(|i| i + 1);
    match paper_pick {
        Some(rank) => outln!(
            "\nthe paper's subset AL+Pm+Im ranks #{rank} of {} by this criterion",
            all.len()
        ),
        None => outln!("\nthe paper's subset AL+Pm+Im did not fit under the threshold"),
    }
}
