//! One embedding across three workload domains.
//!
//! The paper's Table 3 co-plots production supercomputer logs against
//! synthetic workload models — all SWF. With the `TraceSource` ingestion
//! layer the same analysis runs over *any* trace format, so this example
//! places Table 3's fifteen observations, five synthetic grid sites
//! (parsed from GWF text), and four synthetic web servers (parsed from
//! access-log text) onto a single map. The interesting question is the
//! paper's own, one level up: do workloads cluster by *domain* the way
//! logs cluster apart from models in Figure 4?
//!
//! ```sh
//! cargo run --release --example cross_domain
//! ```

use coplot::Coplot;
use wl_analysis::trace_matrix;
use wl_trace::synth::{grid_suite, web_suite, GRID_SITE_COUNT, WEB_SERVER_COUNT};

fn main() {
    let opts = wl_repro::Options {
        jobs: 2048,
        ..Default::default()
    };

    // Table 3's fifteen observations: ten production stand-ins + five
    // models, exactly as `wl coplot @table3` synthesizes them.
    let mut traces = wl_repro::production_suite(&opts);
    traces.extend(wl_repro::model_suite(&opts));
    let swf_names: Vec<String> = traces.iter().map(|w| w.name.clone()).collect();

    // The other two domains ride in through their own trace formats.
    traces.extend(grid_suite(opts.jobs, opts.seed, opts.threads, |t| t));
    traces.extend(web_suite(opts.jobs, opts.seed, opts.threads, |t| t));

    let data = trace_matrix(&traces, &["Rm", "Ri", "Pm", "Pi", "Im", "Ii"]);
    let result = Coplot::new().seed(opts.seed).analyze(&data).expect("coplot");
    println!("{}", coplot::render::render_text(&result, 72, 28));
    println!(
        "theta = {:.3}, mean arrow correlation = {:.3}",
        result.alienation,
        result.mean_arrow_correlation()
    );

    // Domain cohesion: mean map distance within each domain vs across.
    let grid_names: Vec<String> = traces
        [swf_names.len()..swf_names.len() + GRID_SITE_COUNT]
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let web_names: Vec<String> = traces[swf_names.len() + GRID_SITE_COUNT..]
        .iter()
        .map(|t| t.name.clone())
        .collect();
    assert_eq!(web_names.len(), WEB_SERVER_COUNT);

    let domains: [(&str, &[String]); 3] = [
        ("supercomputer (SWF)", &swf_names),
        ("grid (GWF)", &grid_names),
        ("web (access logs)", &web_names),
    ];
    println!("\nmean map distance within each domain:");
    for (label, names) in domains {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                sum += result.map_distance(a, b).expect("named observation");
                count += 1;
            }
        }
        println!("  {label:<22} {:.3}", sum / count as f64);
    }

    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, (_, a)) in domains.iter().enumerate() {
        for (_, b) in &domains[i + 1..] {
            for x in a.iter() {
                for y in b.iter() {
                    sum += result.map_distance(x, y).expect("named observation");
                    count += 1;
                }
            }
        }
    }
    println!("  {:<22} {:.3}", "across domains", sum / count as f64);
}
