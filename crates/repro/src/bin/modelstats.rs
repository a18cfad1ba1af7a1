//! Diagnostic: the eight Figure 4 variables for every observation, with the
//! ensemble mean/std — used to calibrate model parameters.

use wl_repro::{out, outln};
use wl_repro::{run_suite, stats_row, Options, Suite};
use wl_swf::Variable;

fn main() {
    let (opts, _obs) = Options::from_args();
    let stats = run_suite(&opts, Suite::Table3, |w| stats_row(&w));
    let codes = ["Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii"];
    out!("{:<16}", "obs");
    for c in codes {
        out!("{c:>10}");
    }
    outln!();
    for s in &stats {
        out!("{:<16}", s.name);
        for c in codes {
            let v = s.get(Variable::from_code(c).unwrap()).unwrap_or(f64::NAN);
            out!("{:>10.1}", v);
        }
        outln!();
    }
    out!("{:<16}", "MEAN");
    for c in codes {
        let vs: Vec<f64> = stats
            .iter()
            .filter_map(|s| s.get(Variable::from_code(c).unwrap()))
            .collect();
        out!("{:>10.1}", wl_stats::mean(&vs));
    }
    outln!();
    out!("{:<16}", "STD");
    for c in codes {
        let vs: Vec<f64> = stats
            .iter()
            .filter_map(|s| s.get(Variable::from_code(c).unwrap()))
            .collect();
        out!("{:>10.1}", wl_stats::std_dev(&vs));
    }
    outln!();
}
