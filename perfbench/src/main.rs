//! `perfbench`: the repository's benchmark driver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --root <repo root> --bin-dir <dir with the release binaries>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds everything
//! first. One run measures one workload for `--seconds`, checks every
//! output, prints a human-readable report, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Untraced runs (`--trace 0`) report the end-to-end metrics of
//! `BENCHMARK.json`; traced runs (`--trace 1`) report its per-layer
//! metrics, zero for a layer the workload does not reach.

// Peak memory comes from Linux process accounting (`/proc`, `getrusage`).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench runs on 64-bit Linux only");

mod catalog;
mod driver;
mod fleet;
mod paper;
mod procs;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use catalog::Catalog;

/// One run's settings and its private scratch directory.
pub struct Ctx {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Repository root.
    pub root: PathBuf,
    /// Directory holding the release binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// Path of a release binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Write the tracer's spans next to the run directories, named after
    /// the workload.
    pub fn write_spans(&self, workload: &str, tracer: &spans::Tracer) -> Result<(), String> {
        let dir = self.run_dir.parent().expect("run dir has a parent");
        let path = dir.join(format!("{workload}-spans.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, sessions, binary runs, checks).
    pub attempted: u64,
    /// Operations that failed: errors, refusals, wrong outputs, bad exits.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Add a report line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Set the end-to-end metrics: set-up seconds, the per-kind medians
    /// folded by geometric mean, and peak memory. The tails are printed
    /// with each kind's summary, not gated.
    pub fn end_to_end(&mut self, setup_s: f64, summaries: &[stats::Summary], peak_rss_mb: f64) {
        let p50s: Vec<f64> = summaries.iter().map(|s| s.p50).collect();
        self.set("setup_s", setup_s);
        self.set("latency_p50_ms", stats::geomean(&p50s));
        self.set("peak_rss_mb", peak_rss_mb);
    }

    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Deterministic 64-bit mix of a seed and a stream index (splitmix64),
/// cut to 52 bits so it survives a JSON number.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 12
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: PathBuf,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let mut take = |flag: &str| kv.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        root: take("--root")?.into(),
        bin_dir: take("--bin-dir")?.into(),
    };
    if let Some(flag) = kv.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

/// Removes the run directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let catalog = Catalog::load(&args.root)?;
    if !catalog.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {:?} (have {})",
            args.workload,
            catalog.workloads.join(", ")
        ));
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_dir = args
        .root
        .join(".perfbench-tmp")
        .join(format!("run-{}-{stamp}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let _cleanup = RunDir(run_dir.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        trace: args.trace,
        root: args.root,
        bin_dir: args.bin_dir,
        run_dir,
    };

    let report = match args.workload.as_str() {
        "paper-repro" => paper::run(&ctx)?,
        "serve-mixed" => serve::run(&ctx)?,
        "fleet-split" => fleet::run(&ctx)?,
        other => return Err(format!("workload {other:?} has no driver")),
    };

    let wanted = if ctx.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    for name in report.metrics.keys() {
        if !wanted.iter().any(|m| m.name == *name) {
            return Err(format!("workload reported undeclared metric {name:?}"));
        }
    }
    println!(
        "== {} (seed {}, trace {}) ==",
        args.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    let mut fields = Vec::new();
    for m in wanted {
        let value = match report.metrics.get(m.name.as_str()) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => return Err(format!("end-to-end metric {:?} was not measured", m.name)),
        };
        if !value.is_finite() || (!ctx.trace && value <= 0.0) {
            return Err(format!("metric {:?} was not measured ({value})", m.name));
        }
        println!("  {:<28} {value:>14.4} {}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_deterministic_distinct_and_json_safe() {
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
        assert_ne!(derive(7, 3), derive(8, 3));
        for s in 0..1000 {
            assert!(derive(s, s) < (1 << 53));
        }
    }
}
