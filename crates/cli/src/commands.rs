//! The `wl` subcommand implementations.

use std::path::Path;

use coplot::{AnalysisRequest, AnalysisResponse, DatasetSpec, Operation};
use wl_analysis::homogeneity::{test_homogeneity, HomogeneityConfig, HomogeneityVerdict};
use wl_logsynth::machines::MachineId;
use wl_models::{
    Downey, Feitelson96, Feitelson97, Jann, Lublin, SelfSimilarModel, WorkloadModel,
};
use wl_serve::exec::{execute, ExecConfig, ExecOutcome};
use wl_stats::rng::seeded_rng;
use wl_swf::workload::{AllocationFlexibility, MachineInfo, SchedulerFlexibility};
use wl_swf::{write_swf, Variable, Workload, WorkloadStats};
use wl_trace::TraceFormat;

/// Default machine when a trace file carries no metadata header.
fn default_machine() -> MachineInfo {
    MachineInfo::new(
        128,
        SchedulerFlexibility::Backfilling,
        AllocationFlexibility::Unlimited,
    )
}

/// Parsed CLI arguments: positional values plus `(name, value)` flags.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Boolean flags (no value follows them); everything else is `--flag value`.
const BOOLEAN_FLAGS: [&str; 3] = ["timings", "json", "no-hurst"];

/// Split positional arguments from `--flag value` / `--switch` options.
fn split_args(args: &[String]) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Turn the positional arguments into a dataset spec: a single `@name`
/// selects a named synthesized dataset (see `wl-serve`'s `/v1/datasets`);
/// anything else is a list of SWF files.
fn parse_dataset(positional: &[String]) -> Result<DatasetSpec, String> {
    match positional {
        [single] if single.starts_with('@') => Ok(DatasetSpec::Named(single[1..].to_string())),
        _ if positional.iter().any(|p| p.starts_with('@')) => {
            Err("a named dataset (@name) must be the only positional argument".into())
        }
        [] => Err("no input files given".into()),
        paths => Ok(DatasetSpec::Paths(paths.to_vec())),
    }
}

/// Run a request through the shared executor — the same code path
/// `wl-serve` uses, so `--json` output is byte-identical to a server
/// response for the same canonical request. The request makes a round
/// trip through the versioned v2 [`coplot::Envelope`] first, so the CLI
/// exercises the exact wire encoding a `/v2/analyze` client would send
/// (and any envelope regression breaks the CLI tests, not just the
/// server's). The request is canonicalized before that round trip, so an
/// out-of-range flag such as `--min-corr nan` is a typed `bad-value`
/// error rather than JSON the encoder cannot write.
fn run_request(req: &AnalysisRequest, threads: usize) -> Result<ExecOutcome, String> {
    let req = req.canonicalize().map_err(|e| e.to_string())?;
    let envelope = coplot::Envelope::v2(req);
    let req = coplot::Envelope::from_json(&envelope.to_json())
        .and_then(coplot::Envelope::into_analysis)
        .map_err(|e| e.to_string())?;
    execute(&req, &ExecConfig::new(threads)).map_err(|e| e.to_string())
}

/// Resolve a `--format` label, or auto-detect from the path and contents.
fn resolve_format(path: &str, text: &str, format: Option<&str>) -> Result<TraceFormat, String> {
    match format {
        Some(label) => TraceFormat::from_label(label)
            .ok_or_else(|| format!("unknown format {label:?} (swf, gwf, weblog)")),
        None => Ok(TraceFormat::detect(path, text)),
    }
}

fn load_workload(path: &str, format: Option<&str>) -> Result<Workload, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let fmt = resolve_format(path, &text, format)?;
    let name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    fmt.source()
        .read(&name, &text, default_machine())
        .map_err(|e| format!("{path}: {e}"))
}

fn load_all(paths: &[String], format: Option<&str>) -> Result<Vec<Workload>, String> {
    if paths.is_empty() {
        return Err("no input files given".into());
    }
    paths.iter().map(|p| load_workload(p, format)).collect()
}

/// `wl stats` — Table-1 characteristics per file.
pub fn stats(args: &[String]) -> Result<String, String> {
    let (paths, flags) = split_args(args)?;
    let workloads = load_all(&paths, flag(&flags, "format"))?;
    let mut out = format!("{:<20}", "variable");
    for w in &workloads {
        out.push_str(&format!("{:>14}", truncate(&w.name, 13)));
    }
    out.push('\n');
    let all: Vec<WorkloadStats> = workloads.iter().map(WorkloadStats::compute).collect();
    for var in Variable::ALL {
        let label = format!("{} ({})", var.code(), var.name());
        out.push_str(&format!("{label:<20}"));
        for s in &all {
            match s.get(var) {
                Some(v) => out.push_str(&format!("{:>14}", format_value(v))),
                None => out.push_str(&format!("{:>14}", "N/A")),
            }
        }
        out.push('\n');
    }
    out.push('\n');
    for w in &workloads {
        out.push_str(&format!(
            "{}: {} jobs over {:.1} days\n",
            w.name,
            w.len(),
            w.duration() / 86_400.0
        ));
    }
    Ok(out)
}

/// `wl coplot` — map several workloads together. A thin adapter over the
/// unified analysis API: builds an [`AnalysisRequest`], executes it through
/// the shared `wl-serve` executor, renders the [`AnalysisResponse`].
pub fn coplot(args: &[String], threads: usize) -> Result<String, String> {
    let (positional, flags) = split_args(args)?;
    let mut req = AnalysisRequest::new(Operation::Coplot, parse_dataset(&positional)?);
    if let Some(v) = flag(&flags, "format") {
        req.format = Some(v.to_string());
    }
    if let Some(v) = flag(&flags, "vars") {
        req.vars = v.split(',').map(|s| s.trim().to_string()).collect();
    }
    if let Some(v) = flag(&flags, "seed") {
        req.seed = v.parse().map_err(|_| "--seed needs an integer")?;
    }
    if let Some(v) = flag(&flags, "jobs") {
        req.jobs = v.parse().map_err(|_| "--jobs needs an integer")?;
    }
    if let Some(v) = flag(&flags, "min-corr") {
        req.min_correlation = Some(v.parse().map_err(|_| "--min-corr needs a number")?);
    }

    let outcome = run_request(&req, threads)?;
    if flag(&flags, "json").is_some() {
        return Ok(format!("{}\n", outcome.response.to_json()));
    }
    let AnalysisResponse::Coplot(response) = &outcome.response else {
        return Err("executor returned a non-coplot response".into());
    };
    let mut out = String::new();
    if !response.removed.is_empty() {
        out.push_str(&format!(
            "removed low-correlation variables: {:?}\n",
            response.removed
        ));
    }

    let result = response.to_result().map_err(|e| e.to_string())?;
    out.push_str(&coplot::render::render_text(&result, 72, 28));
    out.push('\n');
    if flag(&flags, "timings").is_some() {
        out.push_str("per-stage timings:\n");
        out.push_str(&coplot::StageReportTable(&outcome.reports).to_string());
    }
    if let Some(svg_path) = flag(&flags, "svg") {
        std::fs::write(svg_path, coplot::render::render_svg(&result, "wl coplot"))
            .map_err(|e| format!("cannot write {svg_path}: {e}"))?;
        out.push_str(&format!("SVG written to {svg_path}\n"));
    }
    Ok(out)
}

/// `wl hurst` — self-similarity estimates per file, the per-workload
/// estimation fanned out over `--threads` workers. Adapter over the
/// unified analysis API.
pub fn hurst(args: &[String], threads: usize) -> Result<String, String> {
    let (positional, flags) = split_args(args)?;
    let mut req = AnalysisRequest::new(Operation::Hurst, parse_dataset(&positional)?);
    if let Some(v) = flag(&flags, "format") {
        req.format = Some(v.to_string());
    }
    if let Some(v) = flag(&flags, "seed") {
        req.seed = v.parse().map_err(|_| "--seed needs an integer")?;
    }
    if let Some(v) = flag(&flags, "jobs") {
        req.jobs = v.parse().map_err(|_| "--jobs needs an integer")?;
    }

    let outcome = run_request(&req, threads)?;
    if flag(&flags, "json").is_some() {
        return Ok(format!("{}\n", outcome.response.to_json()));
    }
    let AnalysisResponse::Hurst(response) = &outcome.response else {
        return Err("executor returned a non-hurst response".into());
    };
    let mut out = format!("{:<20}", "workload");
    for c in &response.columns {
        out.push_str(&format!("{c:>9}"));
    }
    out.push('\n');
    for (name, row) in response.workloads.iter().zip(&response.rows) {
        out.push_str(&format!("{:<20}", truncate(name, 19)));
        for h in row {
            match h {
                Some(h) => out.push_str(&format!("{h:>9.2}")),
                None => out.push_str(&format!("{:>9}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str("\nH = 0.5: no long-range dependence; H -> 1: strongly self-similar.\n");
    Ok(out)
}

/// `wl subset` — section 8's representative-variable search: rank the
/// variable subsets of a given size by arrow correlation among those whose
/// map stays a good fit. Adapter over the unified analysis API.
pub fn subset(args: &[String], threads: usize) -> Result<String, String> {
    let (positional, flags) = split_args(args)?;
    let mut req = AnalysisRequest::new(Operation::Subset, parse_dataset(&positional)?);
    if let Some(v) = flag(&flags, "format") {
        req.format = Some(v.to_string());
    }
    if let Some(v) = flag(&flags, "vars") {
        req.vars = v.split(',').map(|s| s.trim().to_string()).collect();
    }
    if let Some(v) = flag(&flags, "seed") {
        req.seed = v.parse().map_err(|_| "--seed needs an integer")?;
    }
    if let Some(v) = flag(&flags, "jobs") {
        req.jobs = v.parse().map_err(|_| "--jobs needs an integer")?;
    }
    if let Some(v) = flag(&flags, "size") {
        req.subset_size = v.parse().map_err(|_| "--size needs an integer")?;
    }
    if let Some(v) = flag(&flags, "max-alienation") {
        req.max_alienation = v.parse().map_err(|_| "--max-alienation needs a number")?;
    }
    if let Some(v) = flag(&flags, "top") {
        req.top = v.parse().map_err(|_| "--top needs an integer")?;
    }

    let outcome = run_request(&req, threads)?;
    if flag(&flags, "json").is_some() {
        return Ok(format!("{}\n", outcome.response.to_json()));
    }
    let AnalysisResponse::Subset(response) = &outcome.response else {
        return Err("executor returned a non-subset response".into());
    };
    if response.results.is_empty() {
        return Ok(format!(
            "no variable subset of size {} keeps alienation <= {}\n",
            req.subset_size, req.max_alienation
        ));
    }
    let mut out = format!(
        "{:<5} {:<28} {:>10} {:>10} {:>9}\n",
        "rank", "variables", "alienation", "mean corr", "map rmsd"
    );
    for (i, e) in response.results.iter().enumerate() {
        out.push_str(&format!(
            "{:<5} {:<28} {:>10.3} {:>10.3} {:>9.2}\n",
            i + 1,
            e.variables.join(","),
            e.alienation,
            e.mean_correlation,
            e.map_conservation_rmsd
        ));
    }
    Ok(out)
}

/// `wl stream` — replay a trace through the streaming windowed Co-plot
/// driver, printing the same JSON lines `POST /v1/stream` would answer
/// for the same trace and options (both run
/// [`wl_serve::run_stream_text`], so the bytes agree by construction).
pub fn stream(args: &[String], threads: usize) -> Result<String, String> {
    let (paths, flags) = split_args(args)?;
    if paths.len() != 1 {
        return Err("stream takes exactly one trace file".into());
    }
    let path = &paths[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut options = wl_serve::StreamOptions {
        name: Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string()),
        // Resolve the format here so extension-based detection sees the
        // real path (the server only sees the display name).
        format: Some(resolve_format(path, &text, flag(&flags, "format"))?),
        ..wl_serve::StreamOptions::default()
    };
    if let Some(v) = flag(&flags, "window") {
        options.config.jobs_per_window = v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("--window needs a positive integer")?;
    }
    if let Some(v) = flag(&flags, "max-windows") {
        options.config.max_windows = v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("--max-windows needs a positive integer")?;
    }
    if let Some(v) = flag(&flags, "vars") {
        options.config.variables = v.split(',').map(|s| s.trim().to_string()).collect();
    }
    if let Some(v) = flag(&flags, "seed") {
        options.config.mds.seed = v.parse().map_err(|_| "--seed needs an integer")?;
    }
    if let Some(v) = flag(&flags, "tolerance") {
        let t: f64 = v.parse().map_err(|_| "--tolerance needs a number")?;
        if !t.is_finite() || t < 0.0 {
            return Err("--tolerance must be finite and non-negative".into());
        }
        options.config.regression_tolerance = t;
    }
    if let Some(v) = flag(&flags, "order") {
        options.config.order_policy = wl_analysis::stream::OrderPolicy::from_label(v)
            .ok_or_else(|| format!("unknown order policy {v:?} (sort, reject)"))?;
    }
    if flag(&flags, "no-hurst").is_some() {
        options.config.hurst = false;
    }
    wl_serve::run_stream_text(&text, &options, threads).map_err(|e| e.to_string())
}

/// `wl homogeneity` — section 6's over-time stability test.
pub fn homogeneity(args: &[String]) -> Result<String, String> {
    let (paths, flags) = split_args(args)?;
    if paths.len() != 1 {
        return Err("homogeneity takes exactly one file".into());
    }
    let log = load_workload(&paths[0], flag(&flags, "format"))?;
    let periods: usize = flag(&flags, "periods")
        .map(|v| v.parse().map_err(|_| "--periods needs an integer"))
        .transpose()?
        .unwrap_or(4);
    let seed: u64 = flag(&flags, "seed")
        .map(|v| v.parse().map_err(|_| "--seed needs an integer"))
        .transpose()?
        .unwrap_or(1999);

    let config = HomogeneityConfig {
        periods,
        seed,
        ..Default::default()
    };
    let codes = ["Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im"];
    let report =
        test_homogeneity(&log, &[], &codes, &config).map_err(|e| e.to_string())?;
    let mut out = format!(
        "log {}: {} jobs in {} periods\n",
        log.name,
        log.len(),
        periods
    );
    if !report.dropped.is_empty() {
        out.push_str(&format!(
            "dropped constant variables: {}\n",
            report.dropped.join(",")
        ));
    }
    for p in &report.periods {
        let mark = if p.outlier {
            "  << unusual interval"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<4} distance from full log {:.3}{mark}\n",
            p.name, p.distance_from_full
        ));
    }
    out.push_str(&format!("threshold: {:.3}\n", report.threshold));
    out.push_str(match report.verdict {
        HomogeneityVerdict::Homogeneous => {
            "verdict: homogeneous — past periods predict future ones here\n"
        }
        HomogeneityVerdict::Heterogeneous => {
            "verdict: HETEROGENEOUS — the log contains unusual intervals; \
             using it whole as a model would mislead\n"
        }
    });
    Ok(out)
}

/// `wl generate` — synthesize a workload.
pub fn generate(args: &[String]) -> Result<String, String> {
    let (positional, flags) = split_args(args)?;
    let Some(model_name) = positional.first() else {
        return Err("generate needs a model name".into());
    };
    let jobs: usize = flag(&flags, "jobs")
        .map(|v| v.parse().map_err(|_| "--jobs needs an integer"))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = flag(&flags, "seed")
        .map(|v| v.parse().map_err(|_| "--seed needs an integer"))
        .transpose()?
        .unwrap_or(42);

    // The cross-domain families emit their native trace text (GWF for grid
    // sites, Common Log Format for web servers); everything else emits SWF.
    let family = model_name.to_ascii_lowercase();
    let (text, summary) = match family.as_str() {
        "grid" | "web" => {
            let site: usize = flag(&flags, "site")
                .map(|v| v.parse().map_err(|_| "--site needs an integer"))
                .transpose()?
                .unwrap_or(0);
            if family == "grid" {
                if site >= wl_trace::synth::GRID_SITE_COUNT {
                    return Err(format!(
                        "--site must be < {}",
                        wl_trace::synth::GRID_SITE_COUNT
                    ));
                }
                (
                    wl_trace::synth::grid_site_text(site, jobs, seed),
                    format!("{jobs} GWF jobs ({})", wl_trace::synth::grid_site_name(site)),
                )
            } else {
                if site >= wl_trace::synth::WEB_SERVER_COUNT {
                    return Err(format!(
                        "--site must be < {}",
                        wl_trace::synth::WEB_SERVER_COUNT
                    ));
                }
                (
                    wl_trace::synth::web_server_text(site, jobs, seed),
                    format!(
                        "{jobs} web sessions ({})",
                        wl_trace::synth::web_server_name(site)
                    ),
                )
            }
        }
        _ => {
            let mut rng = seeded_rng(seed);
            let workload = match family.as_str() {
                "feitelson96" => Feitelson96::default().generate(jobs, &mut rng),
                "feitelson97" => Feitelson97::default().generate(jobs, &mut rng),
                "downey" => Downey::default().generate(jobs, &mut rng),
                "jann" => Jann::default().generate(jobs, &mut rng),
                "lublin" => Lublin::default().generate(jobs, &mut rng),
                "selfsimilar" => SelfSimilarModel::default().generate(jobs, &mut rng),
                "ctc" => MachineId::Ctc.generate(jobs, seed),
                "kth" => MachineId::Kth.generate(jobs, seed),
                "lanl" => MachineId::Lanl.generate(jobs, seed),
                "llnl" => MachineId::Llnl.generate(jobs, seed),
                "nasa" => MachineId::Nasa.generate(jobs, seed),
                "sdsc" => MachineId::Sdsc.generate(jobs, seed),
                other => return Err(format!("unknown model {other:?}")),
            };
            let len = workload.len();
            (write_swf(&workload), format!("{len} jobs"))
        }
    };
    match flag(&flags, "out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{summary} written to {path}");
            Ok(String::new())
        }
        None => Ok(text),
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 10_000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_args_separates_flags() {
        let args: Vec<String> = ["a.swf", "--seed", "7", "b.swf", "--svg", "x.svg"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, flags) = split_args(&args).unwrap();
        assert_eq!(pos, vec!["a.swf", "b.swf"]);
        assert_eq!(flag(&flags, "seed"), Some("7"));
        assert_eq!(flag(&flags, "svg"), Some("x.svg"));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn split_args_rejects_dangling_flag() {
        let args: Vec<String> = ["--seed"].iter().map(|s| s.to_string()).collect();
        assert!(split_args(&args).is_err());
    }

    #[test]
    fn split_args_boolean_flag_takes_no_value() {
        let args: Vec<String> = ["--timings", "a.swf", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, flags) = split_args(&args).unwrap();
        assert_eq!(positional, ["a.swf"]);
        assert_eq!(
            flags,
            [
                ("timings".to_string(), "true".to_string()),
                ("seed".to_string(), "7".to_string())
            ]
        );
    }

    #[test]
    fn generate_and_reload_round_trip() {
        let dir = std::env::temp_dir().join("wl_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lublin.swf");
        let args: Vec<String> = [
            "lublin",
            "--jobs",
            "200",
            "--seed",
            "3",
            "--out",
            path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        generate(&args).unwrap();
        let w = load_workload(path.to_str().unwrap(), None).unwrap();
        assert_eq!(w.len(), 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_grid_and_web_round_trip_through_detection() {
        let dir = std::env::temp_dir().join("wl_cli_xdomain_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (family, file, jobs) in [("grid", "site.gwf", "80"), ("web", "server.log", "40")] {
            let path = dir.join(file);
            let args: Vec<String> = [
                family,
                "--jobs",
                jobs,
                "--seed",
                "5",
                "--site",
                "1",
                "--out",
                path.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            generate(&args).unwrap();
            // Auto-detection and an explicit label load the same trace.
            let auto = load_workload(path.to_str().unwrap(), None).unwrap();
            let label = if family == "grid" { "gwf" } else { "weblog" };
            let explicit = load_workload(path.to_str().unwrap(), Some(label)).unwrap();
            assert!(!auto.is_empty(), "{family}");
            assert_eq!(auto.canonical_digest(), explicit.canonical_digest());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn generate_rejects_out_of_range_site() {
        let args: Vec<String> = ["grid".to_string(), "--site".into(), "99".into()].to_vec();
        assert!(generate(&args).is_err());
    }

    #[test]
    fn stats_errors_without_files() {
        assert!(stats(&[]).is_err());
    }

    #[test]
    fn parse_dataset_distinguishes_named_from_paths() {
        let named = parse_dataset(&["@table1".to_string()]).unwrap();
        assert_eq!(named, DatasetSpec::Named("table1".into()));
        let paths = parse_dataset(&["a.swf".to_string(), "b.swf".to_string()]).unwrap();
        assert_eq!(
            paths,
            DatasetSpec::Paths(vec!["a.swf".into(), "b.swf".into()])
        );
        assert!(parse_dataset(&[]).is_err());
        assert!(parse_dataset(&["@table1".to_string(), "a.swf".to_string()]).is_err());
    }

    #[test]
    fn unknown_model_rejected() {
        let args: Vec<String> = ["nope".to_string()].to_vec();
        assert!(generate(&args).is_err());
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(0.0086), "0.0086");
        assert_eq!(format_value(960.0), "960.0");
        assert_eq!(format_value(57216.0), "57216");
    }
}
