//! `wl` — the workload analysis command-line tool.
//!
//! The paper closes by offering "the Co-Plot program and workload analysis
//! program" to interested researchers; this binary is that tool for this
//! workspace. It reads trace files in any registered format — SWF, GWF
//! grid traces, web access logs, auto-detected or forced with `--format` —
//! and runs the full analysis toolkit over them.
//!
//! ```text
//! wl stats <file>...                          Table-1 characteristics
//! wl coplot <file>... [--vars A,B,..]         Co-plot map across files
//!           [--svg out.svg] [--seed N] [--format swf|gwf|weblog]
//! wl hurst <file>... [--threads N]            Hurst estimates (3 estimators
//!                                             x 4 series) per file
//! wl homogeneity <file> [--periods N]         section-6 stability test
//! wl stream <file> [--window N]               streaming windowed co-plot
//!           [--max-windows N] [--order sort|reject]   (JSON lines + drift)
//! wl generate <model> [--jobs N] [--seed N]   synthesize a trace to stdout
//!           [--out file] [--site N]           or a file
//! ```
//!
//! Models for `generate`: `feitelson96`, `feitelson97`, `downey`, `jann`,
//! `lublin`, `selfsimilar`, the six production stand-ins (`ctc`, `kth`,
//! `lanl`, `llnl`, `nasa`, `sdsc`), and the cross-domain families `grid`
//! (GWF text, `--site 0..4`) and `web` (access-log text, `--site 0..3`).

use std::io::{self, Write};
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The shared runtime flags (--threads / --trace / --metrics-out) are
    // valid anywhere on the command line, for every subcommand; the same
    // coplot::Runtime parses them for the repro binaries and wl-serve.
    let rt = match coplot::Runtime::extract(&mut args) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("wl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = match rt.obs_session() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // Each command returns its whole stdout text.
    let result = match command.as_str() {
        _ if rest.iter().any(|a| a == "--help" || a == "-h") => Ok(format!("{}\n", usage())),
        "stats" => commands::stats(rest),
        "coplot" => commands::coplot(rest, rt.threads),
        "hurst" => commands::hurst(rest, rt.threads),
        "subset" => commands::subset(rest, rt.threads),
        "homogeneity" => commands::homogeneity(rest),
        "stream" => commands::stream(rest, rt.threads),
        "generate" => commands::generate(rest),
        "help" | "--help" | "-h" => Ok(format!("{}\n", usage())),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    let written = result.map(|text| write_stdout(&text));
    session.finish();
    match written {
        Ok(Ok(())) => ExitCode::SUCCESS,
        // The reader closed early (`wl ... | head`) and has what it wanted.
        Ok(Err(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("wl: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("wl: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The one place `wl` writes to stdout, so that a closed reader is an
/// `io::Error` to handle rather than a panic in `print!`.
fn write_stdout(text: &str) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    stdout.write_all(text.as_bytes())?;
    stdout.flush()
}

fn usage() -> &'static str {
    "wl — parallel workload analysis (Co-plot / IPPS'99 toolkit)

USAGE:
  wl stats <file>... [--format swf|gwf|weblog]
  wl coplot <dataset> [--vars Rm,Ri,Pm,Pi,Im,Ii] [--svg out.svg] [--seed N] [--min-corr X] [--format F] [--timings] [--json]
  wl hurst <dataset> [--format F] [--json]
  wl subset <dataset> [--size K] [--max-alienation X] [--top N] [--vars ..] [--format F] [--json]
  wl homogeneity <file> [--periods N] [--seed N] [--format F]
  wl stream <file> [--window N] [--max-windows N] [--vars ..] [--seed N] [--tolerance X] [--order sort|reject] [--no-hurst] [--format F]
  wl generate <model> [--jobs N] [--seed N] [--out file] [--site N]

DATASETS (coplot/hurst/subset):
  either trace files (<file>...) or one named synthesized suite:
  @table1 @table2 @models @table3 @grid @web @crossdomain
  (with [--jobs N] [--seed N]).
  Files may be SWF logs, GWF grid traces, or web access logs; the format
  is auto-detected from the extension and contents unless --format forces
  one for all files.
  --json prints the analysis response exactly as wl-serve would return it.

GLOBAL FLAGS (any subcommand):
  --threads N            worker threads (default WL_THREADS, then the
                         available parallelism; results are identical
                         for any thread count)
  --trace <text|json>    print spans + metrics to stderr after the run
  --metrics-out <path>   write the JSON-lines trace/metrics to a file
Tracing writes only to stderr/the file; stdout is byte-identical to an
untraced run.

MODELS for generate:
  feitelson96 feitelson97 downey jann lublin selfsimilar
  ctc kth lanl llnl nasa sdsc   (production-log stand-ins)
  grid [--site 0..4]            (synthetic grid site, GWF text)
  web  [--site 0..3]            (synthetic web server, access-log text)"
}
