//! The named-dataset registry and content addressing.
//!
//! Named datasets are observation suites synthesized deterministically
//! from `(name, jobs, seed)` — so the spec *is* the content and the
//! dataset digest hashes exactly that triple. Path datasets are trace
//! files on the server's filesystem in any registered format (SWF, GWF,
//! web access logs); their digests hash the *canonical record stream*
//! after parsing, making the result cache content-addressed **and**
//! format-independent: the same jobs served as SWF or GWF hit the same
//! cache entry, while editing a log invalidates every cached result
//! computed from it.

use crate::exec::ExecError;
use coplot::api::fnv1a;
use coplot::DatasetSpec;
use wl_repro::Suite;
use wl_swf::workload::{AllocationFlexibility, MachineInfo, SchedulerFlexibility};
use wl_swf::Workload;
use wl_trace::TraceFormat;

/// One named dataset the service can synthesize on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamedDataset {
    /// The ten production workloads of Table 1.
    Table1,
    /// The eight LANL/SDSC six-month periods of Table 2.
    Table2,
    /// The five synthetic workload models (Table 3 order).
    Models,
    /// Table 3's fifteen observations: production + models.
    Table3,
    /// Five synthetic grid sites, parsed from generated GWF text.
    Grid,
    /// Four synthetic web servers, parsed from generated access logs.
    Web,
    /// Table 3's fifteen observations plus the grid and web suites: one
    /// embedding across all three domains.
    CrossDomain,
}

impl NamedDataset {
    /// Every dataset, in listing order.
    pub const ALL: [NamedDataset; 7] = [
        NamedDataset::Table1,
        NamedDataset::Table2,
        NamedDataset::Models,
        NamedDataset::Table3,
        NamedDataset::Grid,
        NamedDataset::Web,
        NamedDataset::CrossDomain,
    ];

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            NamedDataset::Table1 => "table1",
            NamedDataset::Table2 => "table2",
            NamedDataset::Models => "models",
            NamedDataset::Table3 => "table3",
            NamedDataset::Grid => "grid",
            NamedDataset::Web => "web",
            NamedDataset::CrossDomain => "crossdomain",
        }
    }

    /// One-line description for `GET /v1/datasets`.
    pub fn description(&self) -> &'static str {
        match self {
            NamedDataset::Table1 => "the ten production workloads of Table 1",
            NamedDataset::Table2 => "the eight LANL/SDSC six-month periods of Table 2",
            NamedDataset::Models => "the five synthetic workload models",
            NamedDataset::Table3 => "Table 3's fifteen observations: production + models",
            NamedDataset::Grid => "five synthetic grid sites ingested from GWF text",
            NamedDataset::Web => "four synthetic web servers ingested from access logs",
            NamedDataset::CrossDomain => {
                "table3 plus the grid and web suites on one embedding"
            }
        }
    }

    /// Trace format the dataset's observations are ingested from:
    /// `"swf"`, `"gwf"`, `"weblog"`, or `"synthetic"` for mixed-domain
    /// suites.
    pub fn format(&self) -> &'static str {
        match self {
            NamedDataset::Table1
            | NamedDataset::Table2
            | NamedDataset::Models
            | NamedDataset::Table3 => "swf",
            NamedDataset::Grid => "gwf",
            NamedDataset::Web => "weblog",
            NamedDataset::CrossDomain => "synthetic",
        }
    }

    /// How many observations the dataset yields.
    pub fn observations(&self) -> usize {
        match self {
            NamedDataset::Table1 => 10,
            NamedDataset::Table2 => 8,
            NamedDataset::Models => 5,
            NamedDataset::Table3 => 15,
            NamedDataset::Grid => wl_trace::synth::GRID_SITE_COUNT,
            NamedDataset::Web => wl_trace::synth::WEB_SERVER_COUNT,
            NamedDataset::CrossDomain => {
                15 + wl_trace::synth::GRID_SITE_COUNT + wl_trace::synth::WEB_SERVER_COUNT
            }
        }
    }

    /// Look a dataset up by wire name.
    pub fn from_name(name: &str) -> Option<NamedDataset> {
        NamedDataset::ALL.iter().copied().find(|d| d.name() == name)
    }

    /// Synthesize the suite and keep every log: the identity case of
    /// [`try_reduce`](NamedDataset::try_reduce).
    ///
    /// # Panics
    /// When [`try_reduce`](NamedDataset::try_reduce) fails.
    pub fn synthesize(&self, jobs: usize, seed: u64, threads: usize) -> Vec<Workload> {
        self.try_reduce(jobs, seed, threads, |w| w)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Synthesize the suite and hand each log by value to `reduce` in the
    /// worker that made it, so a caller that keeps less than the job
    /// records never holds more than a few logs at once. Pure function of
    /// `(self, jobs, seed)`; the per-log synthesis fans out over `threads`
    /// workers with bit-identical results for any count. The grid and web
    /// suites go the long way around — generate trace text, parse it back
    /// through the format's `TraceSource` — so the ingestion path itself
    /// is exercised.
    ///
    /// # Errors
    /// `models`, `table3` and `crossdomain` re-fit Jann's model to a
    /// synthesized CTC log, which fails below about 120 jobs
    /// ([`wl_repro::reduce_suite`]).
    pub fn try_reduce<R, F>(
        &self,
        jobs: usize,
        seed: u64,
        threads: usize,
        reduce: F,
    ) -> Result<Vec<R>, String>
    where
        R: Send,
        F: Fn(Workload) -> R + Sync,
    {
        let opts = wl_repro::Options {
            paper_data: false,
            seed,
            jobs,
            threads,
            timings: false,
        };
        let suite = |suite| wl_repro::reduce_suite(&opts, suite, &reduce);
        let grid = || wl_trace::synth::grid_suite(jobs, seed, threads, &reduce);
        let web = || wl_trace::synth::web_suite(jobs, seed, threads, &reduce);
        Ok(match self {
            NamedDataset::Table1 => suite(Suite::Production)?,
            NamedDataset::Table2 => wl_repro::period_suite(&opts, &reduce),
            NamedDataset::Models => suite(Suite::Models)?,
            NamedDataset::Table3 => suite(Suite::Table3)?,
            NamedDataset::Grid => grid(),
            NamedDataset::Web => web(),
            NamedDataset::CrossDomain => {
                let mut out = suite(Suite::Table3)?;
                out.extend(grid());
                out.extend(web());
                out
            }
        })
    }
}

/// Default machine when a trace file carries no metadata header.
pub(crate) fn default_machine() -> MachineInfo {
    MachineInfo::new(
        128,
        SchedulerFlexibility::Backfilling,
        AllocationFlexibility::Unlimited,
    )
}

/// The format of the trace at `path` with contents `text`: the explicit
/// `format` label if given, else detected from the path and contents.
///
/// # Errors
/// [`ExecError::Analysis`] for an unknown label.
pub fn trace_format(
    path: &str,
    text: &str,
    format: Option<&str>,
) -> Result<TraceFormat, ExecError> {
    match format {
        Some(label) => TraceFormat::from_label(label).ok_or_else(|| {
            ExecError::Analysis(coplot::CoplotError::InvalidConfig(format!(
                "unknown trace format {label:?} (swf, gwf, weblog)"
            )))
        }),
        None => Ok(TraceFormat::detect(path, text)),
    }
}

/// The display name of the trace at `path`: its file stem.
pub fn trace_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Read and parse one trace file, honoring an explicit format label or
/// auto-detecting from the path and contents. This is the one loading
/// path of the digest, the executor and the `wl` CLI, so the cache key,
/// the computed result and every front end see the same records.
///
/// # Errors
/// [`ExecError::DatasetNotFound`] for an unreadable path,
/// [`ExecError::Analysis`] for an unknown label or unparseable contents.
pub fn read_trace(path: &str, format: Option<&str>) -> Result<Workload, ExecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ExecError::DatasetNotFound(format!("cannot read {path}: {e}")))?;
    let fmt = trace_format(path, &text, format)?;
    let name = trace_name(path);
    fmt.source()
        .read(&name, &text, default_machine())
        .map_err(|e| {
            ExecError::Analysis(coplot::CoplotError::InvalidConfig(format!("{path}: {e}")))
        })
}

/// The dataset half of the result-cache key. `format` is the request's
/// explicit trace format for `Paths` datasets (`None` = auto-detect).
///
/// # Errors
/// [`ExecError::DatasetNotFound`] for an unknown name or an unreadable
/// path; [`ExecError::Analysis`] for an unparseable path dataset.
pub fn dataset_digest(
    spec: &DatasetSpec,
    jobs: u64,
    seed: u64,
    format: Option<&str>,
) -> Result<u64, ExecError> {
    match spec {
        DatasetSpec::Named(name) => {
            let dataset = NamedDataset::from_name(name).ok_or_else(|| unknown_dataset(name))?;
            // Synthesis is deterministic, so the spec triple is the content.
            Ok(fnv1a(
                format!("named\u{0}{}\u{0}{jobs}\u{0}{seed}", dataset.name()).as_bytes(),
            ))
        }
        DatasetSpec::Paths(paths) => {
            // Hash the canonical record stream, not the file bytes: two
            // files with the same jobs in different formats digest
            // identically, so the cache is format-independent.
            let mut buf: Vec<u8> = b"records".to_vec();
            for path in paths {
                let trace = read_trace(path, format)?;
                buf.push(0);
                buf.extend_from_slice(&trace.canonical_digest().to_le_bytes());
            }
            Ok(fnv1a(&buf))
        }
    }
}

/// The standard not-found error for a dataset name.
pub(crate) fn unknown_dataset(name: &str) -> ExecError {
    let names: Vec<&str> = NamedDataset::ALL.iter().map(|d| d.name()).collect();
    ExecError::DatasetNotFound(format!(
        "unknown dataset {name:?} (available: {})",
        names.join(", ")
    ))
}

/// The JSON body of `GET /v1/datasets`.
pub fn datasets_json() -> String {
    let mut s = String::from("{\"datasets\":[");
    for (i, d) in NamedDataset::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"description\":\"{}\",\"format\":\"{}\",\"observations\":{}}}",
            d.name(),
            d.description(),
            d.format(),
            d.observations()
        ));
    }
    s.push_str("],\"api_versions\":");
    s.push_str(&api_versions_json());
    s.push('}');
    s
}

/// The supported `api_version` values as a JSON array — advertised in
/// both `GET /v1/datasets` and `GET /healthz`.
pub(crate) fn api_versions_json() -> String {
    let versions: Vec<String> = coplot::API_VERSIONS.iter().map(u64::to_string).collect();
    format!("[{}]", versions.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for d in NamedDataset::ALL {
            assert_eq!(NamedDataset::from_name(d.name()), Some(d));
        }
        assert_eq!(NamedDataset::from_name("table9"), None);
    }

    #[test]
    fn named_digest_tracks_spec() {
        let spec = DatasetSpec::Named("table1".into());
        let base = dataset_digest(&spec, 512, 1999, None).unwrap();
        assert_eq!(dataset_digest(&spec, 512, 1999, None).unwrap(), base);
        assert_ne!(dataset_digest(&spec, 513, 1999, None).unwrap(), base);
        assert_ne!(dataset_digest(&spec, 512, 2000, None).unwrap(), base);
        assert_ne!(
            dataset_digest(&DatasetSpec::Named("table2".into()), 512, 1999, None).unwrap(),
            base
        );
    }

    #[test]
    fn unknown_name_is_not_found() {
        let err =
            dataset_digest(&DatasetSpec::Named("nope".into()), 512, 1999, None).unwrap_err();
        assert!(matches!(err, ExecError::DatasetNotFound(_)), "{err:?}");
        assert!(err.to_string().contains("table1"), "{err}");
    }

    #[test]
    fn path_digest_tracks_content() {
        let dir = std::env::temp_dir().join("wl-serve-digest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.swf");
        let b = dir.join("b.swf");
        let job = |id: u64, submit: u64| {
            format!("{id} {submit} 5 100 4 90 -1 4 200 -1 1 3 1 7 1 -1 -1 -1\n")
        };
        std::fs::write(&a, format!("; MaxNodes: 64\n{}", job(1, 0))).unwrap();
        std::fs::write(&b, format!("; MaxNodes: 64\n{}", job(1, 30))).unwrap();
        let spec = DatasetSpec::Paths(vec![
            a.to_str().unwrap().into(),
            b.to_str().unwrap().into(),
        ]);
        // jobs/seed do not enter a path digest: the files are the content.
        let d1 = dataset_digest(&spec, 1, 1, None).unwrap();
        assert_eq!(dataset_digest(&spec, 2, 2, None).unwrap(), d1);
        std::fs::write(&b, format!("; MaxNodes: 64\n{}", job(2, 30))).unwrap();
        assert_ne!(dataset_digest(&spec, 1, 1, None).unwrap(), d1);
        let missing = DatasetSpec::Paths(vec![dir.join("missing.swf").to_str().unwrap().into()]);
        assert!(matches!(
            dataset_digest(&missing, 1, 1, None),
            Err(ExecError::DatasetNotFound(_))
        ));
    }

    #[test]
    fn path_digest_is_format_independent() {
        // The same jobs written as SWF and as GWF digest identically: the
        // digest hashes the canonical record stream, not the bytes.
        let dir = std::env::temp_dir().join("wl-serve-xformat-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = wl_trace::synth::grid_suite(40, 11, 1, |t| t).remove(0);
        let trace = wl_trace::NormalizedTrace::new("site", trace.machine, trace.jobs().to_vec());
        let swf = dir.join("site.swf");
        let gwf = dir.join("site.gwf");
        std::fs::write(&swf, wl_trace::write_swf(&trace)).unwrap();
        std::fs::write(&gwf, wl_trace::write_gwf(&trace)).unwrap();
        let d_swf = dataset_digest(
            &DatasetSpec::Paths(vec![swf.to_str().unwrap().into()]),
            1,
            1,
            None,
        )
        .unwrap();
        let d_gwf = dataset_digest(
            &DatasetSpec::Paths(vec![gwf.to_str().unwrap().into()]),
            1,
            1,
            None,
        )
        .unwrap();
        assert_eq!(d_swf, d_gwf);
        // An explicit matching format label changes nothing.
        let d_explicit = dataset_digest(
            &DatasetSpec::Paths(vec![gwf.to_str().unwrap().into()]),
            1,
            1,
            Some("gwf"),
        )
        .unwrap();
        assert_eq!(d_explicit, d_gwf);
    }

    #[test]
    fn synthesized_suites_have_the_advertised_sizes() {
        // Only the cheap suites: the big ones multiply synthesis cost for
        // the same check.
        for d in [NamedDataset::Models, NamedDataset::Grid, NamedDataset::Web] {
            let ws = d.synthesize(120, 7, 2);
            assert_eq!(ws.len(), d.observations(), "{}", d.name());
        }
    }

    #[test]
    fn datasets_json_lists_everything() {
        let body = datasets_json();
        let v = wl_obs::parse_json(&body).unwrap();
        let list = match v.get("datasets") {
            Some(wl_obs::JsonValue::Array(a)) => a,
            other => panic!("bad datasets value: {other:?}"),
        };
        assert_eq!(list.len(), NamedDataset::ALL.len());
        for d in NamedDataset::ALL {
            assert!(body.contains(d.name()));
        }
        for entry in list {
            let fmt = entry.get("format").and_then(|f| f.as_str()).unwrap();
            assert!(["swf", "gwf", "weblog", "synthetic"].contains(&fmt), "{fmt}");
        }
    }
}
