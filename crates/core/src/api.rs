//! The unified analysis request/response wire format.
//!
//! Every consumer of the pipeline — the `wl` CLI, the reproduction
//! binaries, and the `wl-serve` HTTP service — speaks exactly one API:
//! build an [`AnalysisRequest`], execute it, render an
//! [`AnalysisResponse`]. The CLI subcommands are thin adapters over these
//! types, so a server response and the CLI's output for the same request
//! are the same bytes by construction (golden-tested, not hoped for).
//!
//! The wire format is JSON over `wl-obs`'s dependency-free parser. A
//! request is **canonicalized** before anything hashes or executes it:
//! fields get a fixed serialization order, per-operation defaults are
//! filled in, fields irrelevant to the operation are reset to their
//! defaults, and non-finite numbers are rejected. Canonicalization is
//! idempotent and key-order-insensitive (property-tested), so two
//! semantically equal requests always produce the same
//! [`AnalysisRequest::canonical_digest`] — the cache key half that makes
//! `wl-serve`'s content-addressed result cache actually hit.
//!
//! Numbers ride JSON's `f64` space: floats serialize via Rust's shortest
//! round-trip `Display`, and integer fields are validated to stay at or
//! below 2^53 so the parse back is exact.
//!
//! All malformations are typed [`ApiError`]s (never panics): `Json` for
//! unparseable bodies, `Schema` for missing/unknown/mistyped fields,
//! `Value` for out-of-range or non-finite values. HTTP maps all three to
//! 400.

use std::fmt;

use crate::dissimilarity::DissimilarityMatrix;
use crate::error::CoplotError;
use crate::pipeline::CoplotResult;
use wl_linalg::Matrix;
use wl_obs::{escape_str, parse_json, JsonValue};

/// The paper's eight Table 1 variable codes — the default variable set for
/// `coplot` and `subset` requests.
pub const DEFAULT_VARS: [&str; 8] = ["Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii"];

/// Default job count per synthesized workload (the golden-snapshot size).
pub const DEFAULT_JOBS: u64 = 8192;
/// Default seed (the paper-reproduction seed used across the repo).
pub const DEFAULT_SEED: u64 = 1999;
/// Default subset size for `subset` requests (the paper found a
/// 3-variable representative set).
pub const DEFAULT_SUBSET_SIZE: u64 = 3;
/// Default alienation ceiling for `subset` requests (the paper's "good
/// fit" threshold).
pub const DEFAULT_MAX_ALIENATION: f64 = 0.15;
/// Default number of ranked subsets to return.
pub const DEFAULT_TOP: u64 = 5;

/// Largest integer exactly representable in the JSON number space (2^53);
/// integer fields above this would not round-trip.
pub const MAX_EXACT_INT: u64 = 1 << 53;

/// Largest `jobs` a named dataset may ask for (2^18). Synthesis allocates
/// in proportion to it, so without a cap one request could exhaust the
/// executor's memory; at the cap, `crossdomain` (the largest suite) peaks
/// at about 1.25 GB resident and `table1` at about 362 MB.
pub const MAX_NAMED_JOBS: u64 = 1 << 18;

/// Trace formats a `Paths` dataset may declare via the request's `format`
/// field. The labels mirror `wl_trace::TraceFormat::label()`; the list is
/// duplicated here because the ingestion crate sits above this one in the
/// dependency order.
pub const KNOWN_FORMATS: [&str; 3] = ["swf", "gwf", "weblog"];

/// Wire-API versions this build understands. Version 1 is the original
/// flat [`AnalysisRequest`] object; version 2 is the [`Envelope`] form
/// that also carries distribution [`ShardRequest`]s. Advertised by
/// `GET /healthz` and `GET /v1/datasets`.
pub const API_VERSIONS: [u64; 2] = [1, 2];

/// Which analysis an [`AnalysisRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// The Co-plot map (paper §4–§7).
    Coplot,
    /// The Hurst-estimate matrix (paper §5's self-similarity columns).
    Hurst,
    /// The representative-variable subset search (paper §8).
    Subset,
}

impl Operation {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Operation::Coplot => "coplot",
            Operation::Hurst => "hurst",
            Operation::Subset => "subset",
        }
    }

    /// Parse a wire label.
    pub fn from_label(s: &str) -> Option<Operation> {
        match s {
            "coplot" => Some(Operation::Coplot),
            "hurst" => Some(Operation::Hurst),
            "subset" => Some(Operation::Subset),
            _ => None,
        }
    }
}

/// Which data an [`AnalysisRequest`] runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSpec {
    /// A named, deterministically synthesized dataset (`table1`, `models`,
    /// ...). Because synthesis is a pure function of (name, jobs, seed),
    /// the spec *is* the content; dataset digests hash exactly that.
    Named(String),
    /// Trace files (SWF/GWF/web logs) on the executor's filesystem;
    /// digests hash the canonical parsed record stream, so the same jobs
    /// digest identically regardless of the on-disk format.
    Paths(Vec<String>),
}

/// One request against the analysis API — the single type the CLI, the
/// repro binaries, and `wl-serve` all build and execute.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRequest {
    /// The analysis to run.
    pub op: Operation,
    /// The data to run it on.
    pub dataset: DatasetSpec,
    /// Jobs per synthesized workload (named datasets only; ignored with
    /// `Paths`, where the files define the jobs).
    pub jobs: u64,
    /// Seed for both dataset synthesis and the MDS restarts.
    pub seed: u64,
    /// Variable codes for `coplot`/`subset` (empty = [`DEFAULT_VARS`];
    /// always empty after canonicalization for `hurst`).
    pub vars: Vec<String>,
    /// Trace format of a `Paths` dataset ([`KNOWN_FORMATS`]); `None` means
    /// auto-detect per file. Named datasets carry their own format, so
    /// canonicalization clears this field for them.
    pub format: Option<String>,
    /// `coplot` only: run variable elimination at this threshold.
    pub min_correlation: Option<f64>,
    /// `subset` only: subset size `k`.
    pub subset_size: u64,
    /// `subset` only: alienation ceiling.
    pub max_alienation: f64,
    /// `subset` only: how many ranked subsets to return.
    pub top: u64,
    /// Soft per-request deadline in milliseconds. Transport metadata: the
    /// executor aborts between stages once it expires, but it does not
    /// change the result of a request that completes, so it is excluded
    /// from [`canonical_digest`](AnalysisRequest::canonical_digest).
    pub deadline_ms: Option<u64>,
}

impl AnalysisRequest {
    /// A request for `op` on `dataset` with every other field at its
    /// default.
    pub fn new(op: Operation, dataset: DatasetSpec) -> AnalysisRequest {
        AnalysisRequest {
            op,
            dataset,
            jobs: DEFAULT_JOBS,
            seed: DEFAULT_SEED,
            vars: Vec::new(),
            format: None,
            min_correlation: None,
            subset_size: DEFAULT_SUBSET_SIZE,
            max_alienation: DEFAULT_MAX_ALIENATION,
            top: DEFAULT_TOP,
            deadline_ms: None,
        }
    }

    /// Validate and normalize into canonical form: fill defaults, reset
    /// fields the operation ignores, reject non-finite and out-of-range
    /// values. Canonicalization is idempotent, and requests differing only
    /// in ignored fields or JSON key order canonicalize identically.
    ///
    /// # Errors
    /// [`ApiError`] with kind `Value` for anything out of range.
    pub fn canonicalize(&self) -> Result<AnalysisRequest, ApiError> {
        let mut r = self.clone();
        check_int("jobs", r.jobs)?;
        check_int("seed", r.seed)?;
        if r.jobs == 0 {
            return Err(ApiError::value("jobs must be positive"));
        }
        if matches!(r.dataset, DatasetSpec::Named(_)) && r.jobs > MAX_NAMED_JOBS {
            return Err(ApiError::value(format!(
                "jobs must be at most {MAX_NAMED_JOBS} for a named dataset, got {}",
                r.jobs
            )));
        }
        if let Some(fmt) = &r.format {
            if !KNOWN_FORMATS.contains(&fmt.as_str()) {
                return Err(ApiError::value(format!(
                    "format must be one of {KNOWN_FORMATS:?}, got {fmt:?}"
                )));
            }
        }
        match &r.dataset {
            DatasetSpec::Named(name) => {
                if name.is_empty() {
                    return Err(ApiError::value("dataset name must not be empty"));
                }
                // Named datasets are synthesized with a fixed per-dataset
                // format; a stray `format` must not perturb the digest.
                r.format = None;
            }
            DatasetSpec::Paths(paths) => {
                if paths.is_empty() {
                    return Err(ApiError::value("dataset paths must not be empty"));
                }
                if paths.iter().any(|p| p.is_empty()) {
                    return Err(ApiError::value("dataset paths must not contain empty paths"));
                }
                // The files define the job count; neutralize it so
                // path-dataset requests differing only in a stray `jobs`
                // digest identically.
                r.jobs = DEFAULT_JOBS;
            }
        }
        if r.vars.iter().any(|v| v.is_empty()) {
            return Err(ApiError::value("vars must not contain empty codes"));
        }
        match r.op {
            Operation::Coplot => {
                if r.vars.is_empty() {
                    r.vars = DEFAULT_VARS.iter().map(|s| s.to_string()).collect();
                }
                if let Some(mc) = r.min_correlation {
                    if !mc.is_finite() || !(0.0..=1.0).contains(&mc) {
                        return Err(ApiError::value("min_correlation must be finite in [0, 1]"));
                    }
                }
                r.subset_size = DEFAULT_SUBSET_SIZE;
                r.max_alienation = DEFAULT_MAX_ALIENATION;
                r.top = DEFAULT_TOP;
            }
            Operation::Hurst => {
                r.vars.clear();
                r.min_correlation = None;
                r.subset_size = DEFAULT_SUBSET_SIZE;
                r.max_alienation = DEFAULT_MAX_ALIENATION;
                r.top = DEFAULT_TOP;
            }
            Operation::Subset => {
                if r.vars.is_empty() {
                    r.vars = DEFAULT_VARS.iter().map(|s| s.to_string()).collect();
                }
                r.min_correlation = None;
                if !(2..=32).contains(&r.subset_size) {
                    return Err(ApiError::value("subset_size must be in 2..=32"));
                }
                if !r.max_alienation.is_finite() || r.max_alienation < 0.0 {
                    return Err(ApiError::value("max_alienation must be finite and >= 0"));
                }
                if !(1..=1000).contains(&r.top) {
                    return Err(ApiError::value("top must be in 1..=1000"));
                }
            }
        }
        if let Some(d) = r.deadline_ms {
            check_int("deadline_ms", d)?;
            if d == 0 {
                return Err(ApiError::value("deadline_ms must be positive"));
            }
        }
        Ok(r)
    }

    /// Canonical JSON encoding: canonicalized fields in fixed order.
    /// `deadline_ms` is included when set (it matters on the wire), but
    /// never in the [`canonical_digest`](AnalysisRequest::canonical_digest).
    ///
    /// # Errors
    /// The canonicalization's [`ApiError`]s.
    pub fn to_canonical_json(&self) -> Result<String, ApiError> {
        let r = self.canonicalize()?;
        Ok(r.encode(true))
    }

    /// FNV-1a digest of the canonical encoding *without* `deadline_ms` —
    /// the request half of `wl-serve`'s cache key.
    ///
    /// # Errors
    /// The canonicalization's [`ApiError`]s.
    pub fn canonical_digest(&self) -> Result<u64, ApiError> {
        let r = self.canonicalize()?;
        Ok(fnv1a(r.encode(false).as_bytes()))
    }

    /// Serialize (canonical field order; the struct's values as-is —
    /// callers wanting full normalization go through
    /// [`to_canonical_json`](AnalysisRequest::to_canonical_json)).
    pub fn to_json(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, with_deadline: bool) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"op\":\"");
        s.push_str(self.op.label());
        s.push_str("\",\"dataset\":");
        match &self.dataset {
            DatasetSpec::Named(name) => {
                s.push_str("{\"name\":\"");
                s.push_str(&escape_str(name));
                s.push_str("\"}");
            }
            DatasetSpec::Paths(paths) => {
                s.push_str("{\"paths\":[");
                push_str_array(&mut s, paths);
                s.push_str("]}");
            }
        }
        s.push_str(&format!(",\"jobs\":{},\"seed\":{}", self.jobs, self.seed));
        s.push_str(",\"vars\":[");
        push_str_array(&mut s, &self.vars);
        s.push(']');
        if let Some(fmt) = &self.format {
            s.push_str(",\"format\":\"");
            s.push_str(&escape_str(fmt));
            s.push('"');
        }
        if let Some(mc) = self.min_correlation {
            s.push_str(&format!(",\"min_correlation\":{mc}"));
        }
        if self.op == Operation::Subset {
            s.push_str(&format!(
                ",\"subset_size\":{},\"max_alienation\":{},\"top\":{}",
                self.subset_size, self.max_alienation, self.top
            ));
        }
        if with_deadline {
            if let Some(d) = self.deadline_ms {
                s.push_str(&format!(",\"deadline_ms\":{d}"));
            }
        }
        s.push('}');
        s
    }

    /// Parse a request from JSON. Unknown fields, wrong types and
    /// unparseable bodies are typed errors, never panics.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json` (bad JSON), `Schema` (bad shape), or
    /// `Value` (out-of-range numbers; parsing canonicalizes lightly enough
    /// to surface those early).
    pub fn from_json(text: &str) -> Result<AnalysisRequest, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        AnalysisRequest::from_value(&v, false)
    }

    /// Parse a request from an already-parsed JSON value. With
    /// `allow_version` a literal `"api_version"` key is tolerated (the
    /// [`Envelope`] parser has already consumed it); everything else is
    /// identical to [`from_json`](AnalysisRequest::from_json).
    fn from_value(v: &JsonValue, allow_version: bool) -> Result<AnalysisRequest, ApiError> {
        let obj = as_object(v, "request")?;
        for key in obj.keys() {
            match key.as_str() {
                "op" | "dataset" | "jobs" | "seed" | "vars" | "format" | "min_correlation"
                | "subset_size" | "max_alienation" | "top" | "deadline_ms" => {}
                "api_version" if allow_version => {}
                other => {
                    return Err(ApiError::schema(format!("unknown field {other:?}")));
                }
            }
        }
        let op_label = get_str(v, "op")?;
        let op = Operation::from_label(op_label).ok_or_else(|| {
            ApiError::schema(format!(
                "op must be \"coplot\", \"hurst\" or \"subset\", got {op_label:?}"
            ))
        })?;
        let dataset_v = v
            .get("dataset")
            .ok_or_else(|| ApiError::schema("missing field \"dataset\""))?;
        let dataset_obj = as_object(dataset_v, "dataset")?;
        let dataset = match (dataset_obj.get("name"), dataset_obj.get("paths")) {
            (Some(name), None) if dataset_obj.len() == 1 => DatasetSpec::Named(
                name.as_str()
                    .ok_or_else(|| ApiError::schema("dataset.name must be a string"))?
                    .to_string(),
            ),
            (None, Some(paths)) if dataset_obj.len() == 1 => {
                let JsonValue::Array(items) = paths else {
                    return Err(ApiError::schema("dataset.paths must be an array"));
                };
                let mut out = Vec::with_capacity(items.len());
                for p in items {
                    out.push(
                        p.as_str()
                            .ok_or_else(|| ApiError::schema("dataset.paths must hold strings"))?
                            .to_string(),
                    );
                }
                DatasetSpec::Paths(out)
            }
            _ => {
                return Err(ApiError::schema(
                    "dataset must be {\"name\": ...} or {\"paths\": [...]}",
                ))
            }
        };
        let mut r = AnalysisRequest::new(op, dataset);
        if let Some(jobs) = opt_u64(v, "jobs")? {
            r.jobs = jobs;
        }
        if let Some(seed) = opt_u64(v, "seed")? {
            r.seed = seed;
        }
        if let Some(vars) = v.get("vars") {
            let JsonValue::Array(items) = vars else {
                return Err(ApiError::schema("vars must be an array of strings"));
            };
            r.vars = Vec::with_capacity(items.len());
            for item in items {
                r.vars.push(
                    item.as_str()
                        .ok_or_else(|| ApiError::schema("vars must hold strings"))?
                        .to_string(),
                );
            }
        }
        match v.get("format") {
            None | Some(JsonValue::Null) => {}
            Some(f) => {
                r.format = Some(
                    f.as_str()
                        .ok_or_else(|| ApiError::schema("format must be a string"))?
                        .to_string(),
                );
            }
        }
        if let Some(mc) = opt_f64(v, "min_correlation")? {
            r.min_correlation = Some(mc);
        }
        if let Some(k) = opt_u64(v, "subset_size")? {
            r.subset_size = k;
        }
        if let Some(a) = opt_f64(v, "max_alienation")? {
            r.max_alienation = a;
        }
        if let Some(t) = opt_u64(v, "top")? {
            r.top = t;
        }
        if let Some(d) = opt_u64(v, "deadline_ms")? {
            r.deadline_ms = Some(d);
        }
        Ok(r)
    }
}

/// One response from the analysis API; the variant always matches the
/// request's [`Operation`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisResponse {
    /// A Co-plot map.
    Coplot(CoplotOut),
    /// A Hurst-estimate matrix.
    Hurst(HurstOut),
    /// Ranked variable subsets.
    Subset(SubsetOut),
}

impl AnalysisResponse {
    /// Wire label of the carried result ("coplot", "hurst", "subset").
    pub fn op(&self) -> Operation {
        match self {
            AnalysisResponse::Coplot(_) => Operation::Coplot,
            AnalysisResponse::Hurst(_) => Operation::Hurst,
            AnalysisResponse::Subset(_) => Operation::Subset,
        }
    }

    /// Serialize in the fixed wire order. Responses are pure functions of
    /// the canonical request — no timestamps, no timings — which is what
    /// lets the CLI and the server emit byte-identical bodies.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"op\":\"");
        s.push_str(self.op().label());
        s.push_str("\",\"result\":");
        match self {
            AnalysisResponse::Coplot(c) => c.encode(&mut s),
            AnalysisResponse::Hurst(h) => h.encode(&mut s),
            AnalysisResponse::Subset(x) => x.encode(&mut s),
        }
        s.push('}');
        s
    }

    /// Parse a response from JSON.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json` or `Schema`.
    pub fn from_json(text: &str) -> Result<AnalysisResponse, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        AnalysisResponse::from_value(&v)
    }

    fn from_value(v: &JsonValue) -> Result<AnalysisResponse, ApiError> {
        let op_label = get_str(v, "op")?;
        let op = Operation::from_label(op_label)
            .ok_or_else(|| ApiError::schema(format!("unknown op {op_label:?}")))?;
        let result = v
            .get("result")
            .ok_or_else(|| ApiError::schema("missing field \"result\""))?;
        Ok(match op {
            Operation::Coplot => AnalysisResponse::Coplot(CoplotOut::decode(result)?),
            Operation::Hurst => AnalysisResponse::Hurst(HurstOut::decode(result)?),
            Operation::Subset => AnalysisResponse::Subset(SubsetOut::decode(result)?),
        })
    }
}

/// A serializable Co-plot map (the wire shape of [`CoplotResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CoplotOut {
    /// Observation names.
    pub observations: Vec<String>,
    /// One `[x, y]` per observation.
    pub coords: Vec<[f64; 2]>,
    /// Fitted arrows.
    pub arrows: Vec<ArrowOut>,
    /// Guttman's coefficient of alienation.
    pub alienation: f64,
    /// Kruskal stress-1.
    pub stress: f64,
    /// Upper-triangle dissimilarities in pair order.
    pub dissimilarities: Vec<f64>,
    /// Variables removed by elimination, in removal order.
    pub removed: Vec<String>,
}

/// A serializable arrow.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrowOut {
    /// Variable name.
    pub name: String,
    /// Unit direction `[x, y]`.
    pub direction: [f64; 2],
    /// Maximal projection correlation.
    pub correlation: f64,
}

impl CoplotOut {
    /// Capture an engine result for the wire.
    pub fn from_result(r: &CoplotResult) -> CoplotOut {
        CoplotOut {
            observations: r.observations.clone(),
            coords: (0..r.coords.rows())
                .map(|i| [r.coords[(i, 0)], r.coords[(i, 1)]])
                .collect(),
            arrows: r
                .arrows
                .iter()
                .map(|a| ArrowOut {
                    name: a.name.clone(),
                    direction: a.direction,
                    correlation: a.correlation,
                })
                .collect(),
            alienation: r.alienation,
            stress: r.stress,
            dissimilarities: r.dissimilarities.pairs().to_vec(),
            removed: r.removed.clone(),
        }
    }

    /// Rebuild a [`CoplotResult`] (for rendering the text/SVG map from a
    /// wire response — the CLI adapter path).
    ///
    /// # Errors
    /// [`ApiError`] of kind `Schema` when the shapes disagree.
    pub fn to_result(&self) -> Result<CoplotResult, ApiError> {
        let n = self.observations.len();
        if self.coords.len() != n {
            return Err(ApiError::schema(format!(
                "coords rows ({}) != observations ({n})",
                self.coords.len()
            )));
        }
        if self.dissimilarities.len() != n * (n - 1) / 2 {
            return Err(ApiError::schema(format!(
                "dissimilarities length {} is not C({n},2)",
                self.dissimilarities.len()
            )));
        }
        let mut flat = Vec::with_capacity(2 * n);
        for c in &self.coords {
            flat.extend_from_slice(c);
        }
        Ok(CoplotResult {
            observations: self.observations.clone(),
            coords: Matrix::from_vec(n, 2, flat),
            arrows: self
                .arrows
                .iter()
                .map(|a| crate::arrows::Arrow {
                    name: a.name.clone(),
                    direction: a.direction,
                    correlation: a.correlation,
                })
                .collect(),
            alienation: self.alienation,
            stress: self.stress,
            dissimilarities: DissimilarityMatrix::from_pairs(n, self.dissimilarities.clone()),
            removed: self.removed.clone(),
        })
    }

    fn encode(&self, s: &mut String) {
        s.push_str("{\"observations\":[");
        push_str_array(s, &self.observations);
        s.push_str("],\"coords\":[");
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{},{}]", c[0], c[1]));
        }
        s.push_str("],\"arrows\":[");
        for (i, a) in self.arrows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"direction\":[{},{}],\"correlation\":{}}}",
                escape_str(&a.name),
                a.direction[0],
                a.direction[1],
                a.correlation
            ));
        }
        s.push_str(&format!(
            "],\"alienation\":{},\"stress\":{},\"dissimilarities\":[",
            self.alienation, self.stress
        ));
        push_f64_array(s, &self.dissimilarities);
        s.push_str("],\"removed\":[");
        push_str_array(s, &self.removed);
        s.push_str("]}");
    }

    fn decode(v: &JsonValue) -> Result<CoplotOut, ApiError> {
        let observations = get_str_array(v, "observations")?;
        let coords_v = get_array(v, "coords")?;
        let mut coords = Vec::with_capacity(coords_v.len());
        for c in coords_v {
            coords.push(get_pair(c, "coords entry")?);
        }
        let arrows_v = get_array(v, "arrows")?;
        let mut arrows = Vec::with_capacity(arrows_v.len());
        for a in arrows_v {
            arrows.push(ArrowOut {
                name: get_str(a, "name")?.to_string(),
                direction: get_pair(
                    a.get("direction")
                        .ok_or_else(|| ApiError::schema("missing field \"direction\""))?,
                    "direction",
                )?,
                correlation: get_f64(a, "correlation")?,
            });
        }
        Ok(CoplotOut {
            observations,
            coords,
            arrows,
            alienation: get_f64(v, "alienation")?,
            stress: get_f64(v, "stress")?,
            dissimilarities: get_f64_array(v, "dissimilarities")?,
            removed: get_str_array(v, "removed")?,
        })
    }
}

/// A serializable Hurst-estimate matrix: one row per workload, one column
/// per (estimator, series) pair; `None` where an estimator declined.
#[derive(Debug, Clone, PartialEq)]
pub struct HurstOut {
    /// Workload names (row labels).
    pub workloads: Vec<String>,
    /// Column labels (estimator label + series code, e.g. `"R/Sa"`).
    pub columns: Vec<String>,
    /// `rows[w][c]`: the estimate, or `None`.
    pub rows: Vec<Vec<Option<f64>>>,
}

impl HurstOut {
    fn encode(&self, s: &mut String) {
        s.push_str("{\"workloads\":[");
        push_str_array(s, &self.workloads);
        s.push_str("],\"columns\":[");
        push_str_array(s, &self.columns);
        s.push_str("],\"rows\":[");
        push_opt_rows(s, &self.rows);
        s.push_str("]}");
    }

    fn decode(v: &JsonValue) -> Result<HurstOut, ApiError> {
        Ok(HurstOut {
            workloads: get_str_array(v, "workloads")?,
            columns: get_str_array(v, "columns")?,
            rows: decode_opt_rows(v)?,
        })
    }
}

/// Encode `rows` as nested JSON arrays of numbers-or-null (the body of a
/// Hurst matrix).
fn push_opt_rows(s: &mut String, rows: &[Vec<Option<f64>>]) {
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (k, cell) in row.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            match cell {
                Some(h) => s.push_str(&format!("{h}")),
                None => s.push_str("null"),
            }
        }
        s.push(']');
    }
}

fn decode_opt_rows(v: &JsonValue) -> Result<Vec<Vec<Option<f64>>>, ApiError> {
    let rows_v = get_array(v, "rows")?;
    let mut rows = Vec::with_capacity(rows_v.len());
    for row in rows_v {
        let JsonValue::Array(cells) = row else {
            return Err(ApiError::schema("rows must hold arrays"));
        };
        let mut out = Vec::with_capacity(cells.len());
        for cell in cells {
            out.push(match cell {
                JsonValue::Null => None,
                JsonValue::Number(h) => Some(*h),
                _ => return Err(ApiError::schema("row cells must be numbers or null")),
            });
        }
        rows.push(out);
    }
    Ok(rows)
}

/// Serializable ranked subset-search results.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetOut {
    /// Best subsets first.
    pub results: Vec<SubsetEntry>,
}

/// One scored subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetEntry {
    /// Chosen variable names.
    pub variables: Vec<String>,
    /// Alienation of the subset's map.
    pub alienation: f64,
    /// Mean arrow correlation of the subset's map.
    pub mean_correlation: f64,
    /// Procrustes RMSD against the full-variable map.
    pub map_conservation_rmsd: f64,
}

impl SubsetOut {
    fn encode(&self, s: &mut String) {
        s.push_str("{\"results\":[");
        push_subset_entries(s, &self.results);
        s.push_str("]}");
    }

    fn decode(v: &JsonValue) -> Result<SubsetOut, ApiError> {
        Ok(SubsetOut {
            results: decode_subset_entries(get_array(v, "results")?)?,
        })
    }
}

/// Encode scored subsets (shared by [`SubsetOut`] and subset
/// [`ShardResponse`]s).
fn push_subset_entries(s: &mut String, entries: &[SubsetEntry]) {
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"variables\":[");
        push_str_array(s, &e.variables);
        s.push_str(&format!(
            "],\"alienation\":{},\"mean_correlation\":{},\"map_conservation_rmsd\":{}}}",
            e.alienation, e.mean_correlation, e.map_conservation_rmsd
        ));
    }
}

fn decode_subset_entries(items: &[JsonValue]) -> Result<Vec<SubsetEntry>, ApiError> {
    let mut results = Vec::with_capacity(items.len());
    for e in items {
        results.push(SubsetEntry {
            variables: get_str_array(e, "variables")?,
            alienation: get_f64(e, "alienation")?,
            mean_correlation: get_f64(e, "mean_correlation")?,
            map_conservation_rmsd: get_f64(e, "map_conservation_rmsd")?,
        });
    }
    Ok(results)
}

/// The versioned wire envelope every endpoint parses.
///
/// A body **without** an `api_version` key is version 1: the original
/// flat [`AnalysisRequest`] object, parsed exactly as before, so every
/// pre-envelope client, golden test and cache digest keeps its bytes. A
/// body with `"api_version":1` is the same flat object with the version
/// key tolerated. Version 2 wraps payloads as
/// `{"api_version":2,"op":...,"body":{...}}` and adds the distribution
/// op `"shard"` carrying a [`ShardRequest`]. Any other version is a
/// typed [`ApiErrorKind::Version`] error (HTTP 400), never a parse
/// panic.
///
/// [`Envelope::canonical_digest`] always delegates to the carried
/// request's canonical **v1** encoding, so the same analysis arriving as
/// v1 or v2 shares one cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Wire API version (a member of [`API_VERSIONS`]).
    pub api_version: u64,
    /// The carried request.
    pub payload: EnvelopePayload,
}

/// What an [`Envelope`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvelopePayload {
    /// A plain analysis request (all versions).
    Analysis(AnalysisRequest),
    /// A distribution shard request (version 2 only).
    Shard(ShardRequest),
}

impl Envelope {
    /// Wrap a request in the version-1 (flat) encoding.
    pub fn v1(request: AnalysisRequest) -> Envelope {
        Envelope {
            api_version: 1,
            payload: EnvelopePayload::Analysis(request),
        }
    }

    /// Wrap a request in the version-2 envelope encoding.
    pub fn v2(request: AnalysisRequest) -> Envelope {
        Envelope {
            api_version: 2,
            payload: EnvelopePayload::Analysis(request),
        }
    }

    /// Wrap a shard request (version 2 by construction).
    pub fn shard(request: ShardRequest) -> Envelope {
        Envelope {
            api_version: 2,
            payload: EnvelopePayload::Shard(request),
        }
    }

    /// Wire label of the carried op (`"coplot"`, `"hurst"`, `"subset"`,
    /// `"shard"`).
    pub fn op_label(&self) -> &'static str {
        match &self.payload {
            EnvelopePayload::Analysis(r) => r.op.label(),
            EnvelopePayload::Shard(_) => "shard",
        }
    }

    /// Unwrap the analysis request, rejecting shard payloads (for
    /// endpoints that execute analyses).
    ///
    /// # Errors
    /// [`ApiError`] of kind `Schema` for a shard payload.
    pub fn into_analysis(self) -> Result<AnalysisRequest, ApiError> {
        match self.payload {
            EnvelopePayload::Analysis(r) => Ok(r),
            EnvelopePayload::Shard(_) => Err(ApiError::schema(
                "shard requests must be POSTed to /v2/shard",
            )),
        }
    }

    /// Parse any supported version from JSON.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json`, `Schema`, `Value`, or `Version` for
    /// an unsupported `api_version`.
    pub fn from_json(text: &str) -> Result<Envelope, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        let obj = as_object(&v, "request")?;
        let Some(version_v) = obj.get("api_version") else {
            return Ok(Envelope::v1(AnalysisRequest::from_value(&v, false)?));
        };
        let version = version_v.as_u64().ok_or_else(|| {
            ApiError::version("api_version must be a non-negative integer")
        })?;
        match version {
            1 => Ok(Envelope::v1(AnalysisRequest::from_value(&v, true)?)),
            2 => {
                for key in obj.keys() {
                    match key.as_str() {
                        "api_version" | "op" | "body" => {}
                        other => {
                            return Err(ApiError::schema(format!(
                                "unknown field {other:?} in v2 envelope"
                            )));
                        }
                    }
                }
                let op_label = get_str(&v, "op")?;
                let body = v
                    .get("body")
                    .ok_or_else(|| ApiError::schema("missing field \"body\""))?;
                if op_label == "shard" {
                    return Ok(Envelope::shard(ShardRequest::from_value(body)?));
                }
                let op = Operation::from_label(op_label).ok_or_else(|| {
                    ApiError::schema(format!(
                        "op must be \"coplot\", \"hurst\", \"subset\" or \"shard\", got {op_label:?}"
                    ))
                })?;
                let body_obj = as_object(body, "body")?;
                let request = if body_obj.contains_key("op") {
                    AnalysisRequest::from_value(body, false)?
                } else {
                    // The envelope op names the analysis; a body without
                    // its own "op" inherits it.
                    let mut filled = body_obj.clone();
                    filled.insert("op".to_string(), JsonValue::String(op_label.to_string()));
                    AnalysisRequest::from_value(&JsonValue::Object(filled), false)?
                };
                if request.op != op {
                    return Err(ApiError::schema(format!(
                        "envelope op {op_label:?} does not match body op {:?}",
                        request.op.label()
                    )));
                }
                Ok(Envelope::v2(request))
            }
            other => Err(ApiError::version(format!(
                "unsupported api_version {other} (supported: {API_VERSIONS:?})"
            ))),
        }
    }

    /// Serialize in the envelope's own version. Version 1 emits the flat
    /// request (the pre-envelope bytes); version 2 emits the wrapped
    /// form with the full flat request as `body`.
    pub fn to_json(&self) -> String {
        match &self.payload {
            EnvelopePayload::Analysis(r) if self.api_version == 1 => r.to_json(),
            EnvelopePayload::Analysis(r) => format!(
                "{{\"api_version\":{},\"op\":\"{}\",\"body\":{}}}",
                self.api_version,
                r.op.label(),
                r.encode(true)
            ),
            EnvelopePayload::Shard(s) => format!(
                "{{\"api_version\":{},\"op\":\"shard\",\"body\":{}}}",
                self.api_version,
                s.encode(true)
            ),
        }
    }

    /// The carried request's canonical digest — identical whether the
    /// request arrived as v1 or v2, which keeps the content-addressed
    /// cache's keys stable across the redesign.
    ///
    /// # Errors
    /// The canonicalization's [`ApiError`]s.
    pub fn canonical_digest(&self) -> Result<u64, ApiError> {
        match &self.payload {
            EnvelopePayload::Analysis(r) => r.canonical_digest(),
            EnvelopePayload::Shard(s) => s.canonical_digest(),
        }
    }
}

/// One shard of a distributed analysis: the full base request plus which
/// contiguous slice of its work this worker owns. Slices use *absolute*
/// indices so a shard's result is independent of how the coordinator
/// partitioned the total — the heart of the nodes×threads bit-identity
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// The analysis being distributed (same canonical form as a
    /// single-node request; shard seeding derives from its seed).
    pub base: AnalysisRequest,
    /// The slice of work.
    pub part: ShardPart,
}

/// The work slice a [`ShardRequest`] asks for. Only a subset search is
/// split; every other request travels whole to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPart {
    /// Lexicographic C(p,k) combination indices `lo..hi` (half-open) of a
    /// subset request.
    Combos {
        /// First combination index (inclusive).
        lo: u64,
        /// One past the last combination index.
        hi: u64,
    },
    /// The whole request: every coplot and hurst request, and a subset
    /// request whose combination space is empty.
    Whole,
}

impl ShardPart {
    fn encode(&self, s: &mut String) {
        match self {
            ShardPart::Combos { lo, hi } => {
                s.push_str(&format!("{{\"kind\":\"combos\",\"lo\":{lo},\"hi\":{hi}}}"));
            }
            ShardPart::Whole => s.push_str("{\"kind\":\"whole\"}"),
        }
    }

    fn from_value(v: &JsonValue) -> Result<ShardPart, ApiError> {
        let obj = as_object(v, "part")?;
        for key in obj.keys() {
            match key.as_str() {
                "kind" | "lo" | "hi" => {}
                other => {
                    return Err(ApiError::schema(format!(
                        "unknown field {other:?} in shard part"
                    )));
                }
            }
        }
        match get_str(v, "kind")? {
            "whole" if obj.len() == 1 => Ok(ShardPart::Whole),
            "whole" => Err(ApiError::schema("a \"whole\" part takes no range")),
            "combos" => Ok(ShardPart::Combos {
                lo: opt_u64(v, "lo")?.ok_or_else(|| ApiError::schema("missing field \"lo\""))?,
                hi: opt_u64(v, "hi")?.ok_or_else(|| ApiError::schema("missing field \"hi\""))?,
            }),
            other => Err(ApiError::schema(format!(
                "part kind must be \"combos\" or \"whole\", got {other:?}"
            ))),
        }
    }
}

impl ShardRequest {
    /// Validate and normalize: canonicalize the base request, check the
    /// slice range, and check the part kind matches the base op (combos ⇒
    /// subset; whole fits any op).
    ///
    /// # Errors
    /// [`ApiError`] with kind `Value` for bad ranges or mismatched
    /// part/op pairs.
    pub fn canonicalize(&self) -> Result<ShardRequest, ApiError> {
        let base = self.base.canonicalize()?;
        if let ShardPart::Combos { lo, hi } = self.part {
            check_int("lo", lo)?;
            check_int("hi", hi)?;
            if lo >= hi {
                return Err(ApiError::value(format!(
                    "shard range must be non-empty, got [{lo}, {hi})"
                )));
            }
            if base.op != Operation::Subset {
                return Err(ApiError::value(format!(
                    "part kind \"combos\" cannot slice a {:?} request",
                    base.op.label()
                )));
            }
        }
        Ok(ShardRequest {
            base,
            part: self.part,
        })
    }

    /// Serialize (canonical field order).
    pub fn to_json(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, with_deadline: bool) -> String {
        let mut s = String::with_capacity(320);
        s.push_str("{\"base\":");
        s.push_str(&self.base.encode(with_deadline));
        s.push_str(",\"part\":");
        self.part.encode(&mut s);
        s.push('}');
        s
    }

    /// Parse from JSON.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json`, `Schema`, or `Value`.
    pub fn from_json(text: &str) -> Result<ShardRequest, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        ShardRequest::from_value(&v)
    }

    fn from_value(v: &JsonValue) -> Result<ShardRequest, ApiError> {
        let obj = as_object(v, "shard request")?;
        for key in obj.keys() {
            match key.as_str() {
                "base" | "part" => {}
                other => {
                    return Err(ApiError::schema(format!(
                        "unknown field {other:?} in shard request"
                    )));
                }
            }
        }
        let base_v = v
            .get("base")
            .ok_or_else(|| ApiError::schema("missing field \"base\""))?;
        let part_v = v
            .get("part")
            .ok_or_else(|| ApiError::schema("missing field \"part\""))?;
        Ok(ShardRequest {
            base: AnalysisRequest::from_value(base_v, false)?,
            part: ShardPart::from_value(part_v)?,
        })
    }

    /// FNV-1a digest of the canonical encoding without `deadline_ms`.
    ///
    /// # Errors
    /// The canonicalization's [`ApiError`]s.
    pub fn canonical_digest(&self) -> Result<u64, ApiError> {
        let r = self.canonicalize()?;
        Ok(fnv1a(r.encode(false).as_bytes()))
    }
}

/// A worker's answer to one [`ShardRequest`]; the variant matches the
/// request's [`ShardPart`] kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponse {
    /// Scored subsets for the shard's combination window, in
    /// combination order — unranked; ranking happens once at reassembly.
    Subset {
        /// One entry per combination that met the alienation ceiling.
        entries: Vec<SubsetEntry>,
    },
    /// The complete response for a `Whole` shard.
    Whole(AnalysisResponse),
}

impl ShardResponse {
    /// Wire label of the carried shard kind.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ShardResponse::Subset { .. } => "subset",
            ShardResponse::Whole(_) => "whole",
        }
    }

    /// Serialize in the fixed wire order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"shard\":\"");
        s.push_str(self.kind_label());
        s.push_str("\",\"result\":");
        match self {
            ShardResponse::Subset { entries } => {
                s.push_str("{\"entries\":[");
                push_subset_entries(&mut s, entries);
                s.push_str("]}");
            }
            ShardResponse::Whole(r) => s.push_str(&r.to_json()),
        }
        s.push('}');
        s
    }

    /// Parse from JSON.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json` or `Schema`.
    pub fn from_json(text: &str) -> Result<ShardResponse, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        let kind = get_str(&v, "shard")?;
        let result = v
            .get("result")
            .ok_or_else(|| ApiError::schema("missing field \"result\""))?;
        match kind {
            "subset" => Ok(ShardResponse::Subset {
                entries: decode_subset_entries(get_array(result, "entries")?)?,
            }),
            "whole" => Ok(ShardResponse::Whole(AnalysisResponse::from_value(result)?)),
            other => Err(ApiError::schema(format!(
                "shard must be \"subset\" or \"whole\", got {other:?}"
            ))),
        }
    }
}

/// The one typed error body every endpoint and shard op emits:
/// `{"error":{"kind":...,"message":...[,"retry_after_ms":N]}}`.
/// `retry_after_ms` appears exactly when the response also carries a
/// `Retry-After` header (503s), so machine clients get the backoff hint
/// without header parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable kebab-case error class (`"bad-json"`, `"overloaded"`, ...).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// Suggested client backoff, when the error is retryable.
    pub retry_after_ms: Option<u64>,
}

impl ErrorBody {
    /// An error body with no retry hint.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind: kind.into(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attach a retry hint.
    #[must_use]
    pub fn with_retry_after_ms(mut self, ms: u64) -> ErrorBody {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Serialize in the fixed wire order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"error\":{\"kind\":\"");
        s.push_str(&escape_str(&self.kind));
        s.push_str("\",\"message\":\"");
        s.push_str(&escape_str(&self.message));
        s.push('"');
        if let Some(ms) = self.retry_after_ms {
            s.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        s.push_str("}}");
        s
    }

    /// Parse from JSON.
    ///
    /// # Errors
    /// [`ApiError`] of kind `Json` or `Schema`.
    pub fn from_json(text: &str) -> Result<ErrorBody, ApiError> {
        let v = parse_json(text).map_err(ApiError::json)?;
        let inner = v
            .get("error")
            .ok_or_else(|| ApiError::schema("missing field \"error\""))?;
        Ok(ErrorBody {
            kind: get_str(inner, "kind")?.to_string(),
            message: get_str(inner, "message")?.to_string(),
            retry_after_ms: opt_u64(inner, "retry_after_ms")?,
        })
    }
}

/// What kind of API malformation an [`ApiError`] reports; each maps to a
/// fixed HTTP status in `wl-serve` (all four are 400s — executor failures
/// ride [`CoplotError`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiErrorKind {
    /// The body was not valid JSON.
    Json,
    /// Valid JSON of the wrong shape (missing/unknown/mistyped field).
    Schema,
    /// Well-shaped but out-of-range or non-finite value.
    Value,
    /// An `api_version` this build does not speak ([`API_VERSIONS`]).
    Version,
}

impl ApiErrorKind {
    /// Stable kebab-case label (used in error bodies and metrics).
    pub fn label(&self) -> &'static str {
        match self {
            ApiErrorKind::Json => "bad-json",
            ApiErrorKind::Schema => "bad-schema",
            ApiErrorKind::Value => "bad-value",
            ApiErrorKind::Version => "bad-version",
        }
    }
}

/// A typed request/response malformation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Which class of malformation.
    pub kind: ApiErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl ApiError {
    /// A `Json`-kind error.
    pub fn json(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::Json,
            message: message.into(),
        }
    }

    /// A `Schema`-kind error.
    pub fn schema(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::Schema,
            message: message.into(),
        }
    }

    /// A `Value`-kind error.
    pub fn value(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::Value,
            message: message.into(),
        }
    }

    /// A `Version`-kind error.
    pub fn version(message: impl Into<String>) -> ApiError {
        ApiError {
            kind: ApiErrorKind::Version,
            message: message.into(),
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<ApiError> for CoplotError {
    fn from(e: ApiError) -> CoplotError {
        CoplotError::InvalidConfig(e.to_string())
    }
}

/// FNV-1a over a byte string (the digest primitive for requests and
/// datasets).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check_int(field: &str, value: u64) -> Result<(), ApiError> {
    if value > MAX_EXACT_INT {
        return Err(ApiError::value(format!(
            "{field} must be <= 2^53 to round-trip through JSON numbers"
        )));
    }
    Ok(())
}

fn push_str_array(s: &mut String, items: &[String]) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(&escape_str(item));
        s.push('"');
    }
}

fn push_f64_array(s: &mut String, items: &[f64]) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{x}"));
    }
}

fn as_object<'a>(
    v: &'a JsonValue,
    what: &str,
) -> Result<&'a std::collections::BTreeMap<String, JsonValue>, ApiError> {
    match v {
        JsonValue::Object(map) => Ok(map),
        _ => Err(ApiError::schema(format!("{what} must be a JSON object"))),
    }
}

fn get_str<'a>(v: &'a JsonValue, field: &str) -> Result<&'a str, ApiError> {
    v.get(field)
        .ok_or_else(|| ApiError::schema(format!("missing field {field:?}")))?
        .as_str()
        .ok_or_else(|| ApiError::schema(format!("{field} must be a string")))
}

fn get_f64(v: &JsonValue, field: &str) -> Result<f64, ApiError> {
    let x = v
        .get(field)
        .ok_or_else(|| ApiError::schema(format!("missing field {field:?}")))?
        .as_f64()
        .ok_or_else(|| ApiError::schema(format!("{field} must be a number")))?;
    if !x.is_finite() {
        return Err(ApiError::value(format!("{field} must be finite")));
    }
    Ok(x)
}

fn opt_f64(v: &JsonValue, field: &str) -> Result<Option<f64>, ApiError> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(_) => get_f64(v, field).map(Some),
    }
}

fn opt_u64(v: &JsonValue, field: &str) -> Result<Option<u64>, ApiError> {
    match v.get(field) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| ApiError::schema(format!("{field} must be a non-negative integer")))
            .map(Some),
    }
}

fn get_array<'a>(v: &'a JsonValue, field: &str) -> Result<&'a [JsonValue], ApiError> {
    match v
        .get(field)
        .ok_or_else(|| ApiError::schema(format!("missing field {field:?}")))?
    {
        JsonValue::Array(items) => Ok(items),
        _ => Err(ApiError::schema(format!("{field} must be an array"))),
    }
}

fn get_str_array(v: &JsonValue, field: &str) -> Result<Vec<String>, ApiError> {
    get_array(v, field)?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| ApiError::schema(format!("{field} must hold strings")))
        })
        .collect()
}

fn get_f64_array(v: &JsonValue, field: &str) -> Result<Vec<f64>, ApiError> {
    get_array(v, field)?
        .iter()
        .map(|item| {
            let x = item
                .as_f64()
                .ok_or_else(|| ApiError::schema(format!("{field} must hold numbers")))?;
            if !x.is_finite() {
                return Err(ApiError::value(format!("{field} must hold finite numbers")));
            }
            Ok(x)
        })
        .collect()
}

fn get_pair(v: &JsonValue, what: &str) -> Result<[f64; 2], ApiError> {
    let JsonValue::Array(items) = v else {
        return Err(ApiError::schema(format!("{what} must be a 2-array")));
    };
    if items.len() != 2 {
        return Err(ApiError::schema(format!("{what} must have exactly 2 numbers")));
    }
    let x = items[0]
        .as_f64()
        .ok_or_else(|| ApiError::schema(format!("{what} must hold numbers")))?;
    let y = items[1]
        .as_f64()
        .ok_or_else(|| ApiError::schema(format!("{what} must hold numbers")))?;
    if !x.is_finite() || !y.is_finite() {
        return Err(ApiError::value(format!("{what} must hold finite numbers")));
    }
    Ok([x, y])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn coplot_request() -> AnalysisRequest {
        AnalysisRequest::new(Operation::Coplot, DatasetSpec::Named("table1".into()))
    }

    #[test]
    fn canonicalization_fills_defaults() {
        let r = coplot_request().canonicalize().unwrap();
        assert_eq!(r.vars, DEFAULT_VARS.map(String::from).to_vec());
        assert_eq!(r.jobs, DEFAULT_JOBS);
        assert_eq!(r.seed, DEFAULT_SEED);
    }

    #[test]
    fn canonicalization_clears_irrelevant_fields() {
        let mut r = AnalysisRequest::new(Operation::Hurst, DatasetSpec::Named("table1".into()));
        r.vars = vec!["Rm".into()];
        r.min_correlation = Some(0.8);
        r.subset_size = 4;
        let c = r.canonicalize().unwrap();
        assert!(c.vars.is_empty());
        assert_eq!(c.min_correlation, None);
        assert_eq!(c.subset_size, DEFAULT_SUBSET_SIZE);
        // ...so a hurst request with stray coplot fields digests the same.
        let plain = AnalysisRequest::new(Operation::Hurst, DatasetSpec::Named("table1".into()));
        assert_eq!(
            r.canonical_digest().unwrap(),
            plain.canonical_digest().unwrap()
        );
    }

    #[test]
    fn digest_ignores_deadline_but_json_keeps_it() {
        let mut with = coplot_request();
        with.deadline_ms = Some(2500);
        let without = coplot_request();
        assert_eq!(
            with.canonical_digest().unwrap(),
            without.canonical_digest().unwrap()
        );
        assert!(with.to_canonical_json().unwrap().contains("deadline_ms"));
        assert!(!without.to_canonical_json().unwrap().contains("deadline_ms"));
    }

    #[test]
    fn format_is_cleared_for_named_and_kept_for_paths() {
        let mut named = coplot_request();
        named.format = Some("gwf".into());
        let canon = named.canonicalize().unwrap();
        assert_eq!(canon.format, None);
        // ...so a named-dataset request with a stray format digests the same.
        assert_eq!(
            named.canonical_digest().unwrap(),
            coplot_request().canonical_digest().unwrap()
        );
        let mut paths = AnalysisRequest::new(
            Operation::Coplot,
            DatasetSpec::Paths(vec!["a.gwf".into(), "b.gwf".into(), "c.gwf".into()]),
        );
        let auto_digest = paths.canonical_digest().unwrap();
        paths.format = Some("gwf".into());
        let canon = paths.canonicalize().unwrap();
        assert_eq!(canon.format.as_deref(), Some("gwf"));
        assert_ne!(paths.canonical_digest().unwrap(), auto_digest);
        assert!(paths.to_canonical_json().unwrap().contains("\"format\":\"gwf\""));
        let back = AnalysisRequest::from_json(&paths.to_canonical_json().unwrap()).unwrap();
        assert_eq!(back.format.as_deref(), Some("gwf"));
    }

    #[test]
    fn unknown_format_is_rejected() {
        let mut r = AnalysisRequest::new(
            Operation::Coplot,
            DatasetSpec::Paths(vec!["a".into()]),
        );
        r.format = Some("parquet".into());
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
    }

    #[test]
    fn rejects_bad_values() {
        let mut r = coplot_request();
        r.min_correlation = Some(f64::NAN);
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
        let mut r = coplot_request();
        r.jobs = 0;
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
        let mut r = coplot_request();
        r.seed = MAX_EXACT_INT + 1;
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
        let mut r = AnalysisRequest::new(Operation::Subset, DatasetSpec::Named("x".into()));
        r.subset_size = 1;
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
    }

    #[test]
    fn named_dataset_jobs_are_capped() {
        let mut r = coplot_request();
        r.jobs = MAX_NAMED_JOBS;
        assert_eq!(r.canonicalize().unwrap().jobs, MAX_NAMED_JOBS);
        r.jobs = MAX_NAMED_JOBS + 1;
        assert_eq!(r.canonicalize().unwrap_err().kind, ApiErrorKind::Value);
        // A path dataset's files define its jobs, so its `jobs` is
        // neutralized rather than checked.
        let mut r = AnalysisRequest::new(
            Operation::Coplot,
            DatasetSpec::Paths(vec!["a.swf".into()]),
        );
        r.jobs = 1 << 45;
        assert_eq!(r.canonicalize().unwrap().jobs, DEFAULT_JOBS);
    }

    #[test]
    fn request_parse_rejects_malformed_shapes() {
        for (body, kind) in [
            ("{", ApiErrorKind::Json),
            ("42", ApiErrorKind::Schema),
            ("{}", ApiErrorKind::Schema),
            (r#"{"op":"coplot"}"#, ApiErrorKind::Schema),
            (r#"{"op":"nope","dataset":{"name":"t"}}"#, ApiErrorKind::Schema),
            (
                r#"{"op":"coplot","dataset":{"name":"t"},"bogus":1}"#,
                ApiErrorKind::Schema,
            ),
            (
                r#"{"op":"coplot","dataset":{"name":"t","paths":[]}}"#,
                ApiErrorKind::Schema,
            ),
            (
                r#"{"op":"coplot","dataset":{"name":"t"},"jobs":-3}"#,
                ApiErrorKind::Schema,
            ),
            (
                r#"{"op":"coplot","dataset":{"name":"t"},"vars":"Rm"}"#,
                ApiErrorKind::Schema,
            ),
        ] {
            let err = AnalysisRequest::from_json(body).unwrap_err();
            assert_eq!(err.kind, kind, "{body}: {err}");
        }
    }

    #[test]
    fn coplot_out_round_trips_through_result() {
        let out = CoplotOut {
            observations: vec!["a".into(), "b".into(), "c".into()],
            coords: vec![[0.5, -0.25], [-1.0, 0.125], [0.5, 0.125]],
            arrows: vec![ArrowOut {
                name: "v".into(),
                direction: [0.6, 0.8],
                correlation: 0.93,
            }],
            alienation: 0.07,
            stress: 0.04,
            dissimilarities: vec![1.0, 2.5, 0.75],
            removed: vec!["w".into()],
        };
        let back = CoplotOut::from_result(&out.to_result().unwrap());
        assert_eq!(out, back);
    }

    #[test]
    fn coplot_out_rejects_inconsistent_shapes() {
        let mut out = CoplotOut {
            observations: vec!["a".into(), "b".into(), "c".into()],
            coords: vec![[0.0, 0.0]; 3],
            arrows: vec![],
            alienation: 0.0,
            stress: 0.0,
            dissimilarities: vec![0.0; 3],
            removed: vec![],
        };
        out.coords.pop();
        assert!(out.to_result().is_err());
        out.coords.push([0.0, 0.0]);
        out.dissimilarities.pop();
        assert!(out.to_result().is_err());
    }

    /// A non-empty token: arbitrary text behind a letter, so it survives
    /// the canonicalizer's empty-string checks while still fuzzing
    /// escaping.
    fn arb_token() -> impl Strategy<Value = String> {
        ".*".prop_map(|s| format!("v{s}"))
    }

    fn arb_opt<S: Strategy + 'static>(
        inner: S,
    ) -> impl Strategy<Value = Option<S::Value>>
    where
        S::Value: Clone + std::fmt::Debug + 'static,
    {
        prop_oneof![
            Just(None),
            inner.prop_map(Some).boxed(),
        ]
    }

    fn arb_request() -> impl Strategy<Value = AnalysisRequest> {
        let fields = (
            prop_oneof![
                Just(Operation::Coplot),
                Just(Operation::Hurst),
                Just(Operation::Subset)
            ],
            prop_oneof![
                arb_token().prop_map(DatasetSpec::Named).boxed(),
                proptest::collection::vec(arb_token(), 1..4)
                    .prop_map(DatasetSpec::Paths)
                    .boxed(),
            ],
            1u64..=100_000,
            0u64..MAX_EXACT_INT,
            proptest::collection::vec(arb_token(), 0..5),
            prop_oneof![
                Just(None),
                Just(Some("swf".to_string())),
                Just(Some("gwf".to_string())),
                Just(Some("weblog".to_string())),
            ],
            arb_opt(0.0f64..1.0),
            2u64..=8,
        );
        let tail = (0.0f64..2.0, 1u64..=50, arb_opt(1u64..=600_000));
        (fields, tail).prop_map(
            |((op, dataset, jobs, seed, vars, format, mc, k), (max_a, top, deadline))| {
                AnalysisRequest {
                    op,
                    dataset,
                    jobs,
                    seed,
                    vars,
                    format,
                    min_correlation: mc,
                    subset_size: k,
                    max_alienation: max_a,
                    top,
                    deadline_ms: deadline,
                }
            },
        )
    }

    proptest! {
        /// Canonicalization is idempotent.
        #[test]
        fn canonicalize_is_idempotent(r in arb_request()) {
            let once = r.canonicalize().unwrap();
            let twice = once.canonicalize().unwrap();
            prop_assert_eq!(&once, &twice);
            prop_assert_eq!(
                once.canonical_digest().unwrap(),
                twice.canonical_digest().unwrap()
            );
        }

        /// JSON key order does not change parsing or the digest: feed the
        /// canonical fields back in reversed key order and compare.
        #[test]
        fn digest_is_key_order_insensitive(r in arb_request()) {
            let canon = r.canonicalize().unwrap();
            let forward = canon.to_canonical_json().unwrap();
            // Re-emit the same object with keys reversed, by parsing into
            // the BTreeMap (order-insensitive) and serializing each field
            // back by hand in reverse canonical order.
            let JsonValue::Object(map) = parse_json(&forward).unwrap() else {
                panic!("canonical JSON is an object");
            };
            let mut rev = String::from("{");
            let keys: Vec<&String> = map.keys().collect();
            for (i, key) in keys.iter().rev().enumerate() {
                if i > 0 { rev.push(','); }
                rev.push_str(&format!("\"{}\":{}", key, raw_json(&map[*key])));
            }
            rev.push('}');
            let reparsed = AnalysisRequest::from_json(&rev).unwrap();
            prop_assert_eq!(
                reparsed.canonical_digest().unwrap(),
                canon.canonical_digest().unwrap()
            );
        }

        /// Requests round-trip: serialize, parse, canonicalize-compare.
        #[test]
        fn request_round_trips(r in arb_request()) {
            let canon = r.canonicalize().unwrap();
            let parsed = AnalysisRequest::from_json(&canon.to_canonical_json().unwrap()).unwrap();
            prop_assert_eq!(parsed.canonicalize().unwrap(), canon);
        }

        /// The request parser never panics.
        #[test]
        fn request_parser_never_panics(s in ".*") {
            let _ = AnalysisRequest::from_json(&s);
        }

        /// Responses round-trip exactly: serialize, parse, compare. Exact
        /// f64 equality is intentional — Display emits the shortest
        /// round-trip decimal and the parser reads it back bit-identically.
        #[test]
        fn response_round_trips(r in arb_response()) {
            let parsed = AnalysisResponse::from_json(&r.to_json()).unwrap();
            prop_assert_eq!(parsed, r);
        }

        /// The response parser never panics.
        #[test]
        fn response_parser_never_panics(s in ".*") {
            let _ = AnalysisResponse::from_json(&s);
        }

        /// Envelope round-trip across both versions, plus the digest
        /// compatibility contract: v1 bytes are the flat pre-envelope
        /// encoding, and the canonical digest is identical no matter
        /// which version carried the request.
        #[test]
        fn envelope_round_trips_with_stable_digests(r in arb_request()) {
            let canon = r.canonicalize().unwrap();
            let v1 = Envelope::v1(canon.clone());
            let v2 = Envelope::v2(canon.clone());
            prop_assert_eq!(v1.to_json(), canon.to_json());
            let p1 = Envelope::from_json(&v1.to_json()).unwrap();
            prop_assert_eq!(p1.api_version, 1);
            let p2 = Envelope::from_json(&v2.to_json()).unwrap();
            prop_assert_eq!(p2.api_version, 2);
            let EnvelopePayload::Analysis(r1) = p1.payload else {
                panic!("v1 payload is analysis");
            };
            let EnvelopePayload::Analysis(r2) = p2.payload else {
                panic!("v2 payload is analysis");
            };
            prop_assert_eq!(r1.canonicalize().unwrap(), canon.clone());
            prop_assert_eq!(r2.canonicalize().unwrap(), canon.clone());
            prop_assert_eq!(
                v2.canonical_digest().unwrap(),
                canon.canonical_digest().unwrap()
            );
        }

        /// Unknown versions are typed `bad-version` errors, not panics
        /// or schema noise.
        #[test]
        fn unsupported_versions_are_typed_errors(r in arb_request(), ver in 3u64..1_000_000) {
            let canon = r.canonicalize().unwrap();
            let mut env = Envelope::v2(canon);
            env.api_version = ver;
            let err = Envelope::from_json(&env.to_json()).unwrap_err();
            prop_assert_eq!(err.kind, ApiErrorKind::Version);
        }

        /// The envelope parser never panics.
        #[test]
        fn envelope_parser_never_panics(s in ".*") {
            let _ = Envelope::from_json(&s);
        }

        /// Shard requests round-trip through both their own JSON and the
        /// v2 envelope, with matching digests.
        #[test]
        fn shard_request_round_trips(s in arb_shard_request()) {
            let parsed = ShardRequest::from_json(&s.to_json()).unwrap();
            prop_assert_eq!(parsed.canonicalize().unwrap(), s.canonicalize().unwrap());
            let env = Envelope::shard(s.clone());
            let back = Envelope::from_json(&env.to_json()).unwrap();
            prop_assert_eq!(back.api_version, 2);
            let EnvelopePayload::Shard(inner) = back.payload else {
                panic!("shard payload survives the envelope");
            };
            prop_assert_eq!(inner.canonicalize().unwrap(), s.canonicalize().unwrap());
            prop_assert_eq!(
                env.canonical_digest().unwrap(),
                s.canonical_digest().unwrap()
            );
        }

        /// Shard responses round-trip exactly (same f64 contract as
        /// `response_round_trips`).
        #[test]
        fn shard_response_round_trips(r in arb_shard_response()) {
            let parsed = ShardResponse::from_json(&r.to_json()).unwrap();
            prop_assert_eq!(parsed, r);
        }

        /// The shard parsers never panic.
        #[test]
        fn shard_parsers_never_panic(s in ".*") {
            let _ = ShardRequest::from_json(&s);
            let _ = ShardResponse::from_json(&s);
        }
    }

    fn arb_shard_request() -> impl Strategy<Value = ShardRequest> {
        (arb_request(), (0u64..50, 1u64..50), proptest::bool::ANY).prop_map(
            |(r, (lo, d), whole)| {
                let base = r.canonicalize().unwrap();
                let part = match base.op {
                    Operation::Subset if !whole => ShardPart::Combos { lo, hi: lo + d },
                    _ => ShardPart::Whole,
                };
                ShardRequest { base, part }
            },
        )
    }

    fn arb_shard_response() -> impl Strategy<Value = ShardResponse> {
        prop_oneof![
            proptest::collection::vec(
                (
                    proptest::collection::vec(arb_name(), 0..4),
                    arb_finite(),
                    arb_finite(),
                    arb_finite()
                ),
                0..4
            )
            .prop_map(|entries| ShardResponse::Subset {
                entries: entries
                    .into_iter()
                    .map(|(variables, alienation, mean_correlation, rmsd)| SubsetEntry {
                        variables,
                        alienation,
                        mean_correlation,
                        map_conservation_rmsd: rmsd,
                    })
                    .collect(),
            })
            .boxed(),
            arb_response().prop_map(ShardResponse::Whole).boxed(),
        ]
    }

    #[test]
    fn envelope_v2_body_inherits_op() {
        let text = r#"{"api_version":2,"op":"coplot","body":{"dataset":{"name":"table1"}}}"#;
        let env = Envelope::from_json(text).unwrap();
        assert_eq!(env.api_version, 2);
        let EnvelopePayload::Analysis(r) = env.payload else {
            panic!("analysis payload");
        };
        assert_eq!(r.op, Operation::Coplot);
        assert_eq!(
            r.canonical_digest().unwrap(),
            coplot_request().canonical_digest().unwrap()
        );
    }

    #[test]
    fn envelope_rejects_malformed_shapes() {
        for (body, kind) in [
            (
                r#"{"api_version":3,"op":"coplot","body":{}}"#,
                ApiErrorKind::Version,
            ),
            (
                r#"{"api_version":"two","op":"coplot","body":{}}"#,
                ApiErrorKind::Version,
            ),
            (
                r#"{"api_version":1.5,"op":"coplot","body":{}}"#,
                ApiErrorKind::Version,
            ),
            (r#"{"api_version":2,"op":"coplot"}"#, ApiErrorKind::Schema),
            (
                r#"{"api_version":2,"op":"nope","body":{}}"#,
                ApiErrorKind::Schema,
            ),
            (
                r#"{"api_version":2,"op":"coplot","body":{"op":"hurst","dataset":{"name":"t"}}}"#,
                ApiErrorKind::Schema,
            ),
            (
                r#"{"api_version":2,"op":"coplot","body":{"dataset":{"name":"t"}},"extra":1}"#,
                ApiErrorKind::Schema,
            ),
        ] {
            let err = Envelope::from_json(body).unwrap_err();
            assert_eq!(err.kind, kind, "{body}: {err}");
        }
        // `"api_version":1` on a flat request is tolerated and parses as v1.
        let env = Envelope::from_json(
            r#"{"api_version":1,"op":"coplot","dataset":{"name":"table1"}}"#,
        )
        .unwrap();
        assert_eq!(env.api_version, 1);
    }

    #[test]
    fn shard_part_op_pairing_is_validated() {
        let hurst = AnalysisRequest::new(Operation::Hurst, DatasetSpec::Named("models".into()));
        let bad = ShardRequest {
            base: hurst.clone(),
            part: ShardPart::Combos { lo: 0, hi: 2 },
        };
        assert_eq!(bad.canonicalize().unwrap_err().kind, ApiErrorKind::Value);

        let mut eliminating = coplot_request();
        eliminating.min_correlation = Some(0.8);
        let bad = ShardRequest {
            base: eliminating,
            part: ShardPart::Combos { lo: 0, hi: 2 },
        };
        assert_eq!(bad.canonicalize().unwrap_err().kind, ApiErrorKind::Value);

        let subset = AnalysisRequest::new(Operation::Subset, DatasetSpec::Named("models".into()));
        let empty = ShardRequest {
            base: subset,
            part: ShardPart::Combos { lo: 3, hi: 3 },
        };
        assert_eq!(empty.canonicalize().unwrap_err().kind, ApiErrorKind::Value);

        // Only `combos` and `whole` parse; any other kind names them both.
        for kind in ["restarts", "rows"] {
            let text = format!(
                "{{\"base\":{},\"part\":{{\"kind\":\"{kind}\",\"lo\":0,\"hi\":2}}}}",
                hurst.to_json()
            );
            let err = ShardRequest::from_json(&text).unwrap_err();
            assert_eq!(err.kind, ApiErrorKind::Schema, "{kind}");
            assert!(err.message.contains("\"combos\" or \"whole\""), "{err}");
        }
    }

    #[test]
    fn error_body_round_trips() {
        let plain = ErrorBody::new("bad-json", "oops \"quoted\"");
        assert_eq!(ErrorBody::from_json(&plain.to_json()).unwrap(), plain);
        let retry = ErrorBody::new("overloaded", "queue full").with_retry_after_ms(1000);
        let json = retry.to_json();
        assert!(json.contains("\"retry_after_ms\":1000"), "{json}");
        assert_eq!(ErrorBody::from_json(&json).unwrap(), retry);
    }

    fn arb_finite() -> impl Strategy<Value = f64> {
        // Mixes wide-range values with awkward exact decimals.
        prop_oneof![
            (-1.0e9f64..1.0e9).boxed(),
            Just(0.0).boxed(),
            Just(1.0 / 3.0).boxed(),
            Just(f64::MIN_POSITIVE).boxed(),
        ]
    }

    fn arb_name() -> impl Strategy<Value = String> {
        ".*".prop_map(|s| s)
    }

    fn arb_pair() -> impl Strategy<Value = [f64; 2]> {
        (arb_finite(), arb_finite()).prop_map(|(x, y)| [x, y])
    }

    fn arb_coplot_out() -> impl Strategy<Value = CoplotOut> {
        (1usize..5).prop_flat_map(|n| {
            (
                proptest::collection::vec(arb_name(), n),
                proptest::collection::vec(arb_pair(), n),
                proptest::collection::vec((arb_name(), arb_pair(), arb_finite()), 0..4),
                arb_finite(),
                arb_finite(),
                proptest::collection::vec(arb_finite(), n * (n - 1) / 2),
                proptest::collection::vec(arb_name(), 0..3),
            )
                .prop_map(
                    |(observations, coords, arrows, alienation, stress, diss, removed)| {
                        CoplotOut {
                            observations,
                            coords,
                            arrows: arrows
                                .into_iter()
                                .map(|(name, direction, correlation)| ArrowOut {
                                    name,
                                    direction,
                                    correlation,
                                })
                                .collect(),
                            alienation,
                            stress,
                            dissimilarities: diss,
                            removed,
                        }
                    },
                )
        })
    }

    fn arb_response() -> impl Strategy<Value = AnalysisResponse> {
        prop_oneof![
            arb_coplot_out().prop_map(AnalysisResponse::Coplot).boxed(),
            (
                proptest::collection::vec(arb_name(), 0..4),
                proptest::collection::vec(arb_name(), 0..4),
                proptest::collection::vec(
                    proptest::collection::vec(arb_opt(arb_finite()), 0..4),
                    0..4
                ),
            )
                .prop_map(|(workloads, columns, rows)| {
                    AnalysisResponse::Hurst(HurstOut {
                        workloads,
                        columns,
                        rows,
                    })
                })
                .boxed(),
            proptest::collection::vec(
                (
                    proptest::collection::vec(arb_name(), 0..4),
                    arb_finite(),
                    arb_finite(),
                    arb_finite()
                ),
                0..4
            )
            .prop_map(|entries| {
                AnalysisResponse::Subset(SubsetOut {
                    results: entries
                        .into_iter()
                        .map(
                            |(variables, alienation, mean_correlation, rmsd)| SubsetEntry {
                                variables,
                                alienation,
                                mean_correlation,
                                map_conservation_rmsd: rmsd,
                            },
                        )
                        .collect(),
                })
            })
            .boxed(),
        ]
    }

    /// Serialize a parsed JsonValue back to a JSON fragment (test helper
    /// for the key-order property; numbers reuse f64 Display which is how
    /// they were emitted).
    fn raw_json(v: &JsonValue) -> String {
        match v {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Number(n) => format!("{n}"),
            JsonValue::String(s) => format!("\"{}\"", escape_str(s)),
            JsonValue::Array(items) => {
                let inner: Vec<String> = items.iter().map(raw_json).collect();
                format!("[{}]", inner.join(","))
            }
            JsonValue::Object(map) => {
                let inner: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape_str(k), raw_json(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}
