//! `POST /v1/stream` — the streaming windowed Co-plot session, and the
//! shared executor behind the `wl stream` CLI subcommand.
//!
//! Wire shape: the request body is one JSON header line (the stream
//! options) followed by the raw trace text in any [`TraceFormat`]; the
//! response is JSON lines (`application/x-ndjson`), one line per sealed
//! window, in window order. The whole exchange is a single HTTP
//! request/response pair — the transport stays the same deliberately
//! small HTTP/1.1 subset as every other endpoint, and "streaming" refers
//! to the *analysis* (incremental windows, warm-started embeddings,
//! drift metrics), not to chunked transfer.
//!
//! Both front ends call [`run_stream_text`], so `wl stream` output and
//! the `/v1/stream` response body agree byte-for-byte by construction,
//! and both are bit-identical for any engine thread count (the
//! `stream_parity` test pins all of it).
//!
//! Header fields (all optional):
//!
//! | field | default | meaning |
//! |---|---|---|
//! | `name` | `"stream"` | trace display name |
//! | `format` | auto-detect | `"swf"` / `"gwf"` / `"weblog"` |
//! | `jobs_per_window` | 256 | records per window |
//! | `max_windows` | 8 | rolling frame size |
//! | `variables` | Figure 4's 8 codes | Table 1 variable codes |
//! | `seed` | engine default | MDS restart seed (cold path) |
//! | `regression_tolerance` | 0.02 | warm-start acceptance margin |
//! | `hurst` | true | online H re-estimation per window |
//! | `order` | `"sort"` | `"reject"` errors on unsorted input |

use coplot::{ApiError, CoplotError};
use wl_analysis::stream::{run_stream, Frame, OrderPolicy, StreamConfig, WindowEvent};
use wl_obs::{escape_str, parse_json, JsonValue};
use wl_trace::TraceFormat;

use crate::datasets::default_machine;
use crate::exec::ExecError;

/// Parsed `/v1/stream` header line.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Trace display name.
    pub name: String,
    /// Explicit trace format; `None` auto-detects from the text.
    pub format: Option<TraceFormat>,
    /// The driver configuration.
    pub config: StreamConfig,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            name: "stream".into(),
            format: None,
            config: StreamConfig::default(),
        }
    }
}

/// Split a `/v1/stream` body into its header line and trace text, and
/// parse the header.
///
/// # Errors
/// [`ApiError`] for a missing/invalid header line or any bad field.
pub fn parse_stream_request(body: &str) -> Result<(StreamOptions, &str), ApiError> {
    let (header, rest) = match body.split_once('\n') {
        Some((h, r)) => (h.trim(), r),
        None => (body.trim(), ""),
    };
    if header.is_empty() {
        return Err(ApiError::schema(
            "missing stream header: the first line must be a JSON object",
        ));
    }
    let v = parse_json(header).map_err(|e| ApiError::json(format!("stream header: {e}")))?;
    if !matches!(v, JsonValue::Object(_)) {
        return Err(ApiError::schema("stream header must be a JSON object"));
    }
    let mut options = StreamOptions::default();

    if let Some(name) = v.get("name") {
        options.name = name
            .as_str()
            .ok_or_else(|| ApiError::schema("name must be a string"))?
            .to_string();
    }
    if let Some(fmt) = v.get("format") {
        let label = fmt
            .as_str()
            .ok_or_else(|| ApiError::schema("format must be a string"))?;
        options.format = Some(TraceFormat::from_label(label).ok_or_else(|| {
            ApiError::value(format!("unknown trace format {label:?}"))
        })?);
    }
    if let Some(x) = v.get("jobs_per_window") {
        options.config.jobs_per_window = x
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| ApiError::value("jobs_per_window must be a positive integer"))?
            as usize;
    }
    if let Some(x) = v.get("max_windows") {
        options.config.max_windows = x
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or_else(|| ApiError::value("max_windows must be a positive integer"))?
            as usize;
    }
    if let Some(vars) = v.get("variables") {
        let JsonValue::Array(items) = vars else {
            return Err(ApiError::schema("variables must be an array of strings"));
        };
        let mut codes = Vec::with_capacity(items.len());
        for item in items {
            codes.push(
                item.as_str()
                    .ok_or_else(|| ApiError::schema("variables must be an array of strings"))?
                    .to_string(),
            );
        }
        options.config.variables = codes;
    }
    if let Some(x) = v.get("seed") {
        options.config.mds.seed = x
            .as_u64()
            .ok_or_else(|| ApiError::value("seed must be a non-negative integer"))?;
    }
    if let Some(x) = v.get("regression_tolerance") {
        let t = x
            .as_f64()
            .ok_or_else(|| ApiError::value("regression_tolerance must be a number"))?;
        if !t.is_finite() || t < 0.0 {
            return Err(ApiError::value(
                "regression_tolerance must be finite and non-negative",
            ));
        }
        options.config.regression_tolerance = t;
    }
    if let Some(x) = v.get("hurst") {
        options.config.hurst = x
            .as_bool()
            .ok_or_else(|| ApiError::value("hurst must be a boolean"))?;
    }
    if let Some(x) = v.get("order") {
        let label = x
            .as_str()
            .ok_or_else(|| ApiError::schema("order must be a string"))?;
        options.config.order_policy = OrderPolicy::from_label(label).ok_or_else(|| {
            ApiError::value(format!(
                "unknown order policy {label:?} (expected \"sort\" or \"reject\")"
            ))
        })?;
    }
    Ok((options, rest))
}

/// Execute one stream session over trace text: parse the trace, replay it
/// through the windowed driver, and serialize every event as one JSON
/// line. This single function backs both `POST /v1/stream` and
/// `wl stream`.
///
/// # Errors
/// [`ExecError::Analysis`] for unparseable trace text, rejected unsorted
/// input, or an invalid driver configuration.
pub fn run_stream_text(
    text: &str,
    options: &StreamOptions,
    threads: usize,
) -> Result<String, ExecError> {
    let _span = wl_obs::span!("serve.stream");
    let fmt = options
        .format
        .unwrap_or_else(|| TraceFormat::detect(&options.name, text));
    let trace = fmt
        .source()
        .read(&options.name, text, default_machine())
        .map_err(|e| {
            ExecError::Analysis(CoplotError::InvalidConfig(format!(
                "{}: {e}",
                options.name
            )))
        })?;
    let mut config = options.config.clone();
    config.mds.threads = threads.max(1);
    let events = run_stream(&trace, &config).map_err(ExecError::Analysis)?;
    wl_obs::counter!("serve.stream.sessions", 1u64);
    wl_obs::counter!("serve.stream.events", events.len() as u64);
    let mut out = String::new();
    for event in &events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    Ok(out)
}

/// Serialize one window event as a single JSON object (no trailing
/// newline). Field order is fixed so the output is byte-stable.
pub fn event_json(event: &WindowEvent) -> String {
    match event {
        WindowEvent::Pending { window, name, jobs } => format!(
            "{{\"type\":\"pending\",\"window\":{window},\"name\":\"{}\",\"jobs\":{jobs}}}",
            escape_str(name)
        ),
        WindowEvent::Degenerate {
            window,
            name,
            jobs,
            error,
        } => format!(
            "{{\"type\":\"degenerate\",\"window\":{window},\"name\":\"{}\",\"jobs\":{jobs},\
             \"error\":\"{}\"}}",
            escape_str(name),
            escape_str(&error.to_string())
        ),
        WindowEvent::Frame(f) => frame_json(f),
    }
}

fn frame_json(f: &Frame) -> String {
    let mut s = String::with_capacity(512);
    s.push_str(&format!(
        "{{\"type\":\"frame\",\"window\":{},\"name\":\"{}\",\"jobs\":{},\"theta\":{},\
         \"warm\":{},\"iterations\":{}",
        f.window,
        escape_str(&f.window_name),
        f.jobs,
        f.alienation,
        f.warm,
        f.mds_iterations
    ));
    s.push_str(",\"observations\":[");
    for (i, obs) in f.observations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(&escape_str(obs));
        s.push('"');
    }
    s.push_str("],\"coords\":[");
    for i in 0..f.coords.rows() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{},{}]", f.coords[(i, 0)], f.coords[(i, 1)]));
    }
    s.push_str("],\"arrows\":[");
    for (i, a) in f.arrows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"angle\":{},\"correlation\":{}}}",
            escape_str(&a.name),
            a.angle(),
            a.correlation
        ));
    }
    s.push_str("],\"removed\":[");
    for (i, r) in f.removed.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(&escape_str(r));
        s.push('"');
    }
    s.push(']');
    match &f.drift {
        None => s.push_str(",\"drift\":null"),
        Some(d) => {
            s.push_str(&format!(
                ",\"drift\":{{\"theta_delta\":{},\"mean_displacement\":{},\
                 \"max_displacement\":{},\"alignment_rmsd\":{},\"shared\":{}",
                d.theta_delta,
                d.mean_displacement,
                d.max_displacement,
                d.alignment_rmsd,
                d.shared_observations
            ));
            s.push_str(",\"arrows\":[");
            for (i, ad) in d.arrow_deltas.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"name\":\"{}\",\"angle_delta\":{}}}",
                    escape_str(&ad.name),
                    ad.angle_delta
                ));
            }
            s.push_str("]}");
        }
    }
    match f.hurst {
        Some(h) => s.push_str(&format!(",\"hurst\":{h}")),
        None => s.push_str(",\"hurst\":null"),
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_trace::synth;

    fn trace_text(jobs: usize) -> String {
        synth::grid_site_text(0, jobs, 42)
    }

    #[test]
    fn header_defaults_and_overrides() {
        let (o, rest) = parse_stream_request("{}\nbody").unwrap();
        assert_eq!(o.name, "stream");
        assert_eq!(o.format, None);
        assert_eq!(o.config.jobs_per_window, 256);
        assert_eq!(rest, "body");

        let header = "{\"name\":\"t\",\"format\":\"swf\",\"jobs_per_window\":16,\
                      \"max_windows\":4,\"variables\":[\"Rm\",\"Ri\",\"Im\"],\"seed\":9,\
                      \"regression_tolerance\":0.5,\"hurst\":false,\"order\":\"reject\"}";
        let body = format!("{header}\nline1\nline2");
        let (o, rest) = parse_stream_request(&body).unwrap();
        assert_eq!(o.name, "t");
        assert_eq!(o.format, Some(TraceFormat::Swf));
        assert_eq!(o.config.jobs_per_window, 16);
        assert_eq!(o.config.max_windows, 4);
        assert_eq!(o.config.variables, ["Rm", "Ri", "Im"]);
        assert_eq!(o.config.mds.seed, 9);
        assert_eq!(o.config.regression_tolerance, 0.5);
        assert!(!o.config.hurst);
        assert_eq!(o.config.order_policy, OrderPolicy::Reject);
        assert_eq!(rest, "line1\nline2");
    }

    #[test]
    fn bad_headers_are_typed_errors() {
        for body in [
            "",
            "   \ntrace",
            "not json\ntrace",
            "[1,2]\ntrace",
            "{\"jobs_per_window\":0}\ntrace",
            "{\"jobs_per_window\":\"ten\"}\ntrace",
            "{\"format\":\"csv\"}\ntrace",
            "{\"order\":\"drop\"}\ntrace",
            "{\"variables\":\"Rm\"}\ntrace",
            "{\"regression_tolerance\":-1}\ntrace",
        ] {
            assert!(parse_stream_request(body).is_err(), "{body:?}");
        }
    }

    #[test]
    fn stream_text_emits_one_line_per_window() {
        let text = trace_text(200);
        let mut options = StreamOptions::default();
        options.config.jobs_per_window = 32;
        options.config.hurst = false;
        let out = run_stream_text(&text, &options, 1).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(!lines.is_empty());
        // Every line is valid JSON with the expected envelope.
        for (i, line) in lines.iter().enumerate() {
            let v = parse_json(line).unwrap();
            let ty = v.get("type").and_then(|t| t.as_str()).unwrap();
            assert!(matches!(ty, "pending" | "frame" | "degenerate"), "{ty}");
            assert_eq!(
                v.get("window").and_then(|w| w.as_u64()),
                Some(i as u64 + 1)
            );
        }
    }

    #[test]
    fn overflowing_interarrivals_print_null_hurst() {
        // Inter-arrivals near 1e200 overflow the sums of squares behind the
        // R/S variance. Run times and processor counts vary, so the frames
        // embed on Rm, Ri, Cm and Ci (Im and Ii would overflow
        // normalization first); every `hurst` must stay valid JSON.
        let text: String = (0..150)
            .map(|i| {
                let run = 10 + (i * 37) % 97;
                let procs = 1 + (i * 13) % 31;
                format!(
                    "{} {:e} 0 {run} {procs} {run} -1 {procs} {} -1 1 1 1 1 1 -1{}\n",
                    i + 1,
                    i as f64 * 1e200,
                    2 * run,
                    " -1".repeat(13)
                )
            })
            .collect();
        let mut options = StreamOptions {
            format: Some(TraceFormat::Gwf),
            ..StreamOptions::default()
        };
        options.config.jobs_per_window = 30;
        options.config.variables = ["Rm", "Ri", "Cm", "Ci"].map(String::from).to_vec();
        let out = run_stream_text(&text, &options, 1).unwrap();
        let mut frames = 0;
        for line in out.lines() {
            let v = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            if v.get("type").and_then(|t| t.as_str()) == Some("frame") {
                frames += 1;
                let hurst = v.get("hurst").expect("frames carry hurst");
                assert!(
                    matches!(hurst, JsonValue::Null) || hurst.as_f64().is_some_and(f64::is_finite),
                    "{line}"
                );
            }
        }
        assert_eq!(frames, 3, "{out}");
    }

    #[test]
    fn threads_do_not_change_the_bytes() {
        let text = trace_text(300);
        let options = {
            let mut o = StreamOptions::default();
            o.config.jobs_per_window = 48;
            o
        };
        let one = run_stream_text(&text, &options, 1).unwrap();
        let eight = run_stream_text(&text, &options, 8).unwrap();
        assert_eq!(one, eight);
    }

    #[test]
    fn unparseable_trace_is_an_analysis_error() {
        let options = StreamOptions {
            format: Some(TraceFormat::Swf),
            ..StreamOptions::default()
        };
        let err = run_stream_text("1 2 three\n", &options, 1).unwrap_err();
        assert!(matches!(err, ExecError::Analysis(_)), "{err:?}");
    }

    #[test]
    fn reject_order_policy_propagates() {
        // An SWF body with out-of-order submit times.
        let text = "1 100 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n\
                    2 50 -1 10 1 -1 -1 1 -1 -1 1 1 1 1 1 -1 -1 -1\n";
        let mut options = StreamOptions {
            format: Some(TraceFormat::Swf),
            ..StreamOptions::default()
        };
        options.config.order_policy = OrderPolicy::Reject;
        let err = run_stream_text(text, &options, 1).unwrap_err();
        match err {
            ExecError::Analysis(CoplotError::UnsortedInput { inversions }) => {
                assert_eq!(inversions, 1)
            }
            other => panic!("expected UnsortedInput, got {other:?}"),
        }
    }
}
