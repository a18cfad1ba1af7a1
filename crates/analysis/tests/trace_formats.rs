//! End-to-end ingestion: every trace format reaches a [`DataMatrix`].
//!
//! The checked-in fixtures (`fixtures/sample.gwf`, a NorduGrid-style GWF
//! trace, and `fixtures/sample_access.log`, a CLF web access log) exercise
//! the on-disk path; the synthetic grid/web suites exercise the generated
//! path. Both must land in the same Table-1 variable space the SWF
//! pipeline uses, and the synthesized suites must be independent of the
//! thread count.

use wl_analysis::{trace_matrix, try_trace_matrix};
use wl_trace::{
    synth, AllocationFlexibility, SchedulerFlexibility, TraceFormat, TraceMeta,
};

const VARS: [&str; 6] = ["Rm", "Ri", "Pm", "Pi", "Im", "Ii"];

fn default_meta() -> TraceMeta {
    TraceMeta::new(
        128,
        SchedulerFlexibility::Backfilling,
        AllocationFlexibility::Unlimited,
    )
}

fn fixture(name: &str) -> (String, String) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/");
    let full = format!("{path}{name}");
    let text = std::fs::read_to_string(&full).expect("read fixture");
    (full, text)
}

fn assert_finite_matrix(m: &coplot::DataMatrix, rows: usize) {
    assert_eq!((m.n_observations(), m.n_variables()), (rows, VARS.len()));
    for obs in 0..m.n_observations() {
        for var in 0..m.n_variables() {
            let v = m.get(obs, var).expect("no missing cells");
            assert!(v.is_finite(), "cell ({obs},{var}) = {v}");
        }
    }
}

#[test]
fn gwf_fixture_parses_into_a_data_matrix() {
    let (path, text) = fixture("sample.gwf");
    assert_eq!(TraceFormat::detect(&path, &text), TraceFormat::Gwf);
    let trace = TraceFormat::Gwf
        .source()
        .read("sample", &text, default_meta())
        .expect("strict GWF parse of the checked-in fixture");
    assert_eq!(trace.len(), 40);
    let m = trace_matrix(&[trace], &VARS);
    assert_finite_matrix(&m, 1);
}

#[test]
fn weblog_fixture_parses_into_a_data_matrix() {
    let (path, text) = fixture("sample_access.log");
    assert_eq!(TraceFormat::detect(&path, &text), TraceFormat::Weblog);
    let trace = TraceFormat::Weblog
        .source()
        .read("sample_access", &text, default_meta())
        .expect("strict web-log parse of the checked-in fixture");
    assert!(!trace.is_empty(), "sessions bucketed into jobs");
    let m = trace_matrix(&[trace], &VARS);
    assert_finite_matrix(&m, 1);
}

#[test]
fn synthetic_suites_build_one_cross_domain_matrix() {
    let grid = synth::grid_suite(120, 1999, 2, |t| t);
    let web = synth::web_suite(120, 1999, 2, |t| t);
    let mut traces = grid;
    traces.extend(web);
    assert_eq!(
        traces.len(),
        synth::GRID_SITE_COUNT + synth::WEB_SERVER_COUNT
    );
    let m = try_trace_matrix(&traces, &VARS).expect("known variable codes");
    assert_finite_matrix(&m, synth::GRID_SITE_COUNT + synth::WEB_SERVER_COUNT);
}

#[test]
fn synthetic_suites_are_thread_invariant() {
    let digest = |t: wl_trace::NormalizedTrace| t.canonical_digest();
    assert_eq!(
        synth::grid_suite(80, 7, 1, digest),
        synth::grid_suite(80, 7, 8, digest)
    );
    assert_eq!(
        synth::web_suite(80, 7, 1, digest),
        synth::web_suite(80, 7, 8, digest)
    );
}
