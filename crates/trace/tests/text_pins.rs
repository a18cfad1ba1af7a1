//! Pins of the SWF/GWF text layer: what the parsers make of awkward
//! separators and numbers, and the digests of the text the writers and
//! the synthetic generators emit.
//!
//! Every expectation here was read from the text layer as it stood before
//! its writer and field scanner were rewritten for speed; the rewrite must
//! keep each one.

use coplot::api::fnv1a;
use wl_trace::synth::{grid_site_text, web_server_text, WEB_SERVER_COUNT};
use wl_trace::{
    parse_gwf, parse_swf, write_gwf, write_swf, AllocationFlexibility, JobRecord, JobStatus,
    NormalizedTrace, ParseErrorKind, SchedulerFlexibility, TraceMeta,
};

/// The 18 fields of a valid SWF job line.
const SWF_FIELDS: [&str; 18] = [
    "1", "0", "5", "100", "4", "90", "-1", "4", "200", "-1", "1", "3", "1", "7", "1", "-1", "-1",
    "-1",
];

/// The 13 grid-specific tail fields of a GWF line.
const GWF_TAIL: [&str; 13] = ["-1"; 13];

fn swf_line(fields: &[&str], sep: &str) -> String {
    fields.join(sep)
}

fn gwf_line(fields: &[&str], sep: &str) -> String {
    let mut all: Vec<&str> = fields[..16].to_vec();
    all.extend(GWF_TAIL);
    all.join(sep)
}

fn with_field(i: usize, value: &'static str) -> Vec<&'static str> {
    let mut fields = SWF_FIELDS.to_vec();
    fields[i] = value;
    fields
}

/// Parse one job line as SWF and as GWF (at line 2 after a header) and
/// return the two records, which must agree.
fn parse_both(fields: &[&str], sep: &str) -> JobRecord {
    let swf = format!("; MaxNodes: 8\n{}\n", swf_line(fields, sep));
    let gwf = format!("# MaxNodes: 8\n{}\n", gwf_line(fields, sep));
    let s = parse_swf(&swf).expect("SWF line parses").jobs.remove(0);
    let g = parse_gwf(&gwf).expect("GWF line parses").jobs.remove(0);
    // GWF carries SWF fields 1-16 only.
    let mut g16 = g.clone();
    g16.preceding_job = s.preceding_job;
    g16.think_time = s.think_time;
    assert_eq!(record_bits(&g16), record_bits(&s));
    s
}

/// The error kind both formats give one job line at line 2.
fn error_of_both(fields: &[&str], sep: &str) -> ParseErrorKind {
    let swf = format!("; MaxNodes: 8\n{}\n", swf_line(fields, sep));
    let gwf = format!("# MaxNodes: 8\n{}\n", gwf_line(fields, sep));
    let s = parse_swf(&swf).expect_err("SWF line is rejected");
    let g = parse_gwf(&gwf).expect_err("GWF line is rejected");
    assert_eq!((s.line, g.line), (2, 2));
    assert_eq!(s.kind, g.kind);
    s.kind
}

/// Every field of a record, floats as their bits.
fn record_bits(j: &JobRecord) -> Vec<u64> {
    vec![
        j.id,
        j.submit_time.to_bits(),
        j.wait_time.to_bits(),
        j.run_time.to_bits(),
        j.used_procs as u64,
        j.avg_cpu_time.to_bits(),
        j.used_memory.to_bits(),
        j.requested_procs as u64,
        j.requested_time.to_bits(),
        j.requested_memory.to_bits(),
        j.status.code() as u64,
        j.user_id as u64,
        j.group_id as u64,
        j.executable_id as u64,
        j.queue as u64,
        j.partition as u64,
        j.preceding_job as u64,
        j.think_time.to_bits(),
    ]
}

#[test]
fn vertical_tab_and_form_feed_separate_fields() {
    let plain = record_bits(&parse_both(&SWF_FIELDS, " "));
    for sep in ["\x0B", "\x0C", " \x0B\x0C ", "\t", "\r", "\t\x0B"] {
        assert_eq!(record_bits(&parse_both(&SWF_FIELDS, sep)), plain, "{sep:?}");
    }
}

#[test]
fn crlf_endings_and_trailing_tabs_are_stripped() {
    let line = swf_line(&SWF_FIELDS, " ");
    let text = format!("; MaxNodes: 8\r\n{line}\r\n{line}\t\t\r\n\t{line}\t\n");
    let doc = parse_swf(&text).expect("CRLF SWF parses");
    assert_eq!(doc.jobs.len(), 3);
    assert_eq!(doc.header.len(), 1);
    assert_eq!(doc.header["MaxNodes"], "8");
    let gline = gwf_line(&SWF_FIELDS, " ");
    let text = format!("# MaxNodes: 8\r\n{gline}\r\n{gline}\t\t\r\n");
    assert_eq!(parse_gwf(&text).expect("CRLF GWF parses").jobs.len(), 2);
}

#[test]
fn float_field_numbers_keep_their_bits() {
    // Field 2 (submit time) is a float field.
    for (text, want) in [
        ("-0", (-0.0f64).to_bits()),
        ("0", 0.0f64.to_bits()),
        ("-00", (-0.0f64).to_bits()),
        ("+5", 5.0f64.to_bits()),
        ("007", 7.0f64.to_bits()),
        ("1e3", 1000.0f64.to_bits()),
        ("5.", 5.0f64.to_bits()),
        (".5", 0.5f64.to_bits()),
        ("-12.75", (-12.75f64).to_bits()),
        ("999999999999999", 999_999_999_999_999.0f64.to_bits()),
        ("-999999999999999", (-999_999_999_999_999.0f64).to_bits()),
        ("9007199254740993", 9_007_199_254_740_992.0f64.to_bits()),
        (
            "123456789012345678901",
            123_456_789_012_345_678_901.0f64.to_bits(),
        ),
    ] {
        let j = parse_both(&with_field(1, text), " ");
        assert_eq!(j.submit_time.to_bits(), want, "{text}");
    }
}

#[test]
fn integer_field_numbers_truncate_and_saturate() {
    // Field 5 (used processors) is an integer field; field 1 the id.
    for (text, want) in [
        ("-0", 0),
        ("+5", 5),
        ("007", 7),
        ("1e3", 1000),
        ("5.", 5),
        (".5", 0),
        ("-2.9", -2),
        ("123456789012345678901", i64::MAX),
        ("-123456789012345678901", i64::MIN),
    ] {
        let j = parse_both(&with_field(4, text), " ");
        assert_eq!(j.used_procs, want, "{text}");
    }
    assert_eq!(parse_both(&with_field(0, "-0"), " ").id, 0);
    assert_eq!(parse_both(&with_field(0, "007"), " ").id, 7);
    assert_eq!(
        error_of_both(&with_field(0, "-1"), " "),
        ParseErrorKind::NegativeId
    );
    // A negative fraction truncates to id 0, which is not negative.
    assert_eq!(parse_both(&with_field(0, "-0.5"), " ").id, 0);
}

#[test]
fn non_finite_and_non_decimal_numbers_are_typed_errors() {
    for (text, kind) in [
        ("inf", ParseErrorKind::NonFinite),
        ("-inf", ParseErrorKind::NonFinite),
        ("infinity", ParseErrorKind::NonFinite),
        ("NaN", ParseErrorKind::NonFinite),
        ("1e999", ParseErrorKind::NonFinite),
        ("0x10", ParseErrorKind::NotNumeric),
        ("\u{2212}1", ParseErrorKind::NotNumeric),
        ("1_000", ParseErrorKind::NotNumeric),
        ("--1", ParseErrorKind::NotNumeric),
        ("-", ParseErrorKind::NotNumeric),
        ("1-", ParseErrorKind::NotNumeric),
    ] {
        for field in [1, 4] {
            assert_eq!(error_of_both(&with_field(field, text), " "), kind, "{text}");
        }
    }
}

#[test]
fn unicode_spaces_separate_fields() {
    let plain = record_bits(&parse_both(&SWF_FIELDS, " "));
    for sep in ["\u{a0}", "\u{3000}", "\u{2003}", "\u{85}", " \u{a0}\t"] {
        assert_eq!(record_bits(&parse_both(&SWF_FIELDS, sep)), plain, "{sep:?}");
    }
    // A non-ASCII byte inside a line that is otherwise ASCII-separated.
    let j = parse_both(&with_field(1, "\u{a0}17"), " ");
    assert_eq!(j.submit_time.to_bits(), 17.0f64.to_bits());
}

#[test]
fn field_counts_follow_unicode_whitespace() {
    let mut long: Vec<&str> = SWF_FIELDS.to_vec();
    long.push("9");
    let swf = format!("{}\n", long.join("\u{3000}"));
    let err = parse_swf(&swf).unwrap_err();
    assert_eq!((err.line, err.kind), (1, ParseErrorKind::FieldCount));
    assert!(err.message.ends_with("found 19"), "{}", err.message);
    // U+200B (zero-width space) is not whitespace: it joins two fields.
    let joined = format!("{}\n", SWF_FIELDS.join(" ").replacen(' ', "\u{200b}", 1));
    let err = parse_swf(&joined).unwrap_err();
    assert!(err.message.ends_with("found 17"), "{}", err.message);
    // Bytes below the space that are not whitespace join fields too.
    let joined = format!("{}\n", SWF_FIELDS.join(" ").replacen(' ', "\x1f", 1));
    let err = parse_swf(&joined).unwrap_err();
    assert!(err.message.ends_with("found 17"), "{}", err.message);
    let gwf = format!("# x\n{}\x0B7\n", gwf_line(&SWF_FIELDS, " "));
    let err = parse_gwf(&gwf).unwrap_err();
    assert_eq!((err.line, err.kind), (2, ParseErrorKind::FieldCount));
    assert!(err.message.ends_with("found 30"), "{}", err.message);
}

#[test]
fn first_error_wins_and_every_bad_line_is_typed() {
    let good = swf_line(&SWF_FIELDS, " ");
    let bad = [
        swf_line(&with_field(3, "0x10"), "\x0B"),
        swf_line(&with_field(5, "NaN"), "\u{a0}"),
        swf_line(&with_field(0, "-4"), "\t"),
    ];
    let text = format!("{good}\n{}\n{}\n{good}\r\n{}\n", bad[0], bad[1], bad[2]);
    let err = parse_swf(&text).unwrap_err();
    assert_eq!((err.line, err.kind), (2, ParseErrorKind::NotNumeric));
    assert!(err.message.contains("field 4"), "{}", err.message);
    // Each bad line, after a good one, is the error of its own document.
    for (line, kind) in bad.iter().zip([
        ParseErrorKind::NotNumeric,
        ParseErrorKind::NonFinite,
        ParseErrorKind::NegativeId,
    ]) {
        let err = parse_swf(&format!("{good}\r\n{line}\n")).unwrap_err();
        assert_eq!((err.line, err.kind), (2, kind), "{line:?}");
    }
}

fn grid_meta() -> TraceMeta {
    TraceMeta::new(
        64,
        SchedulerFlexibility::Backfilling,
        AllocationFlexibility::Unlimited,
    )
}

/// A trace whose float fields hold every shape the writer distinguishes:
/// integral, fractional, negative, signed zeros, the 1e15 boundary,
/// huge and tiny magnitudes.
fn awkward_trace() -> NormalizedTrace {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.25,
        123.456,
        1e15 - 1.0,
        -(1e15 - 1.0),
        1e15 - 0.5,
        1e15,
        -1e15,
        1e15 + 2.0,
        1e16,
        9_007_199_254_740_993.0,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e-7,
        5e-324,
        0.1 + 0.2,
    ];
    let ints = [0i64, -1, 1, 42, -42, i64::MAX, i64::MIN, 1 << 53];
    let mut jobs = Vec::new();
    for (k, &v) in floats.iter().enumerate() {
        let w = floats[(k + 7) % floats.len()];
        let mut j = JobRecord::new(k as u64, v);
        j.wait_time = w;
        j.run_time = -v;
        j.used_procs = ints[k % ints.len()];
        j.avg_cpu_time = v * 0.5;
        j.used_memory = w;
        j.requested_procs = ints[(k + 3) % ints.len()];
        j.requested_time = v.abs();
        j.requested_memory = -w;
        j.status = JobStatus::from_code(k as i64 % 6 - 1);
        j.user_id = ints[(k + 1) % ints.len()];
        j.group_id = ints[(k + 2) % ints.len()];
        j.executable_id = ints[(k + 4) % ints.len()];
        j.queue = ints[(k + 5) % ints.len()];
        j.partition = ints[(k + 6) % ints.len()];
        j.preceding_job = ints[(k + 7) % ints.len()];
        j.think_time = w * 3.0;
        jobs.push(j);
    }
    let mut last = JobRecord::new(u64::MAX, f64::NAN);
    last.wait_time = f64::INFINITY;
    last.run_time = f64::NEG_INFINITY;
    jobs.push(last);
    NormalizedTrace::new("awkward", grid_meta(), jobs)
}

#[test]
fn generated_text_digests_are_pinned() {
    let digest = |text: String| fnv1a(text.as_bytes());
    assert_eq!(digest(grid_site_text(0, 40_000, 42)), 0x0b58_77f6_cbbd_4d57);
    assert_eq!(digest(grid_site_text(4, 3_000, 7)), 0x6c4a_874b_e923_16f1);
    let web: Vec<u64> = (0..WEB_SERVER_COUNT)
        .map(|s| digest(web_server_text(s, 2_000, 1999)))
        .collect();
    assert_eq!(
        web,
        [
            0xbde0_1e8c_96db_346b,
            0x156b_217c_cae2_e839,
            0xc1e0_cea6_3360_e979,
            0xb100_044b_57f0_788e,
        ]
    );
}

#[test]
fn written_trace_digests_are_pinned() {
    let digest = |text: String| fnv1a(text.as_bytes());
    let parsed = parse_gwf(&grid_site_text(1, 2_000, 5))
        .expect("synthetic GWF parses")
        .into_trace("Grid5K", grid_meta());
    assert_eq!(digest(write_swf(&parsed)), 0x5b78_1e44_1bd5_1a13);
    assert_eq!(digest(write_gwf(&parsed)), 0xbe91_903c_9c29_9c91);
    let awkward = awkward_trace();
    assert_eq!(digest(write_swf(&awkward)), 0xbdfa_6767_6d81_48e6);
    assert_eq!(digest(write_gwf(&awkward)), 0x2922_6c6c_ffd0_c1b8);
}
