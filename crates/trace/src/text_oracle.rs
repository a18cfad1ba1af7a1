//! The SWF/GWF text layer as it was before its writer and field scanner
//! were rewritten for speed, kept as the oracle the shipped code must
//! match: byte for byte for the writers, record for record (to the bit)
//! and error for error for the parsers, for whole documents and for every
//! job line alone.
//!
//! The oracle writers build one `String` per field and join them; the
//! oracle line parsers split with `str::split_whitespace` and read every
//! field with `str::parse::<f64>`. The line loop (`parse_lines`) is
//! shared: the rewrite did not touch it.

use std::collections::BTreeMap;

use crate::gwf::GWF_FIELDS;
use crate::record::{JobRecord, JobStatus};
use crate::report::{parse_lines, ParseError, ParseErrorKind};
use crate::trace::NormalizedTrace;
use crate::TraceFormat;

/// What `parse_lines` returns: header and records, or the first error.
pub(crate) type Parsed = Result<(BTreeMap<String, String>, Vec<JobRecord>), ParseError>;

fn split_fields<const N: usize>(line: &str) -> Result<[&str; N], usize> {
    let mut fields = [""; N];
    let mut found = 0;
    for field in line.split_whitespace() {
        if let Some(slot) = fields.get_mut(found) {
            *slot = field;
        }
        found += 1;
    }
    if found == N {
        Ok(fields)
    } else {
        Err(found)
    }
}

fn numeric_field(fields: &[&str], i: usize, lineno: usize) -> Result<f64, ParseError> {
    let v = fields[i].parse::<f64>().map_err(|_| ParseError {
        line: lineno,
        kind: ParseErrorKind::NotNumeric,
        message: format!("field {} is not numeric: {:?}", i + 1, fields[i]),
    })?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::NonFinite,
            message: format!("field {} is not finite: {:?}", i + 1, fields[i]),
        })
    }
}

fn integer_field(fields: &[&str], i: usize, lineno: usize) -> Result<i64, ParseError> {
    let v = numeric_field(fields, i, lineno)?;
    Ok(v as i64)
}

fn swf_job_line(line: &str, lineno: usize) -> Result<JobRecord, ParseError> {
    let fields: [&str; 18] = split_fields(line).map_err(|found| ParseError {
        line: lineno,
        kind: ParseErrorKind::FieldCount,
        message: format!("expected 18 fields, found {found}"),
    })?;
    let f = |i: usize| numeric_field(&fields, i, lineno);
    let int = |i: usize| integer_field(&fields, i, lineno);
    let id = int(0)?;
    if id < 0 {
        return Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::NegativeId,
            message: format!("job id must be non-negative, found {id}"),
        });
    }
    Ok(JobRecord {
        id: id as u64,
        submit_time: f(1)?,
        wait_time: f(2)?,
        run_time: f(3)?,
        used_procs: int(4)?,
        avg_cpu_time: f(5)?,
        used_memory: f(6)?,
        requested_procs: int(7)?,
        requested_time: f(8)?,
        requested_memory: f(9)?,
        status: JobStatus::from_code(int(10)?),
        user_id: int(11)?,
        group_id: int(12)?,
        executable_id: int(13)?,
        queue: int(14)?,
        partition: int(15)?,
        preceding_job: int(16)?,
        think_time: f(17)?,
    })
}

fn gwf_job_line(line: &str, lineno: usize) -> Result<JobRecord, ParseError> {
    let fields: [&str; GWF_FIELDS] = split_fields(line).map_err(|found| ParseError {
        line: lineno,
        kind: ParseErrorKind::FieldCount,
        message: format!("expected {GWF_FIELDS} fields, found {found}"),
    })?;
    let f = |i: usize| numeric_field(&fields, i, lineno);
    let int = |i: usize| integer_field(&fields, i, lineno);
    let id = int(0)?;
    if id < 0 {
        return Err(ParseError {
            line: lineno,
            kind: ParseErrorKind::NegativeId,
            message: format!("job id must be non-negative, found {id}"),
        });
    }
    let mut j = JobRecord::new(id as u64, f(1)?);
    j.wait_time = f(2)?;
    j.run_time = f(3)?;
    j.used_procs = int(4)?;
    j.avg_cpu_time = f(5)?;
    j.used_memory = f(6)?;
    j.requested_procs = int(7)?;
    j.requested_time = f(8)?;
    j.requested_memory = f(9)?;
    j.status = JobStatus::from_code(int(10)?);
    j.user_id = int(11)?;
    j.group_id = int(12)?;
    j.executable_id = int(13)?;
    j.queue = int(14)?;
    j.partition = int(15)?;
    Ok(j)
}

/// The oracle SWF parse.
pub(crate) fn parse_swf(text: &str) -> Parsed {
    parse_lines(TraceFormat::Swf, ';', text, swf_job_line)
}

/// The oracle GWF parse.
pub(crate) fn parse_gwf(text: &str) -> Parsed {
    parse_lines(TraceFormat::Gwf, '#', text, gwf_job_line)
}

fn fmt_f(v: f64) -> String {
    // Keep integers compact; SWF consumers expect "-1" not "-1.0".
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn shared_fields(j: &JobRecord) -> Vec<String> {
    vec![
        j.id.to_string(),
        fmt_f(j.submit_time),
        fmt_f(j.wait_time),
        fmt_f(j.run_time),
        j.used_procs.to_string(),
        fmt_f(j.avg_cpu_time),
        fmt_f(j.used_memory),
        j.requested_procs.to_string(),
        fmt_f(j.requested_time),
        fmt_f(j.requested_memory),
        j.status.code().to_string(),
        j.user_id.to_string(),
        j.group_id.to_string(),
        j.executable_id.to_string(),
        j.queue.to_string(),
        j.partition.to_string(),
    ]
}

/// The oracle SWF writer.
pub(crate) fn write_swf(workload: &NormalizedTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("; Computer: {}\n", workload.name));
    out.push_str(&format!("; MaxNodes: {}\n", workload.machine.processors));
    out.push_str(&format!(
        "; SchedulerRank: {}\n",
        workload.machine.scheduler.rank()
    ));
    out.push_str(&format!(
        "; AllocationRank: {}\n",
        workload.machine.allocation.rank()
    ));
    out.push_str(&format!("; MaxJobs: {}\n", workload.len()));
    for j in workload.jobs() {
        let mut fields = shared_fields(j);
        fields.push(j.preceding_job.to_string());
        fields.push(fmt_f(j.think_time));
        out.push_str(&fields.join(" "));
        out.push('\n');
    }
    out
}

/// The oracle GWF writer.
pub(crate) fn write_gwf(trace: &NormalizedTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Site: {}\n", trace.name));
    out.push_str(&format!("# MaxNodes: {}\n", trace.machine.processors));
    out.push_str(&format!(
        "# SchedulerRank: {}\n",
        trace.machine.scheduler.rank()
    ));
    out.push_str(&format!(
        "# AllocationRank: {}\n",
        trace.machine.allocation.rank()
    ));
    out.push_str(&format!("# MaxJobs: {}\n", trace.len()));
    for j in trace.jobs() {
        let mut fields = shared_fields(j);
        fields.extend(std::iter::repeat_n("-1".to_string(), GWF_FIELDS - 16));
        out.push_str(&fields.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AllocationFlexibility, SchedulerFlexibility, TraceMeta};
    use proptest::prelude::*;
    use rand::prelude::*;
    use wl_stats::rng::seeded_rng;

    /// Every field of a record, floats as their bits, so -0.0 and 0.0
    /// differ.
    type Bits = [u64; 18];

    fn bits(j: &JobRecord) -> Bits {
        [
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

    /// A document's header and records as bits, or its first error.
    type Outcome = Result<(BTreeMap<String, String>, Vec<Bits>), ParseError>;

    fn outcome(parsed: Parsed) -> Outcome {
        parsed.map(|(header, jobs)| (header, jobs.iter().map(bits).collect()))
    }

    /// The shipped parser's outcome.
    fn shipped(format: TraceFormat, text: &str) -> Outcome {
        outcome(match format {
            TraceFormat::Swf => crate::swf::parse_swf(text).map(|d| (d.header, d.jobs)),
            _ => crate::gwf::parse_gwf(text).map(|d| (d.header, d.jobs)),
        })
    }

    /// The oracle's outcome.
    fn oracle(format: TraceFormat, text: &str) -> Outcome {
        outcome(match format {
            TraceFormat::Swf => parse_swf(text),
            _ => parse_gwf(text),
        })
    }

    /// A job line's record as bits, or its error.
    type LineOutcome = Result<Bits, ParseError>;

    /// Every job line of `text` (the lines the line loop hands to a line
    /// parser, before and after any malformed one) through the shipped
    /// and the oracle line parser: (shipped, oracle) per line.
    fn line_outcomes(format: TraceFormat, text: &str) -> Vec<(LineOutcome, LineOutcome)> {
        type LineParser = fn(&str, usize) -> Result<JobRecord, ParseError>;
        let (comment, shipped, oracle): (char, LineParser, LineParser) = match format {
            TraceFormat::Swf => (';', crate::swf::parse_job_line, swf_job_line),
            _ => ('#', crate::gwf::parse_job_line, gwf_job_line),
        };
        text.lines()
            .enumerate()
            .map(|(i, raw)| (i + 1, raw.trim()))
            .filter(|(_, line)| !line.is_empty() && !line.starts_with(comment))
            .map(|(lineno, line)| {
                (
                    shipped(line, lineno).map(|j| bits(&j)),
                    oracle(line, lineno).map(|j| bits(&j)),
                )
            })
            .collect()
    }

    /// The shipped parsers give the oracle's document outcome, and the
    /// oracle's record or error for every job line.
    fn assert_matches_the_oracle(format: TraceFormat, text: &str) {
        assert_eq!(shipped(format, text), oracle(format, text), "{text:?}");
        for (got, want) in line_outcomes(format, text) {
            assert_eq!(got, want, "{text:?}");
        }
    }

    /// Field texts: plain integers around the fast path's 15-digit edge,
    /// and every number shape `str::parse::<f64>` treats otherwise.
    const TOKENS: &[&str] = &[
        "-1",
        "0",
        "-0",
        "-00",
        "007",
        "1",
        "42",
        "-42",
        "+5",
        "1e3",
        "5.",
        ".5",
        "0.5",
        "-12.75",
        "1.25e-3",
        "999999999999999",
        "-999999999999999",
        "1000000000000000",
        "9007199254740993",
        "123456789012345678901",
        "-123456789012345678901",
        "inf",
        "-inf",
        "infinity",
        "NaN",
        "1e999",
        "0x10",
        "\u{2212}1",
        "1_000",
        "-",
        "--1",
        "1-",
        "abc",
        "\u{e9}7",
    ];

    /// Separators: the six ASCII whitespace bytes, Unicode spaces, and two
    /// characters that are not whitespace (which join fields).
    const SEPARATORS: &[&str] = &[
        " ", " ", " ", "  ", "\t", "\x0B", "\x0C", "\r", " \t", "\u{a0}", "\u{3000}", "\u{2003}",
        "\u{85}", "\u{200b}", "\x1f",
    ];

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// A document of `format` job lines (mostly well formed, numbers and
    /// separators mutated), with header, comment and blank lines, LF or
    /// CRLF endings.
    fn document(format: TraceFormat, seed: u64) -> String {
        let mut rng = seeded_rng(seed);
        let (comment, fields) = match format {
            TraceFormat::Swf => (";", 18),
            _ => ("#", GWF_FIELDS),
        };
        let mutate = rng.gen_range(0.0..0.3);
        let mut text = String::new();
        for _ in 0..rng.gen_range(0..12) {
            let eol = if rng.gen_bool(0.2) { "\r\n" } else { "\n" };
            match rng.gen_range(0..10) {
                0 => text.push_str(&format!("{comment} MaxNodes: {}", rng.gen_range(0..99))),
                1 => text.push_str(&format!("{comment} a note")),
                2 => text.push_str(pick(&mut rng, &["", " ", "\t\x0B"])),
                _ => {
                    let n = match rng.gen_range(0..8) {
                        0 => fields - 1,
                        1 => fields + 1,
                        _ => fields,
                    };
                    if rng.gen_bool(0.2) {
                        text.push_str(pick(&mut rng, SEPARATORS));
                    }
                    for k in 0..n {
                        if k > 0 {
                            let sep = if rng.gen_bool(mutate) {
                                pick(&mut rng, SEPARATORS)
                            } else {
                                " "
                            };
                            text.push_str(sep);
                        }
                        if rng.gen_bool(mutate) {
                            text.push_str(pick(&mut rng, TOKENS));
                        } else if k == 0 {
                            text.push_str(&rng.gen_range(0..100_000u32).to_string());
                        } else {
                            text.push_str(&rng.gen_range(-1..3_000i64).to_string());
                        }
                    }
                    if rng.gen_bool(0.2) {
                        text.push_str(pick(&mut rng, &["\t", " ", "\t\t", "\x0C"]));
                    }
                }
            }
            text.push_str(eol);
        }
        text
    }

    fn machine() -> TraceMeta {
        TraceMeta::new(
            64,
            SchedulerFlexibility::Backfilling,
            AllocationFlexibility::Unlimited,
        )
    }

    /// Float field values: integers, fractions, signed zeros, values on
    /// both sides of the 1e15 boundary, huge and non-finite ones.
    fn float_value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12) {
            0 => -1.0,
            1 => rng.gen_range(-5..100_000i64) as f64,
            2 => rng.gen_range(-1e6..1e6),
            3 => [0.0, -0.0][rng.gen_range(0..2usize)],
            4 => 1e15 + rng.gen_range(-3..3i64) as f64,
            5 => -1e15 + rng.gen_range(-3..3i64) as f64,
            6 => 1e15 - 0.5,
            7 => rng.gen_range(-1e300..1e300),
            8 => [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324][rng.gen_range(0..4usize)],
            9 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)],
            10 => rng.gen_range(-1e17..1e17f64).trunc(),
            _ => rng.gen_range(0..1_000_000i64) as f64 / 8.0,
        }
    }

    fn int_value(rng: &mut StdRng) -> i64 {
        match rng.gen_range(0..5) {
            0 => -1,
            1 => rng.gen_range(0..1000),
            2 => [i64::MIN, i64::MAX, 0, -0][rng.gen_range(0..4usize)],
            3 => rng.gen_range(i64::MIN..i64::MAX),
            _ => rng.gen_range(-99_999..99_999),
        }
    }

    fn random_trace(seed: u64) -> NormalizedTrace {
        let mut rng = seeded_rng(seed);
        let jobs = (0..rng.gen_range(0..20))
            .map(|_| {
                let id = match rng.gen_range(0..3) {
                    0 => u64::MAX,
                    1 => rng.gen_range(0..u64::MAX),
                    _ => rng.gen_range(0..10_000),
                };
                let mut j = JobRecord::new(id, float_value(&mut rng));
                j.wait_time = float_value(&mut rng);
                j.run_time = float_value(&mut rng);
                j.used_procs = int_value(&mut rng);
                j.avg_cpu_time = float_value(&mut rng);
                j.used_memory = float_value(&mut rng);
                j.requested_procs = int_value(&mut rng);
                j.requested_time = float_value(&mut rng);
                j.requested_memory = float_value(&mut rng);
                j.status = JobStatus::from_code(rng.gen_range(-1..6));
                j.user_id = int_value(&mut rng);
                j.group_id = int_value(&mut rng);
                j.executable_id = int_value(&mut rng);
                j.queue = int_value(&mut rng);
                j.partition = int_value(&mut rng);
                j.preceding_job = int_value(&mut rng);
                j.think_time = float_value(&mut rng);
                j
            })
            .collect();
        let name = ["t", "a b", "Grid5K", "\u{e9}t\u{e9}"][rng.gen_range(0..4usize)];
        NormalizedTrace::new(name, machine(), jobs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The writers emit the oracle's bytes for any record.
        #[test]
        fn writers_match_the_oracle(seed in 0u64..u64::MAX) {
            let trace = random_trace(seed);
            prop_assert_eq!(crate::swf::write_swf(&trace), write_swf(&trace));
            prop_assert_eq!(crate::gwf::write_gwf(&trace), write_gwf(&trace));
        }

        /// The parsers give the oracle's header and records (to the bit)
        /// or first error, and the oracle's outcome for every job line.
        #[test]
        fn parsers_match_the_oracle(seed in 0u64..u64::MAX) {
            for format in [TraceFormat::Swf, TraceFormat::Gwf] {
                assert_matches_the_oracle(format, &document(format, seed));
            }
        }

        /// What the writers emit parses back to the oracle's records.
        #[test]
        fn written_text_parses_like_the_oracle(seed in 0u64..u64::MAX) {
            let trace = random_trace(seed);
            for (format, text) in [
                (TraceFormat::Swf, write_swf(&trace)),
                (TraceFormat::Gwf, write_gwf(&trace)),
            ] {
                assert_matches_the_oracle(format, &text);
            }
        }
    }

    /// Some documents and job lines must make each parser fail, or the
    /// error paths go unchecked.
    #[test]
    fn generated_documents_reach_every_outcome() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..400 {
            for format in [TraceFormat::Swf, TraceFormat::Gwf] {
                let text = document(format, seed);
                kinds.insert(match oracle(format, &text) {
                    Ok((_, jobs)) => {
                        assert!(jobs.len() <= text.lines().count());
                        "ok"
                    }
                    Err(e) => e.kind.label(),
                });
                for (_, line) in line_outcomes(format, &text) {
                    kinds.insert(line.map(|_| "ok").unwrap_or_else(|e| e.kind.label()));
                }
            }
        }
        for kind in [
            "ok",
            "field-count",
            "not-numeric",
            "non-finite",
            "negative-id",
        ] {
            assert!(kinds.contains(kind), "{kind} never generated: {kinds:?}");
        }
    }
}
