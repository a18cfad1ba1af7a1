//! Trait-level parse machinery shared by every trace adapter.
//!
//! The SWF parser's typed per-line error taxonomy and metrics mirroring
//! generalize here: every adapter reports the same [`ParseErrorKind`]s and
//! increments the same per-format `<format>.lines` /
//! `<format>.header_lines` / `<format>.jobs_parsed` / `<format>.skip.<kind>`
//! counters, so `/metrics` distinguishes ingestion formats with one
//! taxonomy.

use std::collections::BTreeMap;
use std::fmt;

use crate::trace::{AllocationFlexibility, SchedulerFlexibility, TraceMeta};
use crate::TraceFormat;

/// Typed reason a data line was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParseErrorKind {
    /// Wrong number of fields (truncated or padded line).
    FieldCount,
    /// A field was not numeric.
    NotNumeric,
    /// The job id was negative.
    NegativeId,
    /// A field parsed to NaN or an infinity.
    NonFinite,
    /// A timestamp field could not be decoded (web access logs).
    BadTimestamp,
    /// A request line could not be decoded (web access logs).
    BadRequest,
}

impl ParseErrorKind {
    /// Short kebab-case label, stable for metrics and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            ParseErrorKind::FieldCount => "field-count",
            ParseErrorKind::NotNumeric => "not-numeric",
            ParseErrorKind::NegativeId => "negative-id",
            ParseErrorKind::NonFinite => "non-finite",
            ParseErrorKind::BadTimestamp => "bad-timestamp",
            ParseErrorKind::BadRequest => "bad-request",
        }
    }
}

/// Error from parsing a trace document, independent of format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Typed malformation kind.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {} ({}): {}",
            self.line,
            self.kind.label(),
            self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The shared line loop behind every adapter: blank lines are ignored,
/// `<comment>Key: value` lines become header metadata, other comment lines
/// are ignored, and everything else goes through `parse_record`. The first
/// malformed record ends the scan with its error.
///
/// When the `wl-obs` registry is armed, the lines read (up to and
/// including a failing one), the header lines absorbed and the records
/// parsed go to the format's `<format>.lines`, `<format>.header_lines` and
/// `<format>.jobs_parsed` counters, and a failing line's kind to its
/// `<format>.skip.<kind>` counter.
pub(crate) fn parse_lines<R>(
    format: TraceFormat,
    comment: char,
    text: &str,
    parse_record: impl Fn(&str, usize) -> Result<R, ParseError>,
) -> Result<(BTreeMap<String, String>, Vec<R>), ParseError> {
    let mut header = BTreeMap::new();
    let mut records = Vec::new();
    let mut lines = 0;
    let mut header_lines = 0;
    let mut failure = None;

    for (lineno, raw) in text.lines().enumerate() {
        lines += 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(comment) {
            if let Some((key, value)) = rest.split_once(':') {
                header.insert(key.trim().to_string(), value.trim().to_string());
                header_lines += 1;
            }
            continue;
        }
        match parse_record(line, lineno + 1) {
            Ok(record) => records.push(record),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }

    // Counter names vary by format, so this goes through the dynamic
    // registry handles rather than the per-call-site `counter!` macro
    // (which interns one literal name per expansion).
    if wl_obs::enabled() {
        let reg = wl_obs::registry();
        reg.counter(format.lines_counter()).add(lines);
        reg.counter(format.header_counter()).add(header_lines);
        reg.counter(format.jobs_counter()).add(records.len() as u64);
        if let Some(e) = &failure {
            reg.counter(format.skip_counter(e.kind)).add(1);
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok((header, records)),
    }
}

/// One whitespace-separated field of a job line: its text and, when the
/// text is a plain decimal integer, the f64 it names.
#[derive(Clone, Copy)]
pub(crate) struct Field<'a> {
    pub(crate) text: &'a str,
    /// `Some` exactly when the text is an optional `-` and 1 to 15 ASCII
    /// digits; the value is then the one `str::parse::<f64>` gives.
    pub(crate) integer: Option<f64>,
}

/// Split a job line into its first `K` whitespace-separated fields without
/// allocating, by the rule of [`str::split_whitespace`] (Unicode whitespace
/// included), and check that the line holds `total` (at least `K`) fields in
/// all. When it does not, the error is the number it does hold.
///
/// An ASCII line is split byte by byte on the six bytes `char::is_whitespace`
/// accepts below 0x80 (`\t`, `\n`, `\x0B`, `\x0C`, `\r` and space), reading
/// each field's integer as it goes, and the fields after the `K`-th are
/// only counted. A line with any other byte goes through `split_whitespace`
/// itself.
pub(crate) fn split_fields<const K: usize>(
    line: &str,
    total: usize,
) -> Result<[Field<'_>; K], usize> {
    let mut fields = [Field {
        text: "",
        integer: None,
    }; K];
    if !line.is_ascii() {
        let mut found = 0;
        for text in line.split_whitespace() {
            if let Some(slot) = fields.get_mut(found) {
                let (_, integer) = scan_field(text.as_bytes(), 0);
                *slot = Field { text, integer };
            }
            found += 1;
        }
        return if found == total {
            Ok(fields)
        } else {
            Err(found)
        };
    }
    let bytes = line.as_bytes();
    let mut end = 0;
    for (found, slot) in fields.iter_mut().enumerate() {
        let mut start = end;
        while start < bytes.len() && is_space(bytes[start]) {
            start += 1;
        }
        if start == bytes.len() {
            return Err(found);
        }
        let (field_end, integer) = scan_field(bytes, start);
        *slot = Field {
            text: &line[start..field_end],
            integer,
        };
        end = field_end;
    }
    let rest = count_fields(&bytes[end..]);
    if K + rest == total {
        Ok(fields)
    } else {
        Err(K + rest)
    }
}

/// Walk the field that starts at `bytes[start]` to its end, the next ASCII
/// whitespace byte or the end of `bytes`. Returns that end and, when the
/// field is an optional `-` followed by 1 to 15 ASCII digits, the f64 it
/// names: fifteen digits stay below 2^53, so their value converts exactly,
/// and the sign is applied to the float, so `-0` reads as -0.0, as
/// `str::parse::<f64>` reads it.
fn scan_field(bytes: &[u8], start: usize) -> (usize, Option<f64>) {
    let negative = bytes.get(start) == Some(&b'-');
    let digits = start + usize::from(negative);
    let mut end = digits;
    let mut n = 0u64;
    let mut plain = true;
    while end < bytes.len() {
        let b = bytes[end];
        let digit = b.wrapping_sub(b'0');
        if digit <= 9 {
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit));
        } else if is_space(b) {
            break;
        } else {
            plain = false;
        }
        end += 1;
    }
    let integer = (plain && (1..=15).contains(&(end - digits))).then(|| {
        let v = n as f64;
        if negative {
            -v
        } else {
            v
        }
    });
    (end, integer)
}

/// The ASCII bytes `char::is_whitespace` accepts: `\t` through `\r`, and
/// space.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The number of fields in ASCII `rest`, which is empty or starts with a
/// space: the non-space bytes that follow a space byte. Eight bytes at a
/// time; a short last word is padded with spaces, which start no field.
fn count_fields(rest: &[u8]) -> usize {
    let mut count = 0;
    let mut carry = 0;
    let mut add = |word: [u8; 8]| {
        let spaces = space_bits(u64::from_le_bytes(word));
        // Bit 7 of byte i: byte i - 1 is a space and byte i is not.
        count += (((spaces << 8) | carry) & !spaces).count_ones() as usize;
        carry = spaces >> 56;
    };
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        add(word.try_into().expect("chunks of 8 bytes"));
    }
    if !words.remainder().is_empty() {
        let mut padded = [b' '; 8];
        padded[..words.remainder().len()].copy_from_slice(words.remainder());
        add(padded);
    }
    count
}

/// Bit 7 of each byte of `w` set exactly where the byte is one [`is_space`]
/// accepts, for bytes below 0x80. Each byte's sums stay below 0x100, so no
/// carry crosses into its neighbour.
fn space_bits(w: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let x = w ^ 0x2020_2020_2020_2020;
    let is_0x20 = !(((x & LOW7) + LOW7) | x | LOW7);
    let at_least_0x09 = w + 0x7777_7777_7777_7777;
    let at_least_0x0e = w + 0x7272_7272_7272_7272;
    (is_0x20 | (at_least_0x09 & !at_least_0x0e)) & HIGH
}

/// Read the machine metadata this workspace encodes in header comments
/// (`MaxNodes`/`MaxProcs`, plus the `SchedulerRank` / `AllocationRank`
/// extension keys), falling back to the supplied defaults.
pub(crate) fn meta_from_header(
    header: &BTreeMap<String, String>,
    default: TraceMeta,
) -> TraceMeta {
    let procs = header
        .get("MaxNodes")
        .or_else(|| header.get("MaxProcs"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default.processors);
    let sched = header
        .get("SchedulerRank")
        .and_then(|v| v.trim().parse::<u8>().ok())
        .and_then(|r| match r {
            1 => Some(SchedulerFlexibility::BatchQueue),
            2 => Some(SchedulerFlexibility::Backfilling),
            3 => Some(SchedulerFlexibility::Gang),
            _ => None,
        })
        .unwrap_or(default.scheduler);
    let alloc = header
        .get("AllocationRank")
        .and_then(|v| v.trim().parse::<u8>().ok())
        .and_then(|r| match r {
            1 => Some(AllocationFlexibility::PowerOfTwoPartitions),
            2 => Some(AllocationFlexibility::Limited),
            3 => Some(AllocationFlexibility::Unlimited),
            _ => None,
        })
        .unwrap_or(default.allocation);
    TraceMeta::new(procs, sched, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_total_and_unique() {
        let kinds = [
            ParseErrorKind::FieldCount,
            ParseErrorKind::NotNumeric,
            ParseErrorKind::NegativeId,
            ParseErrorKind::NonFinite,
            ParseErrorKind::BadTimestamp,
            ParseErrorKind::BadRequest,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn skip_counter_names_are_distinct_per_format() {
        let mut names: Vec<&str> = Vec::new();
        for format in [TraceFormat::Swf, TraceFormat::Gwf, TraceFormat::Weblog] {
            names.push(format.lines_counter());
            names.push(format.header_counter());
            names.push(format.jobs_counter());
            for kind in [
                ParseErrorKind::FieldCount,
                ParseErrorKind::NotNumeric,
                ParseErrorKind::NegativeId,
                ParseErrorKind::NonFinite,
                ParseErrorKind::BadTimestamp,
                ParseErrorKind::BadRequest,
            ] {
                names.push(format.skip_counter(kind));
            }
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    /// A line loop over `text` whose records are the lines reading "ok";
    /// any other data line fails with its line number.
    fn ok_lines(text: &str) -> Result<(BTreeMap<String, String>, Vec<usize>), ParseError> {
        parse_lines(TraceFormat::Gwf, ';', text, |line, lineno| {
            if line == "ok" {
                Ok(lineno)
            } else {
                Err(ParseError {
                    line: lineno,
                    kind: ParseErrorKind::NotNumeric,
                    message: "bad".into(),
                })
            }
        })
    }

    #[test]
    fn shared_loop_reads_headers_and_skips_blanks_and_comments() {
        let (header, records) = ok_lines("; A: 1\n\n; plain comment\n ok\t\n;B:2\nok\n").unwrap();
        assert_eq!(header.len(), 2);
        assert_eq!((header["A"].as_str(), header["B"].as_str()), ("1", "2"));
        assert_eq!(records, vec![4, 6]);
    }

    #[test]
    fn shared_loop_stops_at_first_error() {
        let err = ok_lines("; A: 1\nok\nbad\nok\nworse\n").unwrap_err();
        assert_eq!((err.line, err.kind), (3, ParseErrorKind::NotNumeric));
    }

    /// The text `scan_field` must read as an integer: an optional `-` and
    /// 1 to 15 ASCII digits.
    fn is_plain_integer(text: &str) -> bool {
        let digits = text.strip_prefix('-').unwrap_or(text);
        (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit())
    }

    #[test]
    fn every_char_below_0x80_is_split_as_split_whitespace_splits() {
        for c in 0u8..0x80 {
            assert_eq!(is_space(c), (c as char).is_whitespace(), "{c:#x}");
            let line = format!("1{}2", c as char);
            let want: Vec<&str> = line.split_whitespace().collect();
            match split_fields::<2>(&line, 2) {
                Ok(fields) => assert_eq!(fields.map(|f| f.text).to_vec(), want, "{c:#x}"),
                Err(found) => assert_eq!(found, want.len(), "{c:#x}"),
            }
            // After the first field the rest is only counted, eight bytes
            // at a time: put the byte at every offset of a word.
            for pad in 0..10 {
                let line = format!("0 {}1{}2 3", " ".repeat(pad), c as char);
                let want = line.split_whitespace().count();
                assert_eq!(split_fields::<1>(&line, want).map(|_| want), Ok(want));
                assert_eq!(
                    split_fields::<1>(&line, 9).err(),
                    Some(want),
                    "{c:#x} {pad}"
                );
            }
        }
    }

    #[test]
    fn integer_path_edge_cases() {
        for (text, want) in [
            ("-0", Some(-0.0f64)),
            ("0", Some(0.0)),
            ("-00", Some(-0.0)),
            ("007", Some(7.0)),
            ("999999999999999", Some(999_999_999_999_999.0)),
            ("-999999999999999", Some(-999_999_999_999_999.0)),
            ("1000000000000000", None),
            ("+5", None),
            ("5.", None),
            (".5", None),
            ("1e3", None),
            ("-", None),
            ("--1", None),
            ("1-", None),
            ("", None),
        ] {
            let (end, integer) = scan_field(text.as_bytes(), 0);
            assert_eq!(end, text.len(), "{text:?}");
            assert_eq!(
                integer.map(f64::to_bits),
                want.map(f64::to_bits),
                "{text:?}"
            );
        }
        // A field ends at the first ASCII whitespace byte.
        assert_eq!(scan_field(b"12\x0B3", 0), (2, Some(12.0)));
        assert_eq!(scan_field(b"x -4 5", 2), (4, Some(-4.0)));
    }

    mod props {
        use super::super::*;
        use super::is_plain_integer;
        use proptest::prelude::*;
        use rand::prelude::*;
        use wl_stats::rng::seeded_rng;

        /// Pieces of field text: digits, signs, the other number shapes,
        /// ASCII and Unicode whitespace, and non-whitespace look-alikes.
        const PIECES: &[&str] = &[
            "0", "1", "7", "9", "-", "+", ".", "e", "x", "inf", "NaN", " ", " ", "\t", "\x0B",
            "\x0C", "\r", "\n", "\u{a0}", "\u{3000}", "\u{85}", "\u{2212}", "\u{200b}", "\x1f",
            "\u{e9}",
        ];

        fn text(seed: u64) -> String {
            let mut rng = seeded_rng(seed);
            let digits_only = rng.gen_bool(0.4);
            (0..rng.gen_range(0..40))
                .map(|_| {
                    if digits_only {
                        PIECES[rng.gen_range(0..5usize)]
                    } else {
                        PIECES[rng.gen_range(0..PIECES.len())]
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// The integer path reads exactly the plain decimal integers,
            /// to the bit of `str::parse::<f64>`; everything else is left
            /// to the parse.
            #[test]
            fn integer_path_equals_str_parse(seed in 0u64..u64::MAX) {
                let line = text(seed);
                for field in line.split_whitespace() {
                    let (end, integer) = scan_field(field.as_bytes(), 0);
                    prop_assert_eq!(end, field.len());
                    prop_assert_eq!(integer.is_some(), is_plain_integer(field), "{:?}", field);
                    if let Some(v) = integer {
                        let parsed: f64 = field.parse().expect("a plain integer parses");
                        prop_assert_eq!(v.to_bits(), parsed.to_bits(), "{:?}", field);
                    }
                }
            }

            /// The scanner finds `split_whitespace`'s fields and count, on
            /// ASCII and Unicode lines alike.
            #[test]
            fn scanner_equals_split_whitespace(seed in 0u64..u64::MAX) {
                let line = text(seed);
                let want: Vec<&str> = line.split_whitespace().collect();
                for total in [3, 4, want.len().max(3)] {
                    match split_fields::<3>(&line, total) {
                        Ok(fields) => {
                            prop_assert_eq!(want.len(), total, "{:?}", line);
                            let texts = fields.map(|f| f.text);
                            prop_assert_eq!(&texts[..], &want[..3], "{:?}", line);
                            for f in fields {
                                prop_assert_eq!(f.integer, scan_field(f.text.as_bytes(), 0).1);
                            }
                        }
                        Err(found) => {
                            prop_assert!(want.len() != total, "{:?}", line);
                            prop_assert_eq!(found, want.len(), "{:?}", line);
                        }
                    }
                }
            }
        }
    }
}
