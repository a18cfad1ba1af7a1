//! Exporters: human-readable text and line-delimited JSON.
//!
//! The JSON-lines form is the machine surface (`--trace json`,
//! `--metrics-out`): one object per line, integer nanosecond timestamps,
//! validated by [`crate::check_trace`]. The text form aggregates span
//! durations per name for quick eyeballing (`--trace text`).

use crate::json::escape_str;
use crate::registry::MetricsSnapshot;
use crate::span::{SpanEvent, SpanEventKind};
use std::collections::BTreeMap;

/// Aggregate of all closed spans sharing a name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub panicked: u64,
}

/// Fold raw span events into per-name totals (per-thread LIFO matching;
/// spans still open at snapshot time are ignored).
pub fn span_totals(events: &[SpanEvent]) -> BTreeMap<&'static str, SpanTotal> {
    let mut stacks: BTreeMap<u32, Vec<(&'static str, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.thread).or_default();
        match ev.kind {
            SpanEventKind::Enter => stack.push((ev.name, ev.ts_ns)),
            SpanEventKind::Exit => {
                if let Some((name, start)) = stack.pop() {
                    if name == ev.name {
                        let t = totals.entry(name).or_default();
                        t.count += 1;
                        t.total_ns += ev.ts_ns.saturating_sub(start);
                        t.panicked += u64::from(ev.panicked);
                    }
                }
            }
        }
    }
    totals
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Human-readable report of metrics and aggregated spans.
pub fn export_text(snapshot: &MetricsSnapshot, events: &[SpanEvent]) -> String {
    let mut out = String::new();
    out.push_str("== wl-obs report ==\n");

    let totals = span_totals(events);
    if !totals.is_empty() {
        out.push_str("spans (aggregated per name):\n");
        for (name, t) in &totals {
            out.push_str(&format!(
                "  {name:<44} count={:<6} total={}{}\n",
                t.count,
                fmt_ns(t.total_ns),
                if t.panicked > 0 {
                    format!(" panicked={}", t.panicked)
                } else {
                    String::new()
                }
            ));
        }
    }
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snapshot.counters {
            out.push_str(&format!("  {name:<44} {v}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snapshot.gauges {
            out.push_str(&format!("  {name:<44} {v}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snapshot.histograms {
            if h.count == 0 {
                out.push_str(&format!("  {name:<44} count=0\n"));
            } else {
                out.push_str(&format!(
                    "  {name:<44} count={} sum={} mean={:.2} min={} max={} p50<={} p99<={}\n",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.min,
                    h.max,
                    h.quantile(0.5),
                    h.quantile(0.99),
                ));
            }
        }
    }
    let dropped = crate::span::events_dropped();
    if dropped > 0 {
        out.push_str(&format!("span enters dropped at buffer cap: {dropped}\n"));
    }
    out
}

/// Line-delimited JSON: a meta header, then span events in record order,
/// then one line per metric. Timestamps are integer nanoseconds.
pub fn export_json_lines(snapshot: &MetricsSnapshot, events: &[SpanEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"format\":\"wl-obs\",\"version\":1,\"span_events\":{},\"events_dropped\":{}}}\n",
        events.len(),
        crate::span::events_dropped(),
    ));
    for ev in events {
        let event = match ev.kind {
            SpanEventKind::Enter => "enter",
            SpanEventKind::Exit => "exit",
        };
        out.push_str(&format!(
            "{{\"type\":\"span\",\"event\":\"{event}\",\"name\":\"{}\",\"ts_ns\":{},\"thread\":{},\"depth\":{}{}}}\n",
            escape_str(ev.name),
            ev.ts_ns,
            ev.thread,
            ev.depth,
            if ev.kind == SpanEventKind::Exit {
                format!(",\"panicked\":{}", ev.panicked)
            } else {
                String::new()
            },
        ));
    }
    for (name, v) in &snapshot.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
            escape_str(name)
        ));
    }
    for (name, v) in &snapshot.gauges {
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}\n",
            escape_str(name)
        ));
    }
    for (name, h) in &snapshot.histograms {
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}\n",
            escape_str(name),
            h.count,
            h.sum,
            if h.count == 0 { 0 } else { h.min },
            h.max,
            h.quantile(0.5),
            h.quantile(0.99),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HistogramSnapshot;
    use crate::span::SpanEventKind::{Enter, Exit};

    fn ev(
        name: &'static str,
        kind: SpanEventKind,
        ts_ns: u64,
        thread: u32,
        depth: u16,
    ) -> SpanEvent {
        SpanEvent {
            name,
            kind,
            ts_ns,
            thread,
            depth,
            panicked: false,
        }
    }

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            ev("outer", Enter, 0, 0, 0),
            ev("inner", Enter, 10, 0, 1),
            ev("other", Enter, 12, 1, 0),
            ev("other", Exit, 30, 1, 0),
            ev("inner", Exit, 40, 0, 1),
            ev("outer", Exit, 100, 0, 0),
        ]
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("engine.prepared".into(), 3)],
            gauges: vec![("pool.threads".into(), 8)],
            histograms: vec![(
                "mds.iters".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 30,
                    min: 10,
                    max: 20,
                    buckets: {
                        let mut b = [0u64; crate::HIST_BUCKETS];
                        b[4] = 1;
                        b[5] = 1;
                        b
                    },
                },
            )],
        }
    }

    #[test]
    fn span_totals_match_interleaved_threads() {
        let totals = span_totals(&sample_events());
        assert_eq!(totals["outer"], SpanTotal { count: 1, total_ns: 100, panicked: 0 });
        assert_eq!(totals["inner"].total_ns, 30);
        assert_eq!(totals["other"].total_ns, 18);
    }

    #[test]
    fn text_export_mentions_every_metric() {
        let text = export_text(&sample_snapshot(), &sample_events());
        for needle in ["engine.prepared", "pool.threads", "mds.iters", "outer", "count=2"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_lines_pass_the_checker() {
        let doc = export_json_lines(&sample_snapshot(), &sample_events());
        let stats = crate::check_trace(&doc).expect("exporter output must validate");
        assert_eq!(stats.span_events, 6);
        assert_eq!(stats.metrics, 3);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn every_json_line_parses_individually() {
        let doc = export_json_lines(&sample_snapshot(), &sample_events());
        for line in doc.lines() {
            crate::parse_json(line).unwrap();
        }
    }
}
