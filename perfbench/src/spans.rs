//! The benchmark's own span recorder: spans around calls into each layer's
//! public functions, kept in memory and written out when the run ends.
//!
//! A span has a name, a start, an end, its parent and a request id shared
//! by every span of one operation. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, also the per-layer metric it feeds.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation this span belongs to.
    pub request: u64,
}

/// Records nested spans. With recording off, [`Tracer::span`] only runs its
/// closure, so an identical replay with the tracer off measures the cost
/// of tracing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `request`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Record child spans of the most recently closed span named `parent`
    /// from durations the program reports itself (such as the engine's
    /// stage reports), placed back to back from the parent's start: the
    /// program gives durations, not start times.
    pub fn add_children(&mut self, parent: &'static str, children: &[(&'static str, Duration)]) {
        if !self.on {
            return;
        }
        let Some(pi) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let (mut at, request) = (self.spans[pi].start_ns, self.spans[pi].request);
        for &(name, d) in children {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(pi),
                request,
            });
            at = end;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Run `replay` once untraced to warm caches, then twice untraced and twice
/// traced, alternating. Returns the traced replays' extra wall time over
/// the untraced ones, in percent, and the last traced replay's spans.
pub fn traced_replay(mut replay: impl FnMut(&mut Tracer)) -> (f64, Tracer) {
    replay(&mut Tracer::new(false));
    let (mut off, mut on) = (0.0, 0.0);
    let mut last = Tracer::new(true);
    for _ in 0..2 {
        let start = Instant::now();
        replay(&mut Tracer::new(false));
        off += start.elapsed().as_secs_f64();
        last = Tracer::new(true);
        let start = Instant::now();
        replay(&mut last);
        on += start.elapsed().as_secs_f64();
    }
    (100.0 * (on - off) / off, last)
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's own interval. Children may
/// overlap one another (parallel work) without being counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0u64;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two children overlapping on [20, 30): covered = [10, 40).
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A child spilling past its parent counts only inside it.
            span("c", 90, 120, Some(0)),
            // A grandchild does not reduce the root's self time again.
            span("d", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 30 - 10);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::thread::sleep(Duration::from_millis(2)));
        });
        t.add_children("inner", &[("stage", Duration::from_micros(500))]);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("stage", Some(1)));
        assert!(s.iter().all(|x| x.request == 7 && x.end_ns >= x.start_ns));
        let own = t.self_ms_by_name();
        let inner_wall = (s[1].end_ns - s[1].start_ns) as f64 / 1e6;
        assert!((own["inner"] - (inner_wall - 0.5)).abs() < 1e-9);
        assert!((own["stage"] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tracer_off_runs_closures_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, |t| t.span("y", 1, |_| 42));
        t.add_children("x", &[("z", Duration::from_millis(1))]);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
