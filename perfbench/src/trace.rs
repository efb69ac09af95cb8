//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The program itself is not instrumented: a span covers one call the
//! benchmark makes into a layer's public function, named
//! `<layer>.<function>` (e.g. `core.Engine::evaluate`). Root spans are the
//! benchmark's ops (`bench.op`) or scheduler rounds (`bench.round`).
//! Every call is timed; spans are kept only when tracing is on, in
//! memory, and written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// The op (or round) the span belongs to.
    pub op_id: u64,
    /// Unique within the run.
    pub span_id: u64,
    /// The enclosing span, `None` for a root.
    pub parent_id: Option<u64>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Counter deltas observed across the call.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span (see [`Tracer::begin`]).
#[derive(Clone, Copy, Debug)]
pub struct Open {
    span_id: u64,
    start: Instant,
}

impl Open {
    /// The span's id, to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    open: Vec<(Open, &'static str, u64, Option<u64>)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches span recording on or off (timing continues either way).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op_id: u64, parent: Option<u64>) -> Open {
        self.next_id += 1;
        let open = Open {
            span_id: self.next_id,
            start: Instant::now(),
        };
        if self.enabled {
            self.open.push((open, name, op_id, parent));
        }
        open
    }

    /// Closes `open`, attaching `attrs`; returns the span's duration.
    pub fn end(&mut self, open: Open, attrs: &[(&'static str, f64)]) -> Duration {
        let end = Instant::now();
        if self.enabled {
            if let Some(i) = self
                .open
                .iter()
                .rposition(|(o, ..)| o.span_id == open.span_id)
            {
                let (o, name, op_id, parent_id) = self.open.swap_remove(i);
                self.spans.push(Span {
                    name,
                    op_id,
                    span_id: o.span_id,
                    parent_id,
                    start_ns: self.ns(o.start),
                    end_ns: self.ns(end),
                    attrs: attrs.to_vec(),
                });
            }
        }
        end - open.start
    }

    /// Runs `f` inside a child span of `parent`; returns its result and
    /// duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, op_id, parent);
        let out = f();
        let d = self.end(open, &[]);
        (out, d)
    }

    /// Attaches counter deltas to the most recently closed span.
    pub fn annotate(&mut self, attrs: &[(&'static str, f64)]) {
        if let Some(last) = self.spans.last_mut() {
            last.attrs.extend_from_slice(attrs);
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }
}

/// Per-layer self time: each span's duration minus the time its child
/// spans cover, summed by layer, in ms. The root spans' total is the
/// benchmark's own `bench` entry plus everything below it.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent_id {
            covered.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let children = covered.remove(&s.span_id).unwrap_or_default();
        let self_ns = s.duration_ns().saturating_sub(union_ns(children));
        *out.entry(s.layer()).or_default() += self_ns as f64 / 1e6;
    }
    out
}

/// Total duration of the root spans, in ms.
pub fn root_time_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent_id.is_none())
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

/// Length of the union of intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The spans as JSONL, one object per line:
/// `{"name", "op_id", "span_id", "parent_id", "start_ns", "end_ns", "attrs"}`.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent_id.map_or("null".to_string(), |p| p.to_string());
        let attrs: Vec<String> = s
            .attrs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", crate::metrics::json_number(*v)))
            .collect();
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"name\": \"{}\", \"op_id\": {}, \"span_id\": {}, \
             \"parent_id\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{}}}}}",
            s.name,
            s.op_id,
            s.span_id,
            s.start_ns,
            s.end_ns,
            attrs.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            name,
            op_id: 1,
            span_id: id,
            parent_id: parent,
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("bench.op", 1, None, 0, 10_000_000),
            span("core.Engine::evaluate", 2, Some(1), 1_000_000, 7_000_000),
            span("query.render_result", 3, Some(1), 7_000_000, 9_000_000),
        ];
        let st = self_times_ms(&spans);
        assert_eq!(st["bench"], 2.0);
        assert_eq!(st["core"], 6.0);
        assert_eq!(st["query"], 2.0);
        assert_eq!(root_time_ms(&spans), 10.0);
        assert_eq!(st.values().sum::<f64>(), root_time_ms(&spans));
    }

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(union_ns(vec![(0, 5), (3, 8), (10, 12)]), 10);
        assert_eq!(union_ns(Vec::new()), 0);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.span("core.x", 1, None, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.begin("bench.op", 2, None);
        t.span("core.x", 2, Some(root.id()), || ());
        t.annotate(&[("calls", 3.0)]);
        t.end(root, &[]);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].attrs, vec![("calls", 3.0)]);
        assert_eq!(t.spans()[0].parent_id, Some(root.id()));
        let jsonl = to_jsonl("w", t.spans());
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"attrs\": {\"calls\": 3}"), "{jsonl}");
    }
}
