//! The traced pass's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions — nothing inside the library crates is instrumented.
//! They are kept in memory and written as JSONL when the run ends. A
//! layer's *self time* is its span's duration minus the time its direct
//! children cover; the benchmark is single-threaded, so children never
//! overlap each other.

use crate::alloc::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the operation this span belongs to (spans of one op share it).
    pub op: u64,
    /// This span's index in the recorder.
    pub id: u32,
    /// The enclosing span, `None` for an op's root span.
    pub parent: Option<u32>,
    /// Layer name (a `per_layer` metric prefix such as `sched.walk`).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Allocation calls made while the span was open (children included).
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
    /// Work counts observed at this boundary (tasks walked, sites, records…).
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug)]
#[must_use = "an entered span must be exited"]
pub struct Open {
    id: u32,
    allocs_at_entry: Snapshot,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// Empty recorder. Capacity is reserved up front so recording a span
    /// rarely allocates inside somebody else's span.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            counts: Vec::new(),
        });
        self.stack.push(id);
        // Clock and counter are read last, so recording costs land outside.
        let allocs_at_entry = Snapshot::now();
        self.spans[id as usize].start_ns = self.now_ns();
        Open { id, allocs_at_entry }
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let used = Snapshot::now().since(open.allocs_at_entry);
        assert_eq!(self.stack.pop(), Some(open.id), "spans must close innermost-first");
        let span = &mut self.spans[open.id as usize];
        span.end_ns = end_ns;
        span.allocs = used.calls;
        span.alloc_bytes = used.bytes;
        if self.stack.is_empty() {
            self.op += 1;
        }
    }

    /// Record `f` as a span of its own.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Attach a work count to the most recently opened span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.push((key, value));
        }
    }

    /// Duration of the most recently opened span, ns.
    pub fn last_duration_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"counts\":{{\"allocs\":{},\"alloc_bytes\":{}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Totals of one layer (span name) over a traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − direct children), ns.
    pub self_ns: u64,
    /// Σ allocation calls (children included).
    pub allocs: u64,
    /// Σ requested bytes (children included).
    pub alloc_bytes: u64,
}

/// Per-name totals with self time = duration − Σ direct children.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        t.allocs += s.allocs;
        t.alloc_bytes += s.alloc_bytes;
    }
    out
}

/// Σ of count `key` over the spans named `name`.
pub fn sum_count(spans: &[Span], name: &str, key: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| s.counts.iter())
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op: 0,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            allocs: 0,
            alloc_bytes: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ─ a [10,40) ─ a1 [15,25)
        //            └ b [40,90)          (adjacent to a)
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a1", 15, 25),
            span(3, Some(0), "b", 40, 90),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["op"].self_ns, 100 - 30 - 50, "grandchild a1 is not subtracted twice");
        assert_eq!(t["a"].self_ns, 30 - 10);
        assert_eq!(t["a1"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 50);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100, "self times partition the root span");
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span(0, None, "op", 0, 10),
            span(1, Some(0), "x", 1, 4),
            span(2, Some(0), "x", 4, 9),
        ];
        let t = layer_totals(&spans);
        assert_eq!((t["x"].spans, t["x"].total_ns, t["x"].self_ns), (2, 8, 8));
        assert_eq!(t["op"].self_ns, 2);
    }

    #[test]
    fn recorder_nests_and_numbers_ops() {
        let mut tr = Tracer::new();
        for _ in 0..2 {
            let op = tr.enter("op");
            tr.span("leaf", || std::hint::black_box(vec![0u8; 64]));
            tr.count("items", 3.0);
            tr.exit(op);
        }
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].op), (Some(0), 0));
        assert_eq!((s[3].parent, s[3].op), (Some(2), 1));
        assert!(s[1].allocs >= 1 && s[1].alloc_bytes >= 64);
        assert!(s[0].end_ns >= s[1].end_ns && s[0].start_ns <= s[1].start_ns);
        assert_eq!(sum_count(s, "leaf", "items"), 6.0);
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"op\":0,\"id\":0,\"parent\":null,\"name\":\"op\""));
        assert!(lines[1].contains("\"items\":3"));
    }
}
