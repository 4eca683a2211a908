//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! stay in memory during the run; the traced run sums them into per-layer
//! metrics and writes a per-name summary to stderr when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, such as `graph.er_gen`.
    pub name: String,
    /// Start and end in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. Workers of one traced call each keep their own and
/// [`merge`](Self::merge) them afterwards; a shared origin keeps their
/// clocks comparable.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn merge(&mut self, other: Spans) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Writes count, total and self time per span name to stderr. Self
    /// time is a span's duration minus the part its child spans cover.
    pub fn write_summary(&self) {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_s) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child;
        }
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in by_name {
            eprintln!("{name:<28} {count:>8} {total:>12.6} {own:>12.6}");
        }
    }
}
