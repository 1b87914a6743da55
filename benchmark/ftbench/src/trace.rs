//! In-memory spans recorded by the harness around its calls into each
//! crate, written as JSONL when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`. `name` starts with
//! the layer's prefix (`backend.run`, `verify.verify`), `parent` is the
//! index of the span that was open when this one started, and `op` is the
//! benchmark operation it belongs to. A span's *self time* is its
//! duration minus the part its children cover.

use std::io::Write;
use std::time::Instant;

use crate::util::median;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the wrapped calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` that belongs to operation `op`
    /// and is a child of the innermost span still open.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.ns(Instant::now());
        r
    }

    /// Records a span that was timed elsewhere: requests in flight overlap,
    /// so they cannot nest on the stack [`span`](Self::span) keeps.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                op,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Median over operations of the time (µs) the operation spent in
    /// spans called `name`: for a sweep of several programs, the sweep's
    /// total in that layer.
    pub fn per_op_median_us(&self, name: &str) -> f64 {
        let mut per_op: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(s.op).or_default() += s.dur_us();
        }
        median(&per_op.into_values().collect::<Vec<_>>())
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the sum of its direct children's durations.
/// Children are recorded sequentially by one thread, so they never overlap
/// each other and the subtraction cannot go below zero for a well-formed
/// trace; a malformed one saturates at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", 7, |t| t.span("inner", 7, |_| 5) + 1);
        assert_eq!(v, 6);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let own = self_times_ns(t.spans());
        assert_eq!(
            own[0],
            (t.spans()[0].end_ns - t.spans()[0].start_ns)
                - (t.spans()[1].end_ns - t.spans()[1].start_ns)
        );

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn per_op_median_sums_same_named_spans_of_one_operation() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                op: 0,
                ..span("x", 0, 1_000, None)
            },
            Span {
                op: 0,
                ..span("x", 0, 2_000, None)
            },
            Span {
                op: 1,
                ..span("x", 0, 5_000, None)
            },
            Span {
                op: 2,
                ..span("x", 0, 4_000, None)
            },
            Span {
                op: 2,
                ..span("y", 0, 9_000, None)
            },
        ];
        // Per operation: 3 µs, 5 µs, 4 µs.
        assert_eq!(t.per_op_median_us("x"), 4.0);
        assert_eq!(t.durations_us("y"), vec![9.0]);
    }
}
