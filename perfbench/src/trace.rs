//! Spans and counts recorded from outside the program, around each call
//! into a layer's public functions.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the op it belongs to (0 for work outside the timed ops, such as
//! set-up or a counterfactual run). Counts are recorded at the same
//! boundaries and carry the same op id. Everything stays in memory until
//! the run ends and [`Tracer::to_json`] writes it out.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `synthesis.top_k`.
    pub name: &'static str,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0: outside the timed ops).
    pub op: u64,
}

/// One recorded count.
#[derive(Debug)]
pub struct Count {
    /// Counter name, e.g. `matching.candidates`.
    pub name: &'static str,
    /// Amount added.
    pub value: f64,
    /// The op this count belongs to (0: outside the timed ops).
    pub op: u64,
}

/// An in-memory span and count recorder for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Runs `f` as timed op `op` (ids start at 1) under a top-level span
    /// named `name`.
    pub fn op<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(op > 0, "op ids start at 1");
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        let result = self.span(name, f);
        self.op = 0;
        result
    }

    /// Runs `f` under a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        result
    }

    /// Adds `value` to counter `name` at the current boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count {
            name,
            value,
            op: self.op,
        });
    }

    /// The recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of counter `name` over the timed ops.
    pub fn op_count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.op > 0 && c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Total seconds of each op's top-level span, in op order.
    pub fn op_seconds(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.op > 0 && s.parent.is_none())
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self seconds summed by span name, split into timed-op spans and
    /// spans outside the timed ops.
    pub fn self_seconds_by_name(
        &self,
    ) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let self_times = self_times(&self.spans);
        let mut in_ops = BTreeMap::new();
        let mut off_ops = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self_times) {
            let into = if span.op > 0 {
                &mut in_ops
            } else {
                &mut off_ops
            };
            *into.entry(span.name).or_insert(0.0) += self_s;
        }
        (in_ops, off_ops)
    }

    /// The whole trace as one JSON document: every span with its self
    /// time, every count, and the per-layer metrics derived from them.
    pub fn to_json(&self, header: &[(&str, String)], metrics: &[(String, f64, &str)]) -> String {
        let self_times = self_times(&self.spans);
        let mut out = String::from("{");
        for (key, value) in header {
            out.push_str(&format!("{}:{},", json::string(key), json::string(value)));
        }
        out.push_str("\"metrics\":");
        out.push_str(&json::metrics(metrics));
        out.push_str(",\"spans\":[");
        for (i, (span, self_s)) in self.spans.iter().zip(&self_times).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                json::string(span.name),
                span.op,
                json::number(span.start),
                json::number(span.end),
                json::number(*self_s)
            ));
        }
        out.push_str("],\"counts\":[");
        for (i, count) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"op\":{},\"value\":{}}}",
                json::string(count.name),
                count.op,
                json::number(count.value)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Each span's self time: its duration minus the summed durations of its
/// direct children. Spans nest strictly (see [`Tracer::span`]), so the
/// children of a span never overlap one another or outlast it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut self_s: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_s[parent] -= span.end - span.start;
        }
    }
    self_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("b.inner", 5.0, 6.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        assert_eq!(self_times(&[span("op", 2.0, 2.5, None)]), vec![0.5]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_ops() {
        let mut tracer = Tracer::new();
        tracer.span("setup", |t| t.count("setup.items", 2.0));
        tracer.op(1, "op", |t| {
            t.span("layer", |t| t.count("layer.items", 3.0));
            t.count("layer.items", 1.0);
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (0, 1, 1));
        assert_eq!((spans[1].parent, spans[2].parent), (None, Some(1)));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(tracer.op_count("layer.items"), 4.0);
        assert_eq!(tracer.op_count("setup.items"), 0.0);
        assert_eq!(tracer.op_seconds().len(), 1);
        let (in_ops, off_ops) = tracer.self_seconds_by_name();
        assert!(in_ops.contains_key("op") && in_ops.contains_key("layer"));
        assert!(off_ops.contains_key("setup"));
    }
}
