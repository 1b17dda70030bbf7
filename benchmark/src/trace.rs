//! Spans recorded by the harness around each call into a library layer.
//!
//! Every call is timed whether or not spans are kept (`setup_s` is built
//! from those timings); a traced run additionally keeps
//! `{name, start_ns, end_ns, parent}` in memory and writes them out when
//! the run ends. A span's *self time* is its duration minus the part its
//! child spans cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    at: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    keep: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(keep: bool) -> Self {
        Tracer {
            keep,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let at = Instant::now();
        let index = self.keep.then(|| {
            let start_ns = at.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { at, index }
    }

    /// Close a span; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let dur = open.at.elapsed().as_nanos() as u64;
        if let Some(i) = open.index {
            assert_eq!(self.stack.pop(), Some(i), "spans must nest");
            self.spans[i].end_ns = self.spans[i].start_ns + dur;
        }
        dur
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time per span: duration minus the time its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRec::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Sum of self time over leaf spans (those with no children): the time
/// some layer call accounts for.
pub fn leaf_self_ns(spans: &[SpanRec]) -> u64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    spans
        .iter()
        .zip(&has_child)
        .filter(|(_, &c)| !c)
        .map(|(s, _)| s.dur_ns())
        .sum()
}

pub fn spans_to_json(spans: &[SpanRec], workload: &str, run: u64) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                let mut o = Json::obj();
                o.put("name", s.name)
                    .put("start_ns", s.start_ns)
                    .put("end_ns", s.end_ns)
                    .put(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .put("self_ns", self_ns)
                    .put("workload", workload)
                    .put("run", run);
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("run", 0, 100, None),
            span("load", 10, 50, Some(0)),
            span("parse", 10, 40, Some(1)),
            span("sim", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 30, 30]);
        // Leaves: parse (30) + sim (30).
        assert_eq!(leaf_self_ns(&spans), 60);
    }

    #[test]
    fn tracer_nests_and_times_even_when_not_keeping() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer");
        let b = t.begin("inner");
        let inner = t.end(b);
        let outer = t.end(a);
        assert!(outer >= inner);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let a = off.begin("x");
        let _ = off.end(a);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_json_carries_the_documented_fields() {
        let spans = [span("run", 0, 9, None), span("sim", 2, 5, Some(0))];
        let j = spans_to_json(&spans, "p2p_chain", 3);
        let second = &j.as_arr().unwrap()[1];
        assert_eq!(second.get("name").and_then(Json::as_str), Some("sim"));
        assert_eq!(second.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(second.get("self_ns").and_then(Json::as_u64), Some(3));
        assert_eq!(second.get("run").and_then(Json::as_u64), Some(3));
        assert_eq!(j.as_arr().unwrap()[0].get("parent"), Some(&Json::Null));
    }
}
