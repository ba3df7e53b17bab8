//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `name, start_ns, end_ns, parent, op_id`; spans of one
//! operation share an `op_id`. They are kept in memory and written out
//! when the run ends. A layer's self time is its span minus the part its
//! child spans cover. Spans *inside* the program are a later issue: here
//! every span is opened by the harness thread, so nesting is a stack.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `op_id` of spans that belong to no operation (bring-up, probes).
pub const NO_OP: i64 = -1;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or -1 at the root.
    pub parent: i64,
    pub op_id: i64,
}

/// A set of real ops against their in-thread layer decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Ops that have both a real span and a decomposition.
    pub ops: usize,
    /// Time of all real ops together.
    pub op_total_ns: u64,
    /// Time per layer over all ops together; with the residual
    /// (`op_total_ns` minus their sum) these add up exactly.
    pub layer_totals_ns: BTreeMap<&'static str, u64>,
    /// Median real op.
    pub op_median_ns: f64,
    /// Median, per op, of the time its layers account for.
    pub layers_median_ns: f64,
    /// Median, per op, of what they do not: the residual.
    pub residual_median_ns: f64,
}

/// A handle to an open span.
#[must_use]
pub struct Open(usize);

/// In-memory span store for the harness thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: i64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op_id: NO_OP,
        }
    }

    /// Spans opened from here on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: i64) {
        self.op_id = op_id;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().map_or(-1, |&p| p as i64),
            op_id: self.op_id,
        });
        self.stack.push(index);
        // Read the clock last, so bookkeeping stays outside the span.
        self.spans[index].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        self.spans[open.0].end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let result = f();
        self.end(open);
        result
    }

    /// Records a root span the program timed itself (its own clock
    /// gave `duration_ns`); it starts now.
    pub fn push_measured(&mut self, name: &'static str, duration_ns: u64) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: -1,
            op_id: self.op_id,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (span minus children) of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if span.parent >= 0 {
                let child = span.end_ns.saturating_sub(span.start_ns);
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(child);
            }
        }
        own
    }

    /// Median self time in nanoseconds of the spans named `name`.
    pub fn median_self_ns(&self, name: &str) -> Option<f64> {
        let own = self.self_times();
        let values: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(span, _)| span.name == name)
            .map(|(_, &ns)| ns as f64)
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }

    /// Pairs every root span named `op_root` with the root span named
    /// `layers_root` of the same `op_id`: what the real op took, and what
    /// its in-thread decomposition accounts for.
    pub fn decompose(&self, op_root: &str, layers_root: &str) -> Decomposition {
        let mut op_ns: BTreeMap<i64, u64> = BTreeMap::new();
        let mut layer_ns: BTreeMap<i64, u64> = BTreeMap::new();
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in &self.spans {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            if span.parent < 0 {
                if span.name == op_root {
                    op_ns.insert(span.op_id, duration);
                }
            } else if self.spans[span.parent as usize].name == layers_root {
                *layer_ns.entry(span.op_id).or_default() += duration;
                *totals.entry(span.name).or_default() += duration;
            }
        }
        let (mut ops, mut layers, mut residuals) = (Vec::new(), Vec::new(), Vec::new());
        for (op_id, &op) in &op_ns {
            let accounted = layer_ns.get(op_id).copied().unwrap_or(0);
            ops.push(op as f64);
            layers.push(accounted as f64);
            residuals.push(op as f64 - accounted as f64);
        }
        Decomposition {
            ops: ops.len(),
            op_total_ns: op_ns.values().sum(),
            layer_totals_ns: totals,
            op_median_ns: if ops.is_empty() { 0.0 } else { median(&ops) },
            layers_median_ns: if ops.is_empty() { 0.0 } else { median(&layers) },
            residual_median_ns: if ops.is_empty() {
                0.0
            } else {
                median(&residuals)
            },
        }
    }

    /// Median self time per span name over every span recorded.
    pub fn breakdown_all(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, &ns) in self.spans.iter().zip(&own) {
            by_name.entry(span.name).or_default().push(ns as f64);
        }
        by_name
            .into_iter()
            .map(|(name, values)| (name, median(&values)))
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                span.name, span.start_ns, span.end_ns, span.parent, span.op_id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        rec.set_op(3);
        let outer = rec.begin("op");
        rec.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!((spans[0].parent, spans[1].parent), (-1, 0));
        assert_eq!(spans[1].op_id, 3);
        let own = rec.self_times();
        let outer_total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own[0] + own[1], outer_total);
        assert!(own[1] >= 2_000_000);
        assert_eq!(rec.breakdown_all().len(), 2);
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn decomposition_pairs_ops_with_their_layers() {
        let mut rec = Recorder::new();
        for op_id in 0..3 {
            rec.set_op(op_id);
            rec.push_measured("op", 1_000);
            let layers = rec.begin("layers");
            rec.time("a", || ());
            rec.time("b", || ());
            rec.end(layers);
        }
        let d = rec.decompose("op", "layers");
        assert_eq!((d.ops, d.op_total_ns), (3, 3_000));
        assert_eq!(d.layer_totals_ns.len(), 2);
        assert_eq!(d.op_median_ns, 1_000.0);
        assert!(d.residual_median_ns <= 1_000.0);
        assert_eq!(d.op_median_ns - d.layers_median_ns, d.residual_median_ns);
    }
}
