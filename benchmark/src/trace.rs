//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans stay in memory during the run and
//! are written out, with the boundary counts, when it ends; a layer's
//! self time is its span minus the part its child spans cover.
//! In-program tracing is a later issue — nothing under `crates/` is
//! instrumented.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Index of the op (request) the span belongs to; spans of one op
    /// share it. Set-up spans carry `u64::MAX`.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// One thread's span recorder. Disabled tracers cost one branch per
/// call, so the same workload code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Distinguishes ids of tracers merged into one file.
    id_base: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

pub const SETUP_OP: u64 = u64::MAX;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, id_base: u32) -> Self {
        Tracer {
            enabled,
            epoch,
            id_base,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: self.id_base + index,
            parent: self.stack.last().map(|&i| self.id_base + i),
            name,
            op,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost-first");
        }
    }

    /// Adds to a boundary count (work done where the span is taken).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Writes one JSON line per span and a final line of counts.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::obj([
                ("id", Value::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("name", Value::str(s.name)),
                ("workload", Value::str(workload)),
                (
                    "op",
                    if s.op == SETUP_OP {
                        Value::str("setup")
                    } else {
                        Value::Num(s.op as f64)
                    },
                ),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        let counts = Value::obj(
            self.counts
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Num(*v as f64))),
        );
        let tail = Value::obj([("workload", Value::str(workload)), ("counts", counts)]);
        writeln!(out, "{}", tail.render())?;
        out.flush()
    }
}

/// Per span name: `(calls, total ns, self ns)`, where self time is the
/// span's duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100] ⊃ new [10,30], run [30,90] ⊃ scan [40,70]
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "new", 10, 30),
            span(2, Some(0), "run", 30, 90),
            span(3, Some(2), "scan", 40, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], (1, 100, 20));
        assert_eq!(t["new"], (1, 20, 20));
        assert_eq!(t["run"], (1, 60, 30));
        assert_eq!(t["scan"], (1, 30, 30));
        let self_sum: u64 = t.values().map(|v| v.2).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, Instant::now(), 1000);
        let a = t.enter("a", 7);
        let b = t.enter("b", 7);
        t.exit(b);
        t.exit(a);
        t.count("features", 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].id, 1000);
        assert_eq!(t.spans()[1].parent, Some(1000));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false, Instant::now(), 0);
        let a = off.enter("a", 0);
        off.exit(a);
        off.count("features", 3);
        assert!(off.spans().is_empty() && off.counts.is_empty());
    }
}
