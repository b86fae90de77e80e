//! In-memory spans around calls into the program's public functions.
//!
//! The traced run times each layer from outside: every call a replica
//! makes is wrapped in a [`Span`] (name, start, end, parent, repetition),
//! counts are recorded at the same boundaries, and nothing is written
//! until the run ends. A span's *self time* is its duration minus the
//! part its children cover, so the table attributes every nanosecond of a
//! repetition exactly once.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The root span every replica repetition runs under.
pub const REP: &str = "rep";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call enters.
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Repetition the span belongs to.
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals of a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Wraps one call into the program in a leaf span.
    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = call();
        self.exit(id);
        result
    }

    /// Adds to a count taken at a span boundary.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    /// Starts the next repetition: later spans carry its id.
    pub fn next_rep(&mut self) {
        assert!(self.open.is_empty(), "repetition ended inside a span");
        self.rep += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// Self time per span: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let covered = span.end_ns - span.start_ns;
            let slot = &mut own[span.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

/// Calls, total and self time per span name.
pub fn table(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut rows: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let row = rows.entry(span.name).or_default();
        row.calls += 1;
        row.total_ns += span.end_ns - span.start_ns;
        row.self_ns += self_ns;
    }
    rows
}

/// The layer a span name belongs to (the part before the first dot).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Share of the repetitions' wall time that no layer span covers: the
/// self time of the [`REP`] roots over their duration.
pub fn unaccounted_share(rows: &BTreeMap<&'static str, Totals>) -> f64 {
    rows.get(REP)
        .map_or(0.0, |rep| rep.self_ns as f64 / rep.total_ns.max(1) as f64)
}

/// The per-name table as JSON, with each row's share of the repetitions.
pub fn table_json(rows: &BTreeMap<&'static str, Totals>) -> Value {
    let wall = rows.get(REP).map_or(1, |rep| rep.total_ns.max(1)) as f64;
    Value::Arr(
        rows.iter()
            .map(|(name, row)| {
                obj([
                    ("span", (*name).into()),
                    ("layer", layer_of(name).into()),
                    ("calls", row.calls.into()),
                    ("total_ns", row.total_ns.into()),
                    ("self_ns", row.self_ns.into()),
                    ("self_share", (row.self_ns as f64 / wall).into()),
                ])
            })
            .collect(),
    )
}

/// Every span as one JSON array (what `perf trace --spans FILE` writes).
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("rep", u64::from(s.rep).into()),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            u64::from(s.parent).into()
                        },
                    ),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0,100) ⊃ a [10,50) ⊃ a1 [20,30); rep ⊃ b [60,90).
        let spans = [
            span(REP, NO_PARENT, 0, 100),
            span("sim.a", 0, 10, 50),
            span("core.a1", 1, 20, 30),
            span("sim.b", 0, 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        let rows = table(&spans);
        assert_eq!(
            rows["sim.a"],
            Totals {
                calls: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        // Self times partition the root: nothing is counted twice.
        let total_self: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total_self, 100);
        assert_eq!(unaccounted_share(&rows), 0.3);
        assert_eq!(layer_of("sim.step_prepared.none"), "sim");
    }

    #[test]
    fn tracer_records_parents_repetitions_and_counts() {
        let mut tracer = Tracer::new();
        let root = tracer.enter(REP);
        let seven = tracer.span("sim.step", || 7);
        tracer.count("sim.fabricated", 3);
        tracer.count("sim.fabricated", 4);
        tracer.exit(root);
        tracer.next_rep();
        let root = tracer.enter(REP);
        tracer.exit(root);
        assert_eq!(seven, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!((spans[1].rep, spans[2].rep), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.counts()["sim.fabricated"], 7);
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter(REP);
        let _inner = tracer.enter("sim.step");
        tracer.exit(outer);
    }
}
