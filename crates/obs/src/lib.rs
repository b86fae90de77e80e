//! `sc-obs` — the workspace's lock-free observability substrate.
//!
//! Everything in this crate is observe-only by construction: recording a
//! metric or emitting a trace event never blocks, never allocates on the
//! hot path, and never feeds back into the instrumented computation —
//! which is what lets the runtime promise bit-identical digests with
//! tracing attached or detached. Consumer crates link it unconditionally
//! and hold their meters behind an `Option` that is `None` (detached)
//! by default, so an unobserved run pays one `None` check per seam.
//!
//! The pieces:
//!
//! - [`metrics`]: a named registry of relaxed-atomic counters, gauges
//!   and log-bucketed histograms with lossless codec snapshots
//!   ([`Registry`], [`MetricsSnapshot`]).
//! - [`hist`]: the histogram itself ([`LogHistogram`], [`HistSnapshot`])
//!   with p50/p90/p99/max extraction exact against a sorted-vec oracle.
//! - [`ring`]: per-thread SPSC trace rings ([`EventRing`]) of
//!   sequence-stamped fixed slots with overwrite-oldest semantics.
//! - [`collect`]: the [`Collector`] merging rings into one stream in
//!   global `(t_ns, source, seq)` order.
//! - [`flight`]: the [`FlightRecorder`] — first anomaly freezes the last
//!   N rounds of events as JSON-lines plus a human-readable table.
//! - [`TraceSink`]: the seam instrumented code writes through, with
//!   [`NoopSink`] as the zero-cost disabled default and
//!   [`RingSink`] as the live implementation.

pub mod collect;
pub mod flight;
pub mod hist;
pub mod metrics;
pub mod ring;

pub use collect::{Collector, MergedStream, TaggedEvent};
pub use flight::{FlightConfig, FlightDump, FlightRecorder, TriggerReason};
pub use hist::{bucket_bound, bucket_index, HistSnapshot, LogHistogram, BUCKETS, SUB_BITS};
pub use metrics::{CounterCell, GaugeCell, MetricsSnapshot, Registry};
pub use ring::{Event, EventKind, EventRing};

use std::sync::{Arc, OnceLock};

/// Where instrumented code sends trace events. Implementations must be
/// observe-only: no blocking, no feedback into the caller.
pub trait TraceSink {
    /// Records one event.
    fn emit(&self, event: Event);
}

/// The zero-cost disabled default: `emit` is an inlined empty body, so a
/// sink-generic call site monomorphised with `NoopSink` compiles to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn emit(&self, _event: Event) {}
}

/// The live sink: one producer thread writing its [`Collector`]-owned
/// ring.
#[derive(Clone)]
pub struct RingSink(pub Arc<EventRing>);

impl TraceSink for RingSink {
    #[inline]
    fn emit(&self, event: Event) {
        self.0.push(event);
    }
}

/// The process-wide metrics registry. Sweep engines and the executor
/// meter through this; scoped runs (tests, the deterministic harness)
/// may instead carry their own [`Registry`] to stay isolated.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_a_zst() {
        assert_eq!(std::mem::size_of::<NoopSink>(), 0);
        NoopSink.emit(Event::new(0, EventKind::Custom, 0, 0, 0));
    }

    #[test]
    fn ring_sink_forwards_to_the_ring() {
        let collector = Collector::new(8);
        let sink = RingSink(collector.ring("t"));
        sink.emit(Event::new(1, EventKind::Custom, 0, 7, 8));
        let stream = collector.collect();
        assert_eq!(stream.events.len(), 1);
        assert_eq!(stream.events[0].event.a, 7);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        registry().counter("obs.lib.test").inc();
        assert!(registry().snapshot().counter("obs.lib.test").is_some());
    }
}
