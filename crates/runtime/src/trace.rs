//! The runtime's observability seam: tracing, metrics and the flight
//! recorder, wired through `sc-obs`.
//!
//! [`RuntimeObs`] hands out the per-thread [`NodeTrace`] /
//! [`MonitorTrace`] handles, so the drivers call it unconditionally.
//! `RuntimeObs::default()` is *detached*: every seam call is one `None`
//! check, which is how the plain `run_live` / `run_deterministic` entry
//! points run. [`RuntimeObs::recording`] attaches a scoped `sc-obs`
//! `Collector`, metrics `Registry` and `FlightRecorder` (re-exported
//! under `runtime::obs`).
//!
//! Every method is observe-only: no RNG draws, no control-flow effect on
//! the protocol, which is what keeps recording and detached runtime
//! digests bit-identical (pinned by the
//! `traced_and_untraced_digests_bit_identical` test). Timestamps are
//! passed as closures so the detached path never evaluates the clock.

use std::cell::Cell;
use std::sync::Arc;

use sc_obs::{
    Collector, CounterCell, Event, EventKind, EventRing, FlightConfig, FlightDump, FlightRecorder,
    MetricsSnapshot, Registry, TriggerReason,
};

use crate::mailbox::CounterHandle;
use crate::monitor::{MonitorCore, Recovery};

/// Ring capacity per producer thread: comfortably holds the event
/// volume of any flight window at ~4 events per node per round.
const RING_CAPACITY: usize = 4096;

/// How often a metered reader flushes its thread-local read count into
/// the shared metrics counter (power of two; one `fetch_add` per this
/// many reads keeps the ≥ 1M reads/s gate intact).
pub const READ_FLUSH_EVERY: u64 = 4096;

struct ObsInner {
    collector: Arc<Collector>,
    recorder: FlightRecorder,
    registry: Registry,
    misses: Arc<CounterCell>,
    publishes: Arc<CounterCell>,
    reads: Arc<CounterCell>,
}

/// The runtime observability bundle. Default instances are *detached* —
/// every call is a `None` check — and [`RuntimeObs::recording`]
/// attaches a live collector, registry and flight recorder shared by all
/// handles of one run.
#[derive(Clone, Default)]
pub struct RuntimeObs {
    inner: Option<Arc<ObsInner>>,
}

impl RuntimeObs {
    /// An attached bundle with the given flight-recorder thresholds.
    pub fn recording(config: FlightConfig) -> RuntimeObs {
        let collector = Arc::new(Collector::new(RING_CAPACITY));
        let registry = Registry::new();
        let misses = registry.counter("runtime.deadline_misses");
        let publishes = registry.counter("runtime.publishes");
        let reads = registry.counter("runtime.reads");
        let recorder = FlightRecorder::new(Arc::clone(&collector), config);
        RuntimeObs {
            inner: Some(Arc::new(ObsInner {
                collector,
                recorder,
                registry,
                misses,
                publishes,
                reads,
            })),
        }
    }

    /// Whether this bundle records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Tracer for node `id`'s driver thread.
    pub fn node_tracer(&self, id: usize) -> NodeTrace {
        NodeTrace {
            inner: self.inner.as_ref().map(|inner| NodeTraceInner {
                ring: inner.collector.ring(&format!("node-{id}")),
                misses: Arc::clone(&inner.misses),
                publishes: Arc::clone(&inner.publishes),
                id: id as u64,
                last_missed: 0,
            }),
        }
    }

    /// Tracer for the monitor thread (also the watchdog driving the
    /// flight recorder).
    pub fn monitor_tracer(&self) -> MonitorTrace {
        MonitorTrace {
            inner: self.inner.as_ref().map(|inner| MonitorTraceInner {
                ring: inner.collector.ring("monitor"),
                obs: Arc::clone(inner),
                events_seen: 0,
                // The bundle's miss counter is cumulative over its
                // lifetime: a monitor starting on a reused bundle must
                // not count earlier runs' misses as this run's storm.
                last_miss_total: inner.misses.get(),
                unstable_streak: 0,
                ever_stable: false,
            }),
        }
    }

    /// Folds a run's recovery measurements into the
    /// `runtime.recovery_ns` histogram.
    pub fn record_recoveries(&self, recoveries: &[Recovery]) {
        if let Some(inner) = &self.inner {
            let hist = inner.registry.histogram("runtime.recovery_ns");
            for recovery in recoveries {
                hist.record(recovery.nanos);
            }
        }
    }

    /// Wraps a [`CounterHandle`] so reads are counted into the
    /// `runtime.reads` metric, one shared `fetch_add` per
    /// [`READ_FLUSH_EVERY`] reads.
    pub fn meter_reads<'a>(&self, handle: CounterHandle<'a>) -> MeteredReads<'a> {
        MeteredReads {
            handle,
            reads: self.inner.as_ref().map(|inner| Arc::clone(&inner.reads)),
            local: Cell::new(0),
        }
    }

    /// Fires the flight recorder by hand (tests, examples).
    pub fn trigger_manual(&self, round: u64) -> bool {
        match &self.inner {
            Some(inner) => inner.recorder.trigger(TriggerReason::Manual, round),
            None => false,
        }
    }

    /// Whether the flight recorder has fired.
    pub fn flight_fired(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.recorder.fired())
    }

    /// The frozen flight dump, if the recorder fired.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.inner.as_ref().and_then(|i| i.recorder.dump())
    }

    /// Snapshot of the run-scoped metrics registry.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// The underlying collector (merged event access for reporting).
    pub fn collector(&self) -> Option<Arc<Collector>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.collector))
    }
}

struct NodeTraceInner {
    ring: Arc<EventRing>,
    misses: Arc<CounterCell>,
    publishes: Arc<CounterCell>,
    id: u64,
    /// Cumulative missed-message count at the previous read, for
    /// per-round deltas.
    last_missed: u64,
}

/// Per-node-thread tracer. All methods are observe-only and cost a
/// `None` check when the bundle is detached.
pub struct NodeTrace {
    inner: Option<NodeTraceInner>,
}

impl NodeTrace {
    /// The node entered its round slot.
    #[inline]
    pub fn round_open(&mut self, t: impl FnOnce() -> u64, round: u64) {
        if let Some(inner) = &mut self.inner {
            inner
                .ring
                .push(Event::new(t(), EventKind::RoundOpen, round, inner.id, 0));
        }
    }

    /// The node published honestly (on time).
    #[inline]
    pub fn publish(&mut self, t: impl FnOnce() -> u64, round: u64, output: impl FnOnce() -> u64) {
        if let Some(inner) = &mut self.inner {
            inner.publishes.inc();
            inner.ring.push(Event::new(
                t(),
                EventKind::Publish,
                round,
                inner.id,
                output(),
            ));
        }
    }

    /// The node published after a fault-injected delay.
    #[inline]
    pub fn publish_late(&mut self, t: impl FnOnce() -> u64, round: u64, delay_ns: u64) {
        if let Some(inner) = &mut self.inner {
            inner.publishes.inc();
            inner.ring.push(Event::new(
                t(),
                EventKind::PublishLate,
                round,
                inner.id,
                delay_ns,
            ));
        }
    }

    /// A fault window acted on this node this round (`kind_tag` is
    /// the [`crate::FaultKind`] codec tag).
    #[inline]
    pub fn fault_active(&mut self, t: impl FnOnce() -> u64, round: u64, kind_tag: u64) {
        if let Some(inner) = &mut self.inner {
            inner.ring.push(Event::new(
                t(),
                EventKind::FaultActive,
                round,
                inner.id,
                kind_tag,
            ));
        }
    }

    /// The node read its neighbours and stepped. `missed_cum` is the
    /// node's cumulative miss counter; the delta since the previous
    /// read is emitted as a `DeadlineMiss` event and fed to the
    /// storm watchdog.
    #[inline]
    pub fn read_step(&mut self, t: impl FnOnce() -> u64, round: u64, missed_cum: u64) {
        if let Some(inner) = &mut self.inner {
            let now = t();
            let delta = missed_cum.saturating_sub(inner.last_missed);
            inner.last_missed = missed_cum;
            if delta > 0 {
                inner.misses.add(delta);
                inner.ring.push(Event::new(
                    now,
                    EventKind::DeadlineMiss,
                    round,
                    inner.id,
                    delta,
                ));
            }
            inner
                .ring
                .push(Event::new(now, EventKind::ReadStep, round, inner.id, 0));
        }
    }
}

struct MonitorTraceInner {
    ring: Arc<EventRing>,
    obs: Arc<ObsInner>,
    /// Stability events already emitted to the ring.
    events_seen: usize,
    /// `runtime.deadline_misses` total at the previous observation.
    last_miss_total: u64,
    /// Consecutive unstable observations since the last stable one.
    unstable_streak: u64,
    /// Whether the run has ever confirmed stability (the
    /// re-stabilisation watchdog only arms after that).
    ever_stable: bool,
}

/// The monitor thread's tracer and watchdog: emits verdict/stability
/// events and fires the flight recorder on an over-budget burst
/// (stability lost), a deadline-miss storm, or a failed
/// re-stabilisation.
pub struct MonitorTrace {
    inner: Option<MonitorTraceInner>,
}

impl MonitorTrace {
    /// Folds one monitor observation: call right after
    /// [`MonitorCore::observe`] with the same round and clock.
    #[inline]
    pub fn observe(&mut self, t: impl FnOnce() -> u64, round: u64, monitor: &MonitorCore) {
        let Some(inner) = &mut self.inner else {
            return;
        };
        let now = t();
        let stable = monitor.is_stable();
        inner.ring.push(Event::new(
            now,
            EventKind::Verdict,
            round,
            u64::from(stable),
            monitor.events().len() as u64,
        ));

        // Stability transitions since the last observation.
        let events = monitor.events();
        for event in &events[inner.events_seen..] {
            let kind = if event.stable {
                EventKind::Stable
            } else {
                EventKind::Unstable
            };
            inner
                .ring
                .push(Event::new(now, kind, event.round, event.since, 0));
            if event.stable {
                inner.ever_stable = true;
            } else {
                // Losing confirmed stability mid-run is the
                // over-budget-burst manifestation.
                inner
                    .obs
                    .recorder
                    .trigger(TriggerReason::StabilityLost, round);
            }
        }
        inner.events_seen = events.len();

        // Deadline-miss storm: too many misses across the cluster
        // within one observation interval.
        let config = inner.obs.recorder.config();
        let total = inner.obs.misses.get();
        if total.saturating_sub(inner.last_miss_total) >= config.miss_storm {
            inner.obs.recorder.trigger(TriggerReason::MissStorm, round);
        }
        inner.last_miss_total = total;

        // Failed re-stabilisation: armed once the run has been
        // stable, fires when the unstable streak exceeds the budget.
        if stable {
            inner.unstable_streak = 0;
        } else {
            inner.unstable_streak += 1;
            if inner.ever_stable && inner.unstable_streak > config.max_unstable_rounds {
                inner
                    .obs
                    .recorder
                    .trigger(TriggerReason::FailedRestabilise, round);
            }
        }
    }
}

/// A [`CounterHandle`] wrapper counting reads into the runtime
/// metrics. The wrapped read is still the handle's single relaxed
/// load; the count is kept in a thread-local [`Cell`] and flushed to
/// the shared counter every [`READ_FLUSH_EVERY`] reads, so
/// the ≥ 1M reads/s read-path gate survives with the gauge active.
pub struct MeteredReads<'a> {
    handle: CounterHandle<'a>,
    reads: Option<Arc<CounterCell>>,
    local: Cell<u64>,
}

impl MeteredReads<'_> {
    /// `(version, value)` — see [`CounterHandle::read`].
    #[inline]
    pub fn read(&self) -> (u64, u64) {
        if let Some(reads) = &self.reads {
            let local = self.local.get() + 1;
            if local >= READ_FLUSH_EVERY {
                reads.add(local);
                self.local.set(0);
            } else {
                self.local.set(local);
            }
        }
        self.handle.read()
    }

    /// See [`CounterHandle::is_done`].
    #[inline]
    pub fn is_done(&self) -> bool {
        self.handle.is_done()
    }
}

impl Drop for MeteredReads<'_> {
    fn drop(&mut self) {
        if let Some(reads) = &self.reads {
            reads.add(self.local.get());
        }
    }
}
