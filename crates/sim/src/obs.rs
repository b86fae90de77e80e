//! Sweep-engine metering through `sc-obs`: scenario throughput,
//! exit-reason tallies and stabilisation-round histograms.
//!
//! [`crate::Batch`] and [`crate::SlicedBatch`] hook [`SimObs`]
//! unconditionally via [`Batch::observed`](crate::Batch::observed) — a
//! detached (default) bundle costs one `None` check per scenario, never
//! one per round. Metering is observe-only: it reads each verdict after
//! the engine produced it, so reports stay bitwise identical.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sc_obs::{CounterCell, LogHistogram, MetricsSnapshot, Registry};

use crate::batch::ScenarioOutcome;
use crate::early::ExitReason;

struct Inner {
    registry: Registry,
    scenarios: Arc<CounterCell>,
    stabilized: Arc<CounterCell>,
    full_horizon: Arc<CounterCell>,
    cycle_exits: Arc<CounterCell>,
    closed_exits: Arc<CounterCell>,
    opaque_exits: Arc<CounterCell>,
    stab_round: Arc<LogHistogram>,
    started: Instant,
}

/// Sweep metering bundle. Default instances are *detached* — every call
/// is a `None` check — and [`SimObs::recording`] attaches live counters
/// shared by every sweep observing the same bundle.
#[derive(Clone, Default)]
pub struct SimObs {
    inner: Option<Arc<Inner>>,
}

impl SimObs {
    /// An attached bundle with live counters.
    pub fn recording() -> SimObs {
        let registry = Registry::new();
        SimObs {
            inner: Some(Arc::new(Inner {
                scenarios: registry.counter("sim.scenarios"),
                stabilized: registry.counter("sim.stabilized"),
                full_horizon: registry.counter("sim.exit.full_horizon"),
                cycle_exits: registry.counter("sim.exit.cycle"),
                closed_exits: registry.counter("sim.exit.closed"),
                opaque_exits: registry.counter("sim.exit.opaque"),
                stab_round: registry.histogram("sim.stabilization_round"),
                registry,
                started: Instant::now(),
            })),
        }
    }

    /// Whether this bundle records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Folds one finished scenario into the meters.
    #[inline]
    pub(crate) fn scenario_done(&self, outcome: &ScenarioOutcome) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner.scenarios.inc();
        match outcome.exit_reason {
            ExitReason::FullHorizon => inner.full_horizon.inc(),
            ExitReason::Opaque => inner.opaque_exits.inc(),
            ExitReason::Cycle { .. } => inner.cycle_exits.inc(),
            ExitReason::Closed { .. } => inner.closed_exits.inc(),
        }
        if let Ok(report) = &outcome.result {
            inner.stabilized.inc();
            inner.stab_round.record(report.stabilization_round);
        }
    }

    /// Scenarios metered so far.
    pub fn scenarios_done(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.scenarios.get())
    }

    /// Metered scenario throughput since the bundle was created.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| {
            let secs = i.started.elapsed().as_secs_f64();
            if secs > 0.0 {
                i.scenarios.get() as f64 / secs
            } else {
                0.0
            }
        })
    }

    /// Snapshot of the meters, with the throughput folded in as the
    /// `sim.scenarios_per_sec` gauge.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| {
            i.registry
                .gauge("sim.scenarios_per_sec")
                .set(self.scenarios_per_sec() as i64);
            i.registry.snapshot()
        })
    }
}

impl fmt::Debug for SimObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "SimObs(recording, {} scenarios)", i.scenarios.get()),
            None => write!(f, "SimObs(detached)"),
        }
    }
}
