//! Sweep progress metering through `sc-obs`: position/total gauges,
//! ledger mirrors and an ETA for long [`sweep_family`](crate::sweep_family)
//! campaigns.
//!
//! [`sweep_family_observed`] is the metered entry point: it slices a
//! budget into chunks and publishes the checkpoint's ledger into a
//! [`SweepObs`] after every chunk, so a campaign's progress and ETA read
//! live from another thread while the sweep runs. A detached (default)
//! bundle costs one `None` check per chunk. The checkpoint it advances
//! is bitwise identical to one plain `sweep_family` call with the same
//! budget (pinned by `tests/sweep_progress.rs`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sc_obs::{GaugeCell, MetricsSnapshot, Registry};
use sc_protocol::ParamError;

use crate::checker::Analyzer;
use crate::synthesis::{CandidateFilter, SweepCheckpoint, SweepOutcome, SymmetricFamily};

struct Inner {
    registry: Registry,
    position: Arc<GaugeCell>,
    total: Arc<GaugeCell>,
    eta_ms: Arc<GaugeCell>,
    started: Instant,
    /// Position at the first update, so the rate measures *this*
    /// session's work, not rounds resumed from a checkpoint.
    start_position: AtomicU64,
}

const START_UNSET: u64 = u64::MAX;

/// Sweep progress bundle. Default instances are *detached* — every call
/// is a `None` check — and [`SweepObs::recording`] attaches live gauges.
#[derive(Clone, Default)]
pub struct SweepObs {
    inner: Option<Arc<Inner>>,
}

impl SweepObs {
    /// An attached bundle with live gauges.
    pub fn recording() -> SweepObs {
        let registry = Registry::new();
        SweepObs {
            inner: Some(Arc::new(Inner {
                position: registry.gauge("sweep.position"),
                total: registry.gauge("sweep.total"),
                eta_ms: registry.gauge("sweep.eta_ms"),
                registry,
                started: Instant::now(),
                start_position: AtomicU64::new(START_UNSET),
            })),
        }
    }

    /// Whether this bundle records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Publishes the checkpoint's position and ledger, and derives
    /// the ETA from this session's processing rate.
    pub fn update(&self, checkpoint: &SweepCheckpoint, total: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let position = checkpoint.position;
        // First update pins the session baseline (racing recorders
        // agree on "earliest wins" via compare_exchange).
        let _ = inner.start_position.compare_exchange(
            START_UNSET,
            position,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        inner.position.set(position as i64);
        inner.total.set(total as i64);
        let ledger = &checkpoint.ledger;
        inner
            .registry
            .gauge("sweep.screened")
            .set(ledger.screened as i64);
        inner
            .registry
            .gauge("sweep.filtered")
            .set(ledger.filtered as i64);
        inner
            .registry
            .gauge("sweep.survivors")
            .set(ledger.survivors as i64);
        inner
            .registry
            .gauge("sweep.verified")
            .set(ledger.verified as i64);
        inner.registry.gauge("sweep.found").set(ledger.found as i64);
        inner.eta_ms.set(match self.eta_ms_at(position, total) {
            Some(ms) => ms as i64,
            None => -1,
        });
    }

    fn eta_ms_at(&self, position: u64, total: u64) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let baseline = inner.start_position.load(Ordering::Acquire);
        if baseline == START_UNSET || position <= baseline {
            return None;
        }
        let done = position - baseline;
        let elapsed_ms = inner.started.elapsed().as_millis() as u64;
        let remaining = total.saturating_sub(position);
        // remaining / (done / elapsed) without intermediate floats.
        Some(remaining.saturating_mul(elapsed_ms) / done)
    }

    /// Estimated milliseconds to finish, from this session's rate.
    /// `None` before the first processed candidate.
    pub fn eta_ms(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let position = inner.position.get().max(0) as u64;
        let total = inner.total.get().max(0) as u64;
        self.eta_ms_at(position, total)
    }

    /// `(position, total)` as last published.
    pub fn progress(&self) -> (u64, u64) {
        self.inner.as_ref().map_or((0, 0), |i| {
            (i.position.get().max(0) as u64, i.total.get().max(0) as u64)
        })
    }

    /// Snapshot of the gauges.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }
}

impl fmt::Debug for SweepObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(_) => {
                let (position, total) = self.progress();
                write!(f, "SweepObs(recording, {position}/{total})")
            }
            None => write!(f, "SweepObs(detached)"),
        }
    }
}

/// Candidates per metered chunk: frequent enough for a live progress
/// read, coarse enough that gauge updates are noise next to screening.
const OBSERVED_CHUNK: u64 = 256;

/// [`sweep_family`](crate::sweep_family) with live progress: the budget
/// is processed in 256-candidate chunks (`OBSERVED_CHUNK`) and `obs` is
/// updated after each, so position, ledger mirrors and ETA read live
/// while the sweep runs. The checkpoint advance is bitwise identical to
/// one un-metered call with the same budget.
///
/// # Errors
///
/// Exactly [`sweep_family`](crate::sweep_family)'s: enumeration overflow
/// or an instance-shape rejection, with the checkpoint left at the
/// failing candidate (the gauges reflect the last completed chunk).
pub fn sweep_family_observed<F: CandidateFilter + Send + Sync>(
    family: &SymmetricFamily,
    filter: &mut F,
    analyzer: &mut Analyzer,
    checkpoint: &mut SweepCheckpoint,
    budget: u64,
    obs: &SweepObs,
) -> Result<SweepOutcome, ParamError> {
    let total = family
        .len()
        .ok_or_else(|| ParamError::overflow("|X|^classes candidates"))?;
    let end = checkpoint.position.saturating_add(budget).min(total);
    obs.update(checkpoint, total);
    let mut processed = 0u64;
    while checkpoint.position < end {
        let slice = (end - checkpoint.position).min(OBSERVED_CHUNK);
        let outcome = crate::sweep_family(family, filter, analyzer, checkpoint, slice)?;
        processed += outcome.processed;
        obs.update(checkpoint, total);
        if outcome.processed == 0 {
            break;
        }
    }
    Ok(SweepOutcome {
        complete: checkpoint.position == total,
        processed,
    })
}
