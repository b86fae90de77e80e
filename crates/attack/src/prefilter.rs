//! The attack pre-filter: a budgeted adversary search as a synthesis
//! screen, implementing [`sc_verifier::CandidateFilter`].
//!
//! # Soundness (reject-only)
//!
//! The exhaustive checker decides a candidate by attractor layering over
//! at most `|X|^h ≤ |X|^n` honest configurations, so a **correct**
//! candidate stabilises every execution within strictly fewer than
//! `|X|^n` rounds — no adversary, scripted or not, can delay it longer.
//! The filter therefore scores each candidate with a horizon of
//! `|X|^n + required_confirmation(c)` (the confirmation suffix the
//! stability detector needs): if *any* evaluated script leaves a scenario
//! unstable at that horizon ([`Delay::unstable`] `> 0`), the candidate is
//! provably not a self-stabilising `c`-counter and is rejected. A
//! candidate no script breaks is **never** accepted here — it merely
//! survives to the exhaustive quotient solver, which remains the sole
//! source of `Stabilizes` verdicts.
//!
//! # Cost: only rounds and evaluations that can change the verdict
//!
//! The filter has one engine, the scalar early-decision path
//! ([`Objective::evaluate`] without [`Objective::attach_sliced`]). The
//! horizon is at least the size of the whole configuration space, so every
//! scripted run — the script is a lasso and snapshots — revisits a
//! (configuration, script position) pair long before the horizon, and the
//! verdict for the remaining rounds is replayed algebraically: a sweep
//! costs tens of rounds per scenario, not `|X|^n`. The bit-sliced path has
//! no recurrence exit, and table-driven counters never close, so it would
//! execute the full horizon for a handful of occupied lanes (251
//! rounds with 4 of 64 lanes at `n = 5, |X| = 3`) and re-lower the
//! candidate's table for every new face pattern — measured 36× slower on
//! the `n = 5, |X| = 3` campaign.
//!
//! And since the filter only rejects, one witness is enough: the search
//! runs with [`SearchConfig::target`] set to the weakest delay that has an
//! unstable scenario and stops at the first script reaching it, instead of
//! spending the rest of the budget on a candidate that is already broken.
//!
//! Anything that prevents scoring at all — an instance the simulator
//! cannot host, a fault set the script codec rejects — makes the filter
//! pass the candidate through (`false`), keeping rejections sound by
//! construction.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sc_core::{Algorithm, CounterState, LutCounter};
use sc_obs::{CounterCell, MetricsSnapshot, Registry};
use sc_verifier::CandidateFilter;

use crate::search::{hill_climb, SearchConfig};
use crate::{Delay, MoveSpace, Objective, Script};

struct Inner {
    registry: Registry,
    screened: Arc<CounterCell>,
    rejected: Arc<CounterCell>,
    evaluations: Arc<CounterCell>,
    started: Instant,
}

/// Live metering for [`AttackPreFilter`] sweeps.
///
/// The filter's own `screened`/`rejected`/`evaluations` ledger is
/// fork-local — worker forks report zero until [`CandidateFilter::absorb`]
/// folds them back at the end of a sweep chunk. A [`FilterMeter`] is the
/// live view: forks share the parent's counter cells (cloning the meter
/// clones `Arc`s), so a long family sweep's reject rate and evals/s read
/// correctly *while* workers screen.
///
/// Default instances are detached (every call is a `None` check).
#[derive(Clone, Default)]
pub struct FilterMeter {
    inner: Option<Arc<Inner>>,
}

impl FilterMeter {
    /// An attached meter with live counters.
    pub fn recording() -> FilterMeter {
        let registry = Registry::new();
        FilterMeter {
            inner: Some(Arc::new(Inner {
                screened: registry.counter("attack.screened"),
                rejected: registry.counter("attack.rejected"),
                evaluations: registry.counter("attack.evaluations"),
                registry,
                started: Instant::now(),
            })),
        }
    }

    /// Whether this meter records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    pub(crate) fn screened_inc(&self) {
        if let Some(inner) = &self.inner {
            inner.screened.inc();
        }
    }

    #[inline]
    pub(crate) fn rejected_inc(&self) {
        if let Some(inner) = &self.inner {
            inner.rejected.inc();
        }
    }

    #[inline]
    pub(crate) fn evals_add(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.evaluations.add(n);
        }
    }

    /// `(screened, rejected, evaluations)` so far, across every
    /// holder of this meter — forks included.
    pub fn counts(&self) -> (u64, u64, u64) {
        self.inner.as_ref().map_or((0, 0, 0), |i| {
            (i.screened.get(), i.rejected.get(), i.evaluations.get())
        })
    }

    /// Fraction of screened candidates rejected so far (0 when
    /// nothing was screened).
    pub fn reject_rate(&self) -> f64 {
        let (screened, rejected, _) = self.counts();
        if screened == 0 {
            0.0
        } else {
            rejected as f64 / screened as f64
        }
    }

    /// Sweep evaluations per second since the meter was created.
    pub fn evals_per_sec(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| {
            let secs = i.started.elapsed().as_secs_f64();
            if secs > 0.0 {
                i.evaluations.get() as f64 / secs
            } else {
                0.0
            }
        })
    }

    /// Snapshot of the meters, with the derived rates folded in as
    /// the `attack.reject_rate_permille` / `attack.evals_per_sec`
    /// gauges.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| {
            i.registry
                .gauge("attack.reject_rate_permille")
                .set((self.reject_rate() * 1000.0) as i64);
            i.registry
                .gauge("attack.evals_per_sec")
                .set(self.evals_per_sec() as i64);
            i.registry.snapshot()
        })
    }
}

impl fmt::Debug for FilterMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(_) => {
                let (screened, rejected, evaluations) = self.counts();
                write!(
                    f,
                    "FilterMeter(recording, screened: {screened}, \
                     rejected: {rejected}, evaluations: {evaluations})"
                )
            }
            None => write!(f, "FilterMeter(detached)"),
        }
    }
}

/// Cross-candidate invariants of one candidate shape: the seeded scenario
/// sweep [`Objective::new`] would sample. The initial configurations are a
/// pure function of `(n, states)` and the filter's scenario count — a LUT
/// state is drawn as `clamp(rng.next_u64() as u8)` per node, blind to the
/// transition tables — so reusing them across a family sweep is
/// bitwise-neutral. The per-candidate work that genuinely differs (the LUT
/// algorithm) still rebuilds in [`AttackPreFilter::reject`].
#[derive(Clone, Debug)]
struct WarmSweep {
    n: usize,
    states: u8,
    inits: Vec<(u64, Vec<CounterState>)>,
}

/// A reject-only synthesis screen driving [`hill_climb`] over scripted
/// attacks (see the module docs for the soundness argument).
///
/// The filter is deterministic: every candidate is scored on the same
/// seeded scenario sweep with the same seeded search, so a sweep's ledger
/// is reproducible run to run.
#[derive(Clone, Debug)]
pub struct AttackPreFilter {
    /// Scenarios per sweep (seeds `0..scenarios`).
    scenarios: usize,
    /// Explicitly scripted rounds per candidate attack.
    rounds: usize,
    /// Sweep-evaluation budget per candidate.
    budget: u64,
    /// Master search seed.
    seed: u64,
    /// Candidates offered to [`AttackPreFilter::reject`].
    screened: u64,
    /// Candidates rejected (some script provably breaks them).
    rejected: u64,
    /// Sweep evaluations spent across all candidates.
    evaluations: u64,
    /// The last shape's scenario sweep, reused while candidates keep the
    /// same `(n, states)` — a family sweep resamples nothing after the
    /// first candidate.
    warm: Option<WarmSweep>,
    /// Live shared meter (detached unless [`with_meter`](Self::with_meter)).
    meter: FilterMeter,
}

impl AttackPreFilter {
    /// A filter sweeping `scenarios` seeded initial configurations with
    /// `rounds`-round scripts under a per-candidate evaluation `budget`.
    pub fn new(scenarios: usize, rounds: usize, budget: u64, seed: u64) -> AttackPreFilter {
        AttackPreFilter {
            scenarios: scenarios.max(1),
            rounds: rounds.max(1),
            budget: budget.max(1),
            seed,
            screened: 0,
            rejected: 0,
            evaluations: 0,
            warm: None,
            meter: FilterMeter::default(),
        }
    }

    /// Attaches a live [`FilterMeter`]: every screen, rejection and sweep
    /// evaluation — across worker forks too — is counted into the meter's
    /// shared cells as it happens, unlike the fork-local audit ledger
    /// that only folds at [`CandidateFilter::absorb`]. Screening results
    /// are unchanged.
    pub fn with_meter(mut self, meter: FilterMeter) -> AttackPreFilter {
        self.meter = meter;
        self
    }

    /// Candidates screened so far.
    pub fn screened(&self) -> u64 {
        self.screened
    }

    /// Candidates rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total sweep evaluations spent so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Scores `lut`; `Some(true)` = provably broken. `None` when the
    /// candidate cannot be scored at all (never a rejection).
    fn breaks(&mut self, lut: &LutCounter) -> Option<bool> {
        let spec = lut.spec().clone();
        let (n, f, states) = (spec.n, spec.f, spec.states);
        // A correct candidate's worst-case stabilisation time is < |X|^n
        // (one attractor layer per configuration); add the confirmation
        // suffix the stability detector needs on top.
        let configs = (states as u64).checked_pow(n as u32)?;
        let horizon = configs.checked_add(sc_sim::required_confirmation(spec.c))?;
        // What an unstable scenario scores; no stabilised one can reach it.
        let unstable_delay = horizon.checked_add(1)?;
        let algo = Algorithm::lut(spec).ok()?;
        let fault_set: Vec<usize> = (0..f).collect();
        // Lend the warm sweep to the objective (a move, not a clone) and
        // recover it after scoring; the first candidate of a shape pays the
        // sampling once and seeds the cache for the rest of the family.
        let warm_inits = self
            .warm
            .as_mut()
            .filter(|w| w.n == n && w.states == states)
            .map(|w| std::mem::take(&mut w.inits));
        let mut obj = match warm_inits {
            Some(inits) => {
                match Objective::with_inits(&algo, &algo, fault_set.clone(), inits, horizon) {
                    Ok(obj) => obj,
                    Err(_) => {
                        // The lent sweep is gone; drop the emptied cache
                        // rather than let a later hit see zero scenarios.
                        self.warm = None;
                        return None;
                    }
                }
            }
            None => {
                let obj = Objective::new(
                    &algo,
                    &algo,
                    fault_set.clone(),
                    0..self.scenarios as u64,
                    horizon,
                )
                .ok()?;
                self.warm = Some(WarmSweep {
                    n,
                    states,
                    inits: Vec::new(),
                });
                obj
            }
        };
        // No `attach_sliced()` here, on purpose: `horizon ≥ |X|^n` means
        // every scripted lasso recurs inside it, so the scalar path decides
        // at the first recurrence and `periodic_verdict` replays the rest,
        // while the sliced path always executes the whole horizon — and a
        // per-candidate LUT model re-lowers its table (243 rows at n = 5,
        // |X| = 3) for each new face pattern.
        let broken = if fault_set.is_empty() {
            // No adversary moves to search: one empty script scores the
            // candidate's intrinsic convergence on the whole sweep.
            let script = Script::new(n, vec![], vec![], 0).ok();
            script.map(|script| {
                let delay = obj.evaluate(&script);
                self.evaluations += obj.evaluations();
                self.meter.evals_add(obj.evaluations());
                delay.unstable > 0
            })
        } else {
            let space = MoveSpace {
                raw_values: states,
                salts: 2,
                max_lag: 2,
            };
            let mut cfg = SearchConfig::new(self.rounds, space, self.seed);
            cfg.budget = self.budget;
            cfg.restarts = 2;
            // The filter is one stage of the synthesiser's own loop; keep
            // each candidate's search on the calling thread.
            cfg.threads = 1;
            // Reject-only: the first script that leaves a scenario unstable
            // settles the verdict, and this is the weakest delay with one.
            cfg.target = Some(Delay {
                worst: unstable_delay,
                unstable: 1,
                total: 0,
            });
            let report = hill_climb(&obj, &cfg);
            self.evaluations += report.evaluations;
            self.meter.evals_add(report.evaluations);
            Some(report.delay.unstable > 0)
        };
        if let Some(warm) = self.warm.as_mut() {
            warm.inits = obj.into_inits();
        }
        broken
    }
}

impl CandidateFilter for AttackPreFilter {
    fn reject(&mut self, lut: &LutCounter) -> bool {
        self.screened += 1;
        self.meter.screened_inc();
        let broken = self.breaks(lut).unwrap_or(false);
        if broken {
            self.rejected += 1;
            self.meter.rejected_inc();
        }
        broken
    }

    /// The filter screens concurrently: every candidate is scored on the
    /// same seeded sweep with the same seeded search, independent of
    /// screening order, so forks reject exactly what the parent would.
    /// Forks start with zeroed audit counters (and inherit the parent's
    /// warm sweep, which is shape-keyed pure data).
    fn fork(&self) -> Option<AttackPreFilter> {
        Some(AttackPreFilter {
            scenarios: self.scenarios,
            rounds: self.rounds,
            budget: self.budget,
            seed: self.seed,
            screened: 0,
            rejected: 0,
            evaluations: 0,
            warm: self.warm.clone(),
            // Forks share the parent's meter cells, so the meter reads
            // live totals while `absorb` still folds the audit ledger.
            meter: self.meter.clone(),
        })
    }

    fn absorb(&mut self, fork: AttackPreFilter) {
        self.screened += fork.screened;
        self.rejected += fork.rejected;
        self.evaluations += fork.evaluations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::LutSpec;
    use sc_verifier::{analyze, CandidateFilter};

    /// The exchangeable "follow the max, then increment" table: 0-resilient,
    /// so with one faulty node a constant-high script freezes it.
    fn follow_max(n: usize, f: usize) -> LutCounter {
        let rows: Vec<u8> = (0..2u32.pow(n as u32))
            .map(|index| {
                let max = (0..n).map(|u| (index >> u & 1) as u8).max().unwrap();
                (max + 1) % 2
            })
            .collect();
        LutCounter::new(LutSpec {
            n,
            f,
            c: 2,
            states: 2,
            transition: vec![rows; n],
            output: vec![vec![0, 1]; n],
            stabilization_bound: 0,
        })
        .unwrap()
    }

    #[test]
    fn rejects_a_breakable_candidate_and_audits_the_ledger() {
        let lut = follow_max(4, 1);
        let mut filter = AttackPreFilter::new(4, 3, 64, 7);
        assert!(filter.reject(&lut), "follow-max with f = 1 must be broken");
        assert_eq!(filter.screened(), 1);
        assert_eq!(filter.rejected(), 1);
        assert!(filter.evaluations() > 0);
        // Reject-only audit: the exhaustive checker agrees it fails.
        assert!(analyze(&lut).unwrap().failure.is_some());
    }

    #[test]
    fn passes_a_correct_candidate_through() {
        // The trivial fault-free 2-counter on one node cycles 0 → 1 → 0:
        // correct, so the filter must not reject it.
        let lut = LutCounter::new(LutSpec {
            n: 1,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![vec![1, 0]],
            output: vec![vec![0, 1]],
            stabilization_bound: 0,
        })
        .unwrap();
        let mut filter = AttackPreFilter::new(4, 2, 16, 1);
        assert!(!filter.reject(&lut));
        assert_eq!(filter.screened(), 1);
        assert_eq!(filter.rejected(), 0);
    }

    #[test]
    fn meter_mirrors_the_ledger_across_forks() {
        let lut = follow_max(4, 1);
        let meter = FilterMeter::recording();
        let mut filter = AttackPreFilter::new(4, 3, 64, 7).with_meter(meter.clone());
        assert!(filter.reject(&lut));
        // A fork screens into the *same* meter while its own ledger
        // stays fork-local until absorb.
        let mut fork = filter.fork().expect("filter forks");
        assert!(fork.reject(&lut));
        assert_eq!(fork.screened(), 1);
        assert_eq!(filter.screened(), 1, "parent ledger not yet folded");
        let (screened, rejected, evaluations) = meter.counts();
        assert_eq!(screened, 2, "meter reads live totals across forks");
        assert_eq!(rejected, 2);
        assert!(evaluations > 0);
        filter.absorb(fork);
        assert_eq!(filter.screened(), 2);
        assert_eq!(
            meter.counts().0,
            filter.screened(),
            "after absorb, ledger and meter agree"
        );
        assert!((meter.reject_rate() - 1.0).abs() < f64::EPSILON);
        let metrics = meter.metrics().expect("recording meter");
        assert_eq!(metrics.counter("attack.screened"), Some(2));
        assert_eq!(metrics.counter("attack.rejected"), Some(2));
    }
}
