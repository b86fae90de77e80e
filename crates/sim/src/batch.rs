//! Batched scenario sweeps: many executions of one protocol, one API call.
//!
//! The paper's guarantees are worst-case statements over *all* initial
//! configurations and adversaries, so everything downstream — the
//! experiment harness, the property tests, exhaustive small-instance work —
//! runs not one execution but sweeps of `(seed, adversary, initial
//! configuration)` scenarios. [`Batch`] is the engine for those sweeps: it
//! drives every scenario through the zero-copy [`Simulation`] core with a
//! streaming [`OnlineDetector`] (no trace is materialised), optionally
//! fanning scenarios out across threads, and aggregates the verdicts.
//!
//! # Example
//!
//! ```
//! use rand::RngCore;
//! use sc_protocol::{Counter, MessageView, NodeId, StepContext, SyncProtocol};
//! use sc_sim::{adversaries, Batch, Scenario};
//!
//! // A toy fault-free 4-counter: follow the minimum received value + 1.
//! struct FollowMin;
//! impl SyncProtocol for FollowMin {
//!     type State = u64;
//!     fn n(&self) -> usize { 3 }
//!     fn step(&self, _: NodeId, view: &MessageView<'_, u64>, _: &mut StepContext<'_>) -> u64 {
//!         (view.iter().min().copied().unwrap() + 1) % 4
//!     }
//!     fn output(&self, _: NodeId, s: &u64) -> u64 { *s }
//!     fn random_state(&self, _: NodeId, rng: &mut dyn RngCore) -> u64 { rng.next_u64() % 4 }
//! }
//! impl Counter for FollowMin {
//!     fn modulus(&self) -> u64 { 4 }
//!     fn resilience(&self) -> usize { 0 }
//!     fn state_bits(&self) -> u32 { 2 }
//!     fn stabilization_bound(&self) -> u64 { 1 }
//!     fn encode_state(&self, _: NodeId, s: &u64, out: &mut sc_protocol::BitVec) {
//!         out.push_bits(*s, 2);
//!     }
//!     fn decode_state(
//!         &self,
//!         _: NodeId,
//!         input: &mut sc_protocol::BitReader<'_>,
//!     ) -> Result<u64, sc_protocol::CodecError> {
//!         input.read_bits(2)
//!     }
//! }
//!
//! let p = FollowMin;
//! let scenarios = Scenario::seeds(0..16);
//! let report = Batch::new(&p, 40).run(&scenarios, |_| adversaries::none());
//! assert_eq!(report.summary().stabilized, 16);
//! assert!(report.summary().worst <= 1);
//! ```

use sc_protocol::{Counter, Fingerprint, PreparedProtocol};

use crate::adversary::Adversary;
use crate::early::ExitReason;
use crate::obs::SimObs;
use crate::simulation::{required_confirmation, Simulation};
use crate::stabilization::{OnlineDetector, StabilizationReport};
use crate::SimError;

/// One execution to run: a seed plus an optional explicit initial
/// configuration (when absent, the configuration is drawn from the seed).
#[derive(Clone, Debug)]
pub struct Scenario<S> {
    /// Seeds the initial configuration (when `init` is `None`), the
    /// protocol's own randomness, and — by convention — the adversary
    /// factory.
    pub seed: u64,
    /// Explicit initial configuration, one state per node.
    pub init: Option<Vec<S>>,
}

impl<S> Scenario<S> {
    /// A scenario drawing its initial configuration from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Scenario { seed, init: None }
    }

    /// A scenario starting from an explicit configuration.
    pub fn with_states(seed: u64, states: Vec<S>) -> Self {
        Scenario {
            seed,
            init: Some(states),
        }
    }

    /// Seed-only scenarios for every seed in `seeds`.
    pub fn seeds(seeds: impl IntoIterator<Item = u64>) -> Vec<Self> {
        seeds.into_iter().map(Self::seeded).collect()
    }
}

impl<S> From<u64> for Scenario<S> {
    fn from(seed: u64) -> Self {
        Scenario::seeded(seed)
    }
}

/// The verdict of one scenario in a [`BatchReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The scenario's seed, for replay.
    pub seed: u64,
    /// Stabilisation verdict of the execution.
    pub result: Result<StabilizationReport, SimError>,
    /// States the adversary materialised through the message plane's pool
    /// over this execution (see [`Simulation::fabricated_states`]) — the
    /// fabrication-cost ledger Byzantine sweeps are benchmarked on.
    pub fabricated_states: u64,
    /// How the execution finished: full horizon, opted-out (RNG-driven),
    /// an early cycle exit, or a closure exit — the early-decision ledger
    /// next to `fabricated_states`. The fixed-horizon entry points
    /// ([`Batch::run`], [`Batch::run_prepared`]) report
    /// [`ExitReason::Closed`] or [`ExitReason::FullHorizon`]; the early
    /// ones ([`Batch::run_early`], [`Batch::run_prepared_early`]) never
    /// report `Closed`.
    pub exit_reason: ExitReason,
}

/// Aggregate statistics over a [`BatchReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchSummary {
    /// Scenarios run.
    pub runs: usize,
    /// Scenarios that stabilised within their horizon.
    pub stabilized: usize,
    /// Worst observed stabilisation round among stabilised scenarios.
    pub worst: u64,
    /// Mean observed stabilisation round among stabilised scenarios.
    pub mean: f64,
}

/// Results of a batched sweep, in scenario order (independent of thread
/// scheduling).
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-scenario verdicts, indexed like the input scenarios.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl BatchReport {
    /// Aggregates the outcomes.
    pub fn summary(&self) -> BatchSummary {
        let mut stabilized = 0usize;
        let mut worst = 0u64;
        let mut sum = 0u64;
        for outcome in &self.outcomes {
            if let Ok(report) = &outcome.result {
                stabilized += 1;
                worst = worst.max(report.stabilization_round);
                sum += report.stabilization_round;
            }
        }
        BatchSummary {
            runs: self.outcomes.len(),
            stabilized,
            worst,
            mean: if stabilized == 0 {
                0.0
            } else {
                sum as f64 / stabilized as f64
            },
        }
    }

    /// Whether every scenario stabilised.
    pub fn all_stabilized(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// The first failing scenario, if any — the one to replay first.
    pub fn first_failure(&self) -> Option<&ScenarioOutcome> {
        self.outcomes.iter().find(|o| o.result.is_err())
    }

    /// Total adversary-fabricated states across all scenarios — the sweep's
    /// message-plane cost ledger.
    pub fn fabricated_states(&self) -> u64 {
        self.outcomes.iter().map(|o| o.fabricated_states).sum()
    }

    /// Scenarios that took the early cycle exit.
    pub fn early_exits(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.exit_reason, ExitReason::Cycle { .. }))
            .count()
    }

    /// Total rounds of a `horizon`-round sweep that a cycle or closure exit
    /// decided instead of executing them — the early-decision ledger.
    pub fn rounds_saved(&self, horizon: u64) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.exit_reason.rounds_saved(horizon))
            .sum()
    }
}

/// A batched sweep runner for one counter protocol.
///
/// Created with a protocol and a per-scenario horizon; [`Batch::run`] then
/// executes any number of scenarios through the zero-copy engine, fanned
/// out on the persistent [`sc_exec`] pool across up to [`Batch::threads`]
/// executing threads — results are bitwise identical regardless of the
/// thread count, because every scenario owns its seeds.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a, P> {
    protocol: &'a P,
    horizon: u64,
    threads: usize,
    obs: Option<&'a SimObs>,
}

impl<'a, P: Counter> Batch<'a, P> {
    /// A sweep runner giving each scenario `horizon` rounds.
    pub fn new(protocol: &'a P, horizon: u64) -> Self {
        Batch {
            protocol,
            horizon,
            threads: sc_exec::threads(),
            obs: None,
        }
    }

    /// Caps the worker thread count (clamped to at least 1; a cap of 1
    /// runs the sweep inline on the calling thread).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Meters every scenario of this sweep into `obs` (scenario count,
    /// exit-reason tallies, stabilisation rounds). Metering is
    /// observe-only: verdicts are bitwise unchanged.
    pub fn observed(mut self, obs: &'a SimObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The scenario's simulation: a fresh adversary from `factory`, started
    /// from the scenario's initial configuration or a seeded random one.
    fn simulation<A, F>(&self, scenario: &Scenario<P::State>, factory: &F) -> Simulation<'a, P, A>
    where
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A,
    {
        let adversary = factory(scenario);
        match &scenario.init {
            Some(states) => {
                Simulation::with_states(self.protocol, adversary, states.clone(), scenario.seed)
            }
            None => Simulation::new(self.protocol, adversary, scenario.seed),
        }
    }

    /// Runs one scenario to completion, detecting stabilisation on the
    /// fly; `step` selects the engine path (plain or prepared).
    ///
    /// Stops at the first round the closure exit's preconditions hold
    /// ([`Simulation::closure_rate`]): the remaining rounds are recorded as
    /// good transitions and their fabrications as `rate` per round, so the
    /// outcome equals the full-horizon one but for its
    /// [`ExitReason::Closed`].
    fn run_one<A, F, S>(
        &self,
        scenario: &Scenario<P::State>,
        factory: &F,
        step: S,
    ) -> ScenarioOutcome
    where
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A,
        S: Fn(&mut Simulation<'a, P, A>),
    {
        let confirm = required_confirmation(self.protocol.modulus());
        if self.horizon < confirm {
            return ScenarioOutcome {
                seed: scenario.seed,
                result: Err(SimError::HorizonTooShort {
                    horizon: self.horizon,
                    required: confirm,
                }),
                fabricated_states: 0,
                exit_reason: ExitReason::FullHorizon,
            };
        }
        let mut sim = self.simulation(scenario, factory);
        let mut detector = OnlineDetector::new(self.protocol.modulus());
        detector.observe(sim.agreed_output_now());
        let mut exit_reason = ExitReason::FullHorizon;
        let mut unexecuted_fabrications = 0;
        for round in 0..self.horizon {
            if let Some(rate) = sim.closure_rate() {
                // Closed: every remaining round counts, and the adversary
                // fabricates `rate` states in each — record both unexecuted.
                let rest = self.horizon - round;
                detector.extend_counting(rest);
                unexecuted_fabrications = rate * rest;
                exit_reason = ExitReason::Closed { decided_at: round };
                break;
            }
            step(&mut sim);
            detector.observe(sim.agreed_output_now());
        }
        ScenarioOutcome {
            seed: scenario.seed,
            result: detector.finish(confirm),
            fabricated_states: sim.fabricated_states() + unexecuted_fabrications,
            exit_reason,
        }
    }

    /// Runs one scenario in the early-decision mode: identical verdict, but
    /// the execution stops as soon as the configuration provably cycles.
    fn run_one_early<A, F, S>(
        &self,
        scenario: &Scenario<P::State>,
        factory: &F,
        step: S,
    ) -> ScenarioOutcome
    where
        P: Fingerprint,
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A,
        S: Fn(&mut Simulation<'a, P, A>),
    {
        let mut sim = self.simulation(scenario, factory);
        let (result, exit_reason) = sim.run_early_with(self.horizon, step);
        ScenarioOutcome {
            seed: scenario.seed,
            result,
            fabricated_states: sim.fabricated_states(),
            exit_reason,
        }
    }

    /// Schedules `runner` over every scenario on the persistent
    /// [`sc_exec`] pool (capped at [`Batch::threads`] executing threads)
    /// and collects outcomes in input order.
    ///
    /// Workers claim scenarios dynamically, so uneven per-scenario cost —
    /// early-decision exits make adjacent seeds wildly different — load-
    /// balances automatically; results land in per-index slots, so the
    /// report is bitwise identical for every thread count.
    fn schedule<R>(&self, scenarios: &[Scenario<P::State>], runner: R) -> BatchReport
    where
        R: Fn(&Scenario<P::State>) -> ScenarioOutcome + Sync,
        P::State: Sync,
    {
        let obs = self.obs;
        BatchReport {
            outcomes: sc_exec::map(scenarios.len(), self.threads, |i| {
                let outcome = runner(&scenarios[i]);
                if let Some(obs) = obs {
                    obs.scenario_done(&outcome);
                }
                outcome
            }),
        }
    }

    /// Runs every scenario, producing per-scenario verdicts in input order.
    ///
    /// The `factory` builds a fresh adversary per scenario (adversaries are
    /// stateful). Scenarios are distributed over worker threads;
    /// adversaries are created inside their worker, so only the factory
    /// itself must be `Sync`.
    ///
    /// A scenario stops executing at the first round its correct nodes are
    /// [closed](Counter::closed) under an adversary whose
    /// [fabrication rate](Adversary::fabrication_per_round) is known — the
    /// **closure exit**, [`ExitReason::Closed`]. The rest of the horizon is
    /// recorded, not executed: the verdict and the fabrication ledger are
    /// bitwise the full-horizon ones.
    pub fn run<A, F>(&self, scenarios: &[Scenario<P::State>], factory: F) -> BatchReport
    where
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        self.schedule(scenarios, |s| self.run_one(s, &factory, Simulation::step))
    }

    /// [`run`](Batch::run) on the protocol's [`PreparedProtocol`] fast path:
    /// per round, the receiver-independent vote tallies are hoisted out and
    /// each receiver patches only the Byzantine overrides. Verdicts are
    /// bitwise identical to [`run`](Batch::run).
    pub fn run_prepared<A, F>(&self, scenarios: &[Scenario<P::State>], factory: F) -> BatchReport
    where
        P: PreparedProtocol,
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        self.schedule(scenarios, |s| {
            self.run_one(s, &factory, Simulation::step_prepared)
        })
    }

    /// [`run`](Batch::run) in the **early-decision mode**: verdicts are
    /// bitwise identical, but scenarios whose joint (states, adversary)
    /// configuration provably cycles stop executing at the recurrence and
    /// replay the rest of the horizon algebraically (see
    /// [`Simulation::run_until_stable_early`]). Each outcome's
    /// [`exit_reason`](ScenarioOutcome::exit_reason) records whether and
    /// where the exit fired; RNG-driven adversaries run the full horizon
    /// and report [`ExitReason::Opaque`].
    pub fn run_early<A, F>(&self, scenarios: &[Scenario<P::State>], factory: F) -> BatchReport
    where
        P: Fingerprint,
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        self.schedule(scenarios, |s| {
            self.run_one_early(s, &factory, Simulation::step)
        })
    }

    /// [`run_early`](Batch::run_early) on the [`PreparedProtocol`] fast
    /// path.
    pub fn run_prepared_early<A, F>(
        &self,
        scenarios: &[Scenario<P::State>],
        factory: F,
    ) -> BatchReport
    where
        P: Fingerprint + PreparedProtocol,
        A: Adversary<P::State>,
        F: Fn(&Scenario<P::State>) -> A + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        self.schedule(scenarios, |s| {
            self.run_one_early(s, &factory, Simulation::step_prepared)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries;

    use crate::testing::FollowMax;

    #[test]
    fn batch_matches_looped_single_runs() {
        let p = FollowMax { n: 4, c: 4 };
        let scenarios = Scenario::seeds(0..12);
        let report = Batch::new(&p, 40).run(&scenarios, |_| adversaries::none());
        assert_eq!(report.outcomes.len(), 12);
        for scenario in &scenarios {
            let mut sim = Simulation::new(&p, adversaries::none(), scenario.seed);
            let expect = sim.run_until_stable(40);
            let got = &report.outcomes[scenario.seed as usize].result;
            assert_eq!(*got, expect, "seed {}", scenario.seed);
        }
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..9);
        let factory = |s: &Scenario<u64>| adversaries::random(&p, [2], s.seed);
        let one = Batch::new(&p, 64).threads(1).run(&scenarios, factory);
        // Strided assignment: 4 workers over 9 scenarios (ragged), and
        // more workers than scenarios — outcomes must come back complete
        // and in input order either way.
        let many = Batch::new(&p, 64).threads(4).run(&scenarios, factory);
        let over = Batch::new(&p, 64).threads(16).run(&scenarios, factory);
        assert_eq!(one.outcomes, many.outcomes);
        assert_eq!(one.outcomes, over.outcomes);
        let seeds: Vec<u64> = one.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, (0..9).collect::<Vec<u64>>(), "input order kept");
    }

    #[test]
    fn explicit_configurations_are_honoured() {
        let p = FollowMax { n: 3, c: 4 };
        // All-equal initial states: stabilises at round 0 (counting from
        // the very first transition).
        let scenarios = vec![Scenario::with_states(7, vec![2u64, 2, 2])];
        let report = Batch::new(&p, 40).run(&scenarios, |_| adversaries::none());
        let stab = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(stab.stabilization_round, 0);
    }

    #[test]
    fn summary_aggregates_failures_and_successes() {
        let p = FollowMax { n: 4, c: 1 << 20 };
        // Random equivocation breaks the 0-resilient counter in (almost)
        // every scenario; modulus 2^20 needs 128 confirmations.
        let scenarios = Scenario::seeds(0..4);
        let report = Batch::new(&p, 200).run(&scenarios, |s| adversaries::random(&p, [0], s.seed));
        let summary = report.summary();
        assert_eq!(summary.runs, 4);
        assert!(
            summary.stabilized < 4,
            "equivocation should break FollowMax"
        );
        assert_eq!(report.all_stabilized(), summary.stabilized == 4);
        if summary.stabilized < 4 {
            assert!(report.first_failure().is_some());
        }
    }

    #[test]
    fn fabrication_ledger_distinguishes_echo_from_fresh_attacks() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..4);
        let echo = Batch::new(&p, 64).run(&scenarios, |s: &Scenario<u64>| {
            adversaries::two_faced(&p, [2], s.seed)
        });
        assert_eq!(
            echo.fabricated_states(),
            0,
            "two-faced equivocation echoes honest donors, fabricating nothing"
        );
        let fresh = Batch::new(&p, 64).run(&scenarios, |s: &Scenario<u64>| {
            adversaries::random(&p, [2], s.seed)
        });
        // One fresh state per (faulty sender, correct receiver, round):
        // 1 × 4 × 64 per scenario, 4 scenarios.
        assert_eq!(fresh.fabricated_states(), 4 * 4 * 64);
    }

    #[test]
    fn short_horizon_fails_every_scenario_up_front() {
        let p = FollowMax { n: 3, c: 4 };
        let scenarios = Scenario::seeds(0..3);
        let report = Batch::new(&p, 4).run(&scenarios, |_| adversaries::none());
        for outcome in &report.outcomes {
            assert!(matches!(
                outcome.result,
                Err(SimError::HorizonTooShort {
                    horizon: 4,
                    required: 8
                })
            ));
        }
    }
}
