//! The synchronous execution engine.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_protocol::{
    BitVec, Broadcast, Counter, MessageView, NodeId, PreparedProtocol, StepContext, SyncProtocol,
};

use crate::adversary::{Adversary, AdversarySnapshot, RoundContext, SnapshotSupport};
use crate::early::{periodic_verdict, CycleDetector, ExitReason, Feed};
use crate::stabilization::{
    detect_stabilization, OnlineDetector, OutputTrace, StabilizationReport,
};
use crate::workspace::{FaultMask, RoundWorkspace};
use crate::SimError;

/// A synchronous execution of a protocol under a Byzantine adversary.
///
/// Each [`step`](Simulation::step) performs one round of the model in §2:
///
/// 1. every node's state is (conceptually) broadcast,
/// 2. for every correct receiver the adversary overrides the entries of the
///    faulty senders — per receiver, enabling full equivocation,
/// 3. every correct node applies the protocol's transition function.
///
/// Faulty nodes have no state of their own: their behaviour is entirely the
/// adversary's, exactly like the `π_F` projection of the paper. Initial
/// states of correct nodes are *arbitrary* — drawn from the protocol's state
/// space by [`SyncProtocol::random_state`], or supplied explicitly via
/// [`Simulation::with_states`].
///
/// # Engine
///
/// The round loop is zero-copy: states live in a double buffer whose halves
/// are swapped after each round (no `Vec<State>` is rebuilt), faultiness is
/// looked up in a precomputed [`FaultMask`] bitmap, and adversary messages
/// travel the borrow-based plane — per (faulty sender, receiver) pair the
/// adversary returns a [`MessageSource`](sc_protocol::MessageSource) lease,
/// the lease vector lives in
/// the reusable scratch of a [`RoundWorkspace`], and genuinely fabricated
/// states are materialised at most once per round (or once per execution)
/// into the workspace's [`StatePool`](crate::StatePool). The
/// `engine_equivalence` integration tests gate the engine's paths against
/// each other: the [`PreparedProtocol`] fast path and the batched sweeps
/// must reproduce plain single-stepped executions bitwise.
///
/// # Drivers
///
/// [`run_until_stable_early`](Simulation::run_until_stable_early),
/// [`Batch::run`](crate::Batch::run) and
/// [`Batch::run_prepared`](crate::Batch::run_prepared) share one run loop
/// that stops at the first sound exit: Lemma 5's closure
/// ([`ExitReason::Closed`]) or a bit-exact recurrence of the joint
/// (states, adversary) configuration ([`ExitReason::Cycle`]). Their
/// verdicts equal those of [`run_until_stable`](Simulation::run_until_stable),
/// the trace-based full-horizon oracle.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulation<'a, P: SyncProtocol, A> {
    protocol: &'a P,
    adversary: A,
    states: Vec<P::State>,
    /// The second half of the double buffer. Holds the previous round's
    /// honest states (overwritten before being read) and, invariantly, the
    /// same placeholder states as `states` at faulty indices.
    back: Vec<P::State>,
    faulty: Vec<NodeId>,
    mask: FaultMask,
    honest: Vec<NodeId>,
    workspace: RoundWorkspace<P::State>,
    /// The [`PreparedProtocol::RoundPrep`] of this execution, built by the
    /// first [`step_prepared`](Simulation::step_prepared) and refilled by
    /// every later one. Type-erased because only that method knows `P` is
    /// a `PreparedProtocol`.
    prep: Option<Box<dyn Any>>,
    round: u64,
    rng: SmallRng,
    /// Fabrications a closure exit recorded for the rounds it decided
    /// without executing them (see [`Simulation::fabricated_states`]).
    projected_fabrications: u64,
}

impl<'a, P, A> Simulation<'a, P, A>
where
    P: SyncProtocol,
    A: Adversary<P::State>,
{
    /// Starts an execution from an adversarially random initial
    /// configuration derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the adversary names a node outside the network or corrupts
    /// every node.
    pub fn new(protocol: &'a P, adversary: A, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let states = (0..protocol.n())
            .map(|i| protocol.random_state(NodeId::new(i), &mut rng))
            .collect();
        Self::with_states(protocol, adversary, states, seed.wrapping_add(1))
    }

    /// Starts an execution from an explicit initial configuration.
    ///
    /// `seed` feeds only the protocol's own randomness (randomised
    /// protocols); deterministic protocols ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != protocol.n()`, if the adversary names a
    /// node outside the network, or if it corrupts every node.
    pub fn with_states(protocol: &'a P, adversary: A, states: Vec<P::State>, seed: u64) -> Self {
        assert_eq!(
            states.len(),
            protocol.n(),
            "initial configuration width mismatch"
        );
        let faulty: Vec<NodeId> = adversary.faulty().to_vec();
        assert!(
            faulty.windows(2).all(|w| w[0] < w[1]),
            "adversary fault set must be sorted and duplicate-free"
        );
        assert!(
            faulty.iter().all(|id| id.index() < protocol.n()),
            "adversary corrupts a node outside the network"
        );
        assert!(
            faulty.len() < protocol.n(),
            "at least one node must stay correct"
        );
        let mask = FaultMask::from_sorted(&faulty, protocol.n());
        let honest = (0..protocol.n())
            .map(NodeId::new)
            .filter(|id| !mask.contains(id.index()))
            .collect();
        let back = states.clone();
        let workspace = RoundWorkspace::with_capacity(faulty.len(), protocol.n());
        Simulation {
            protocol,
            adversary,
            states,
            back,
            faulty,
            mask,
            honest,
            workspace,
            prep: None,
            round: 0,
            rng: SmallRng::seed_from_u64(seed),
            projected_fabrications: 0,
        }
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Sorted identifiers of faulty nodes.
    pub fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    /// Sorted identifiers of correct nodes.
    pub fn honest(&self) -> &[NodeId] {
        &self.honest
    }

    /// Current states of all nodes (faulty entries are meaningless
    /// placeholders).
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Outputs of the correct nodes, in [`Simulation::honest`] order.
    pub fn outputs_now(&self) -> Vec<u64> {
        self.honest
            .iter()
            .map(|&id| self.protocol.output(id, &self.states[id.index()]))
            .collect()
    }

    /// The common output of all correct nodes right now, if they agree —
    /// computed without allocating a row vector.
    pub fn agreed_output_now(&self) -> Option<u64> {
        let mut iter = self.honest.iter();
        let first = iter.next().expect("at least one correct node");
        let value = self.protocol.output(*first, &self.states[first.index()]);
        iter.all(|&id| self.protocol.output(id, &self.states[id.index()]) == value)
            .then_some(value)
    }

    /// Executes one synchronous round on the zero-copy engine.
    pub fn step(&mut self) {
        self.round_with(|protocol, node, view, ctx| protocol.step(node, view, ctx));
    }

    /// The round body both engine paths share: the adversary's round
    /// hook, one lease per (faulty sender, correct receiver) pair, the
    /// receiver's view, `transition` into the back buffer, and the swap.
    fn round_with<F>(&mut self, mut transition: F)
    where
        F: FnMut(&P, NodeId, &MessageView<'_, P::State>, &mut StepContext<'_>) -> P::State,
    {
        let ctx = RoundContext {
            round: self.round,
            honest: &self.states,
            faulty: &self.faulty,
            mask: &self.mask,
        };
        self.workspace.pool.begin_round();
        self.adversary.begin_round(&ctx, &mut self.workspace.pool);

        for i in 0..self.states.len() {
            if self.mask.contains(i) {
                // Faulty nodes keep their placeholder state; both buffer
                // halves already hold it, so there is nothing to write.
                continue;
            }
            let receiver = NodeId::new(i);
            self.workspace.sources.clear();
            for &from in &self.faulty {
                let source = self
                    .adversary
                    .message(from, receiver, &ctx, &mut self.workspace.pool);
                self.workspace.sources.push((from, source));
            }
            let view = MessageView::from_sources(
                &self.states,
                self.workspace.pool.pinned(),
                self.workspace.pool.round(),
                &self.workspace.sources,
            );
            let mut step_ctx = StepContext::new(&mut self.rng);
            self.back[i] = transition(self.protocol, receiver, &view, &mut step_ctx);
        }
        std::mem::swap(&mut self.states, &mut self.back);
        self.round += 1;
    }

    /// Cumulative number of states the adversary has materialised through
    /// the message plane's pool — the fabrication-cost ledger of Byzantine
    /// sweeps (echoed broadcasts and pinned states do not count). After a
    /// closure exit ([`ExitReason::Closed`]) it also counts the
    /// `rate × rounds` fabrications of the rounds the exit decided, so the
    /// ledger is the full-horizon one.
    pub fn fabricated_states(&self) -> u64 {
        self.workspace.pool.fabricated_total() + self.projected_fabrications
    }

    /// Executes `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes one synchronous round using the protocol's
    /// [`PreparedProtocol`] fast path: the receiver-independent share of the
    /// transition (majority-vote tallies over honest senders) is computed
    /// once, and each receiver only patches the ≤ `f` Byzantine overrides
    /// in. Bitwise-equivalent to [`step`](Simulation::step) — the
    /// `engine_equivalence` tests enforce it.
    pub fn step_prepared(&mut self)
    where
        P: PreparedProtocol,
    {
        let base = Broadcast::States(&self.states);
        let mut prep = match self.prep.take() {
            Some(mut prep) => {
                let round_prep = prep.downcast_mut().expect("one protocol per simulation");
                self.protocol.refill_round(round_prep, base, &self.faulty);
                prep
            }
            None => Box::new(self.protocol.prepare_round(base, &self.faulty)),
        };
        let round_prep: &mut P::RoundPrep = prep.downcast_mut().expect("prepared as this type");
        self.round_with(|protocol, node, view, ctx| {
            protocol.step_prepared(node, view, round_prep, ctx)
        });
        self.prep = Some(prep);
    }

    /// Executes `rounds` rounds, recording the correct nodes' outputs before
    /// the first round and after every round (`rounds + 1` rows).
    pub fn run_trace(&mut self, rounds: u64) -> OutputTrace {
        let mut trace = OutputTrace::new(self.honest.clone());
        trace.push_row(self.outputs_now());
        for _ in 0..rounds {
            self.step();
            trace.push_row(self.outputs_now());
        }
        trace
    }

    /// Injects a **transient fault burst**: overwrites the states of `nodes`
    /// with arbitrary values drawn from the protocol's state space.
    ///
    /// This is the scenario self-stabilisation exists for — soft errors,
    /// power glitches, or partial resets may corrupt *every* register in the
    /// system, and the algorithm must recover within its stabilisation bound
    /// counted from the last burst. See `sc-bench`'s `transient` harness.
    pub fn corrupt<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for node in nodes {
            assert!(
                node.index() < self.states.len(),
                "corrupting node outside the network"
            );
            self.states[node.index()] = self.protocol.random_state(node, &mut rng);
            // Keep the double-buffer invariant: faulty placeholders must be
            // identical in both halves (honest entries are overwritten
            // before being read, but syncing unconditionally is cheapest).
            self.back[node.index()] = self.states[node.index()].clone();
        }
    }

    /// Injects a transient fault burst on *all* nodes (total state loss).
    pub fn corrupt_all(&mut self, seed: u64) {
        let all: Vec<NodeId> = (0..self.states.len()).map(NodeId::new).collect();
        self.corrupt(all, seed);
    }
}

/// The violation-free suffix a counter execution must exhibit before
/// [`Simulation::run_until_stable`] accepts it: `2·modulus` transitions,
/// clamped to `[8, 128]`.
pub fn required_confirmation(modulus: u64) -> u64 {
    (2 * modulus).clamp(8, 128)
}

impl<'a, P, A> Simulation<'a, P, A>
where
    P: Counter,
    A: Adversary<P::State>,
{
    /// Runs for `horizon` rounds and verifies that the execution stabilised:
    /// from some round `t ≤ horizon` on, all correct outputs agree and count
    /// modulo [`Counter::modulus`].
    ///
    /// A violation-free suffix of [`required_confirmation`] transitions is
    /// demanded as confirmation — the horizon must accommodate it in full;
    /// silently shrinking the requirement would let a 1-transition tail pass
    /// as "stable".
    ///
    /// This is the **oracle** the exit-taking drivers are tested against:
    /// it executes every round, records the output trace and detects
    /// stabilisation offline, with no exit of any kind.
    ///
    /// # Errors
    ///
    /// * [`SimError::HorizonTooShort`] when `horizon` cannot fit the
    ///   required confirmation suffix — the run is not even attempted.
    /// * [`SimError::NotStabilized`] when the confirmation suffix is missing
    ///   — either the algorithm failed or `horizon` was too small.
    pub fn run_until_stable(&mut self, horizon: u64) -> Result<StabilizationReport, SimError> {
        let modulus = self.protocol.modulus();
        let confirm = required_confirmation(modulus);
        if horizon < confirm {
            return Err(SimError::HorizonTooShort {
                horizon,
                required: confirm,
            });
        }
        let trace = self.run_trace(horizon);
        detect_stabilization(&trace, modulus, confirm)
    }

    /// [`run_until_stable`](Simulation::run_until_stable) with every sound
    /// **early exit**: the verdict is bitwise identical, but the run stops
    /// executing as soon as the rest of the horizon is decided, and the
    /// [`ExitReason`] says why.
    ///
    /// * **Closure** ([`ExitReason::Closed`]): the correct nodes are
    ///   [closed](Counter::closed) — Lemma 5 for the boosted counter — under
    ///   an adversary whose [fabrication
    ///   rate](Adversary::fabrication_per_round) is known. The remaining
    ///   rounds are recorded as counting, and their fabrications join
    ///   [`fabricated_states`](Simulation::fabricated_states).
    /// * **Recurrence** ([`ExitReason::Cycle`]): the joint (states,
    ///   adversary) configuration recurs bit-exactly, so the remaining
    ///   rounds are replayed algebraically. Soundness is typed, not
    ///   assumed: the cycle detector only arms when
    ///   [`Counter::deterministic_transition`] holds *and* the adversary's
    ///   [`snapshot`](Adversary::snapshot) reports
    ///   [`SnapshotSupport::Deterministic`]; otherwise the run reports
    ///   [`ExitReason::Opaque`] unless it closes. Every recurrence is
    ///   verified on the full codec encoding, never on a hash. The ledger
    ///   counts the executed rounds only.
    ///
    /// # Errors
    ///
    /// Exactly the contract of
    /// [`run_until_stable`](Simulation::run_until_stable); the error values
    /// are bitwise identical too.
    pub fn run_until_stable_early(
        &mut self,
        horizon: u64,
    ) -> (Result<StabilizationReport, SimError>, ExitReason) {
        self.run_with(horizon, Self::step)
    }

    /// The one scalar run loop behind every exit-taking driver; `step`
    /// selects the engine path. Each round checks the closure exit, steps,
    /// then feeds the cycle detector while it is armed.
    pub(crate) fn run_with<S: Fn(&mut Self)>(
        &mut self,
        horizon: u64,
        step: S,
    ) -> (Result<StabilizationReport, SimError>, ExitReason) {
        let modulus = self.protocol.modulus();
        let confirm = required_confirmation(modulus);
        if horizon < confirm {
            return (
                Err(SimError::HorizonTooShort {
                    horizon,
                    required: confirm,
                }),
                ExitReason::FullHorizon,
            );
        }
        let mut online = OnlineDetector::new(modulus);
        let first = self.agreed_output_now();
        online.observe(first);
        // While armed, the detector keeps every agreed output row for the
        // cycle exit's verdict replay. The initial configuration can recur
        // too (round 0 is a valid cycle entry), so it is recorded first.
        let mut armed = self
            .protocol
            .deterministic_transition()
            .then(|| (CycleDetector::new(), vec![first]));
        if let Some((detector, _)) = armed.as_mut() {
            if matches!(self.record_config(detector), Feed::Opaque) {
                armed = None;
            }
        }
        for round in 0..horizon {
            if let Some(rate) = self.closure_rate() {
                let rest = horizon - round;
                online.extend_counting(rest);
                self.projected_fabrications += rate * rest;
                return (
                    online.finish(confirm),
                    ExitReason::Closed { decided_at: round },
                );
            }
            step(self);
            let row = self.agreed_output_now();
            online.observe(row);
            if let Some((detector, rows)) = armed.as_mut() {
                rows.push(row);
                match self.record_config(detector) {
                    Feed::Recorded => {}
                    Feed::Opaque => armed = None,
                    Feed::Cycle(start) => {
                        let verdict = periodic_verdict(rows, start, horizon, modulus, confirm);
                        let decided_at = round + 1;
                        let length = decided_at - start;
                        return (
                            verdict,
                            ExitReason::Cycle {
                                start,
                                length,
                                decided_at,
                            },
                        );
                    }
                }
            }
        }
        let exit = match armed {
            Some(_) => ExitReason::FullHorizon,
            None => ExitReason::Opaque,
        };
        (online.finish(confirm), exit)
    }

    /// The two preconditions of the closure exit, checked now: the correct
    /// nodes are closed ([`Counter::closed`]) and the adversary's
    /// fabrication rate is known ([`Adversary::fabrication_per_round`]).
    /// Returns that rate when both hold.
    fn closure_rate(&self) -> Option<u64> {
        let rate = self.adversary.fabrication_per_round(self.states.len())?;
        self.protocol
            .closed(&self.states, &self.honest)
            .then_some(rate)
    }

    /// Encodes the current joint configuration — the correct nodes' states
    /// through the protocol's codec and the adversary snapshot — and feeds
    /// it to the detector. How many states are pinned is not part of it: a
    /// pinned lease always resolves to the same state, so pinning on first
    /// use changes no decision.
    fn record_config(&self, detector: &mut CycleDetector) -> Feed {
        let mut bits = detector.begin();
        for &id in &self.honest {
            self.protocol
                .encode_state(id, &self.states[id.index()], &mut bits);
        }
        let support = {
            let mut encode = |node: NodeId, state: &P::State, out: &mut BitVec| {
                self.protocol.encode_state(node, state, out);
            };
            let mut writer = AdversarySnapshot::new(&mut bits, &mut encode);
            self.adversary.snapshot(self.round, &mut writer)
        };
        match support {
            SnapshotSupport::Opaque => {
                detector.discard(bits);
                Feed::Opaque
            }
            SnapshotSupport::Deterministic => detector.commit(bits),
        }
    }
}

impl<'a, P: SyncProtocol, A> std::fmt::Debug for Simulation<'a, P, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.states.len())
            .field("round", &self.round)
            .field("faulty", &self.faulty)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries;

    use crate::testing::FollowMax;

    #[test]
    fn fault_free_followmax_stabilises_immediately() {
        let p = FollowMax { n: 5, c: 4 };
        let mut sim = Simulation::new(&p, adversaries::none(), 3);
        let report = sim.run_until_stable(40).unwrap();
        assert!(report.stabilization_round <= 1);
        assert_eq!(report.modulus, 4);
    }

    #[test]
    fn deterministic_protocols_replay_identically() {
        let p = FollowMax { n: 4, c: 8 };
        let states = vec![1u64, 5, 3, 0];
        let mut a = Simulation::with_states(&p, adversaries::none(), states.clone(), 1);
        let mut b = Simulation::with_states(&p, adversaries::none(), states, 999);
        a.run(20);
        b.run(20);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn seeded_equivocation_replays_are_reproducible() {
        // Fixed seeds fully determine an execution — including the
        // adversary's RNG stream — so two independent instances must stay
        // identical round for round (no hidden global state anywhere).
        let p = FollowMax { n: 5, c: 1 << 20 };
        let states: Vec<u64> = vec![7, 99, 3, 12_345, 0];
        let mut a = Simulation::with_states(&p, adversaries::random(&p, [1], 5), states.clone(), 9);
        let mut b = Simulation::with_states(&p, adversaries::random(&p, [1], 5), states, 9);
        for round in 0..50 {
            a.step();
            b.step();
            assert_eq!(a.states(), b.states(), "divergence at round {round}");
        }
    }

    #[test]
    fn crash_adversary_cannot_stop_followmax_with_margin() {
        // FollowMax has zero resilience in general, but a frozen crash value
        // only delays convergence by at most one wrap: every honest node
        // still sees the same vector every round.
        let p = FollowMax { n: 5, c: 4 };
        let adv = adversaries::crash(&p, [4], 11);
        let mut sim = Simulation::new(&p, adv, 5);
        let report = sim.run_until_stable(64);
        // A frozen maximal value can pin the counter; accept either verdict
        // but require the run to be analysable.
        match report {
            Ok(r) => assert!(r.rounds_recorded == 64),
            Err(SimError::NotStabilized { rounds, .. }) => assert_eq!(rounds, 64),
            Err(other) => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn two_faced_adversary_splits_followmax() {
        // With an equivocating fault, FollowMax (resilience 0) must be
        // breakable: the adversary feeds different maxima to the two halves.
        // This guards against a vacuously-strong simulator that fails to
        // deliver per-receiver messages.
        let p = FollowMax { n: 4, c: 1 << 20 };
        let adv = adversaries::random(&p, [0], 17);
        let mut sim = Simulation::new(&p, adv, 7);
        let trace = sim.run_trace(50);
        let some_disagreement = (0..trace.len()).any(|r| trace.agreed_value(r).is_none());
        assert!(some_disagreement, "per-receiver equivocation had no effect");
    }

    #[test]
    fn outputs_now_skips_faulty_nodes() {
        let p = FollowMax { n: 3, c: 4 };
        let adv = adversaries::crash(&p, [1], 0);
        let sim = Simulation::with_states(&p, adv, vec![1, 2, 3], 0);
        assert_eq!(sim.honest().len(), 2);
        assert_eq!(sim.outputs_now().len(), 2);
    }

    #[test]
    fn agreed_output_matches_outputs_now() {
        let p = FollowMax { n: 3, c: 4 };
        let sim = Simulation::with_states(&p, adversaries::none(), vec![2, 2, 2], 0);
        assert_eq!(sim.agreed_output_now(), Some(2));
        let sim = Simulation::with_states(&p, adversaries::none(), vec![2, 3, 2], 0);
        assert_eq!(sim.agreed_output_now(), None);
    }

    #[test]
    fn corrupt_keeps_both_buffers_consistent() {
        let p = FollowMax { n: 4, c: 16 };
        let adv = adversaries::crash(&p, [2], 1);
        let mut sim = Simulation::new(&p, adv, 3);
        sim.run(3);
        sim.corrupt_all(99);
        // The faulty placeholder must survive identically through further
        // stepping on either engine (it is broadcast via RoundContext).
        let placeholder = sim.states()[2];
        sim.run(2);
        assert_eq!(sim.states()[2], placeholder);
    }

    #[test]
    fn short_horizon_is_rejected_up_front() {
        let p = FollowMax { n: 5, c: 4 };
        let mut sim = Simulation::new(&p, adversaries::none(), 3);
        // required_confirmation(4) = 8 > horizon 5.
        match sim.run_until_stable(5) {
            Err(SimError::HorizonTooShort {
                horizon: 5,
                required: 8,
            }) => {}
            other => panic!("expected HorizonTooShort, got {other:?}"),
        }
        // The rejected run must not have consumed any rounds.
        assert_eq!(sim.round(), 0);
    }

    #[test]
    fn confirmation_requirement_is_clamped() {
        assert_eq!(required_confirmation(2), 8);
        assert_eq!(required_confirmation(6), 12);
        assert_eq!(required_confirmation(1_000), 128);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_initial_width_panics() {
        let p = FollowMax { n: 3, c: 4 };
        let _ = Simulation::with_states(&p, adversaries::none(), vec![0, 1], 0);
    }

    #[test]
    #[should_panic(expected = "outside the network")]
    fn out_of_range_fault_panics() {
        let p = FollowMax { n: 3, c: 4 };
        let adv = adversaries::fixed([7], 0u64);
        let _ = Simulation::new(&p, adv, 0);
    }

    #[test]
    #[should_panic(expected = "stay correct")]
    fn all_faulty_panics() {
        let p = FollowMax { n: 2, c: 4 };
        let adv = adversaries::fixed([0, 1], 0u64);
        let _ = Simulation::new(&p, adv, 0);
    }
}
