//! The bridge from the pulling model onto the shared zero-copy engine.
//!
//! The pulling model's earlier private simulator duplicated the round loop,
//! fault bookkeeping and stabilisation plumbing of `sc-sim`. [`Pulled`]
//! replaces it: a pull protocol becomes an ordinary
//! [`SyncProtocol`] whose transition *reads only the planned entries* of its
//! [`MessageView`] — a pull request is a receiver-selected projection of the
//! borrowed message plane. Faulty targets answer through the adversary's
//! per-(sender, receiver) [`MessageSource`](sc_protocol::MessageSource)
//! leases exactly like broadcast equivocation, so the whole `sc-sim` stack
//! ([`Simulation`](sc_sim::Simulation), [`Batch`](sc_sim::Batch), the
//! streaming [`OnlineDetector`](sc_sim::OnlineDetector)) drives pulling
//! executions unchanged.
//!
//! One modelling note: on the shared plane a faulty node presents one state
//! per (sender, receiver, round). The old simulator let it answer each
//! *request* of one puller differently; since a correct node's plan never
//! gains information from asking twice, per-pair equivocation is the
//! behaviour the §5 analysis actually uses.
//!
//! Stabilisation sweeps ([`Simulation::run_until_stable`](sc_sim::Simulation::run_until_stable),
//! [`Batch`](sc_sim::Batch)) need the modulus and therefore a
//! [`Counter`] impl, provided here for `Pulled<'_, PullCounter>`. A custom
//! [`PullProtocol`] without a `Counter` impl still gets the full engine via
//! [`Simulation::run_trace`](sc_sim::Simulation::run_trace) +
//! [`detect_stabilization`](sc_sim::detect_stabilization) with an explicit
//! modulus — the moral equivalent of the old two-argument
//! `run_until_stable`.

use std::cell::Cell;

use rand::RngCore;
use sc_protocol::{
    BitReader, BitVec, CodecError, Counter, MessageView, NodeId, StepContext, SyncProtocol,
};

use crate::counter::PullCounter;
use crate::protocol::{PullProtocol, PullResponses};

std::thread_local! {
    /// Reusable pull-plan buffer: one per worker thread, recycled across
    /// rounds and scenarios, so [`Pulled::step`] performs no heap
    /// allocation after the first round on a thread. Taken out of the cell
    /// around the step (leaving an empty `Vec` behind), which keeps the
    /// pattern safe under reentrancy — a protocol-simulating adversary
    /// stepping `Pulled` from inside its hooks simply starts a fresh buffer.
    static PLAN_SCRATCH: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// The receiver-selected projection of the borrowed message plane: response
/// `i` of the plan is `view.get(plan[i])` — a borrow out of the engine's
/// state buffer or the adversary pool, looked up on demand, never collected.
struct ViewResponses<'p, 'v, S> {
    plan: &'p [NodeId],
    view: &'p MessageView<'v, S>,
}

impl<S> PullResponses<S> for ViewResponses<'_, '_, S> {
    fn len(&self) -> usize {
        self.plan.len()
    }

    fn target(&self, i: usize) -> NodeId {
        self.plan[i]
    }

    fn state(&self, i: usize) -> &S {
        self.view.get(self.plan[i])
    }
}

/// A [`PullProtocol`] viewed as a broadcast-model [`SyncProtocol`]: each
/// node's transition draws its pull plan and then projects exactly the
/// planned entries out of the received view.
///
/// The wrapper is a borrow ([`Copy`]), so it can be minted on the fly:
///
/// ```
/// use sc_core::CounterBuilder;
/// use sc_pulling::{PullCounter, Pulled, Sampling};
/// use sc_sim::{adversaries, Simulation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let algo = CounterBuilder::corollary1(1, 8)?.build()?;
/// let pc = PullCounter::from_algorithm(&algo, Sampling::Full)?;
/// let pulled = Pulled::new(&pc);
/// let mut sim = Simulation::new(&pulled, adversaries::none(), 3);
/// let report = sim.run_until_stable(pc.stabilization_bound() + 64)?;
/// assert!(report.stabilization_round <= pc.stabilization_bound());
/// assert_eq!(pulled.pulls_per_round(), 3); // N − 1 targets in full mode
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Pulled<'a, P> {
    protocol: &'a P,
}

impl<'a, P: PullProtocol> Pulled<'a, P> {
    /// Wraps a pull protocol for the shared engine.
    pub fn new(protocol: &'a P) -> Self {
        Pulled { protocol }
    }

    /// The underlying pull protocol.
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// Pulls a correct node issues per round — the §5 message complexity.
    ///
    /// Plans have a statically known length ([`PullProtocol::plan_len`]),
    /// so this is exact, not an observed maximum.
    pub fn pulls_per_round(&self) -> usize {
        self.protocol.plan_len()
    }
}

impl<'a, P: PullProtocol> SyncProtocol for Pulled<'a, P> {
    type State = P::State;

    fn n(&self) -> usize {
        self.protocol.n()
    }

    fn step(
        &self,
        node: NodeId,
        view: &MessageView<'_, Self::State>,
        ctx: &mut StepContext<'_>,
    ) -> Self::State {
        let me = view.get(node);
        // The plan buffer is recycled thread-locally and the responses are
        // a view-backed projection: the whole pulling round performs zero
        // heap traffic in this adapter.
        let mut plan = PLAN_SCRATCH.take();
        plan.clear();
        self.protocol.plan_into(node, me, ctx.rng, &mut plan);
        debug_assert_eq!(
            plan.len(),
            self.protocol.plan_len(),
            "plan length must be static"
        );
        let responses = ViewResponses { plan: &plan, view };
        let next = self.protocol.pull_step(node, me, &responses, ctx);
        PLAN_SCRATCH.set(plan);
        next
    }

    fn output(&self, node: NodeId, state: &Self::State) -> u64 {
        self.protocol.output(node, state)
    }

    fn random_state(&self, node: NodeId, rng: &mut dyn RngCore) -> Self::State {
        self.protocol.random_state(node, rng)
    }
}

impl<'a> Counter for Pulled<'a, PullCounter> {
    fn modulus(&self) -> u64 {
        self.protocol.modulus()
    }

    fn resilience(&self) -> usize {
        self.protocol.resilience()
    }

    fn state_bits(&self) -> u32 {
        self.protocol.state_bits()
    }

    fn stabilization_bound(&self) -> u64 {
        self.protocol.stabilization_bound()
    }

    fn encode_state(&self, node: NodeId, state: &Self::State, out: &mut BitVec) {
        self.protocol.encode_state(node, state, out);
    }

    fn decode_state(
        &self,
        node: NodeId,
        input: &mut BitReader<'_>,
    ) -> Result<Self::State, CodecError> {
        self.protocol.decode_state(node, input)
    }

    fn deterministic_transition(&self) -> bool {
        // A pulling round is deterministic exactly when every level's plan
        // is: full pulling, or the pseudo-random variant's fixed samples
        // (Corollary 5). Fresh-sampling levels (Theorem 4) draw their plan
        // from the step RNG, so they opt out and early-decision sweeps fall
        // back to the full horizon — soundness is typed, not assumed.
        self.protocol.deterministic_plans()
    }
}
