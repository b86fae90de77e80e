//! Shared test fixtures (not part of the public API; see `#[doc(hidden)]`
//! on the module re-export).

use rand::RngCore;
use sc_protocol::{
    bits_for, BitReader, BitVec, Broadcast, CodecError, Counter, MessageView, NodeId,
    PreparedProtocol, StepContext, SyncProtocol,
};

use crate::adversary::RoundContext;
use crate::sliced::{RoundProgramSource, SlicedProtocol};
use crate::workspace::FaultMask;

/// Owns everything a [`RoundContext`] borrows — broadcast states, the sorted
/// fault set and its [`FaultMask`] — so adversary unit tests can mint
/// contexts without hand-wiring the bitmap. The [`StatePool`] deliberately
/// stays outside (tests hold it mutably while a context is alive).
///
/// [`StatePool`]: crate::StatePool
#[derive(Clone, Debug)]
pub struct TestRound<S> {
    honest: Vec<S>,
    faulty: Vec<NodeId>,
    mask: FaultMask,
}

impl<S> TestRound<S> {
    /// A round broadcasting `honest` with the given faulty indices.
    pub fn new(honest: Vec<S>, faulty: impl IntoIterator<Item = usize>) -> Self {
        let faulty = crate::adversaries::normalize_faults(faulty);
        let mask = FaultMask::from_sorted(&faulty, honest.len());
        TestRound {
            honest,
            faulty,
            mask,
        }
    }

    /// The broadcast state vector.
    pub fn honest(&self) -> &[S] {
        &self.honest
    }

    /// A context for round number `round`.
    pub fn ctx(&self, round: u64) -> RoundContext<'_, S> {
        RoundContext {
            round,
            honest: &self.honest,
            faulty: &self.faulty,
            mask: &self.mask,
        }
    }
}

/// Zero-resilience max-follower counter: every correct node adopts
/// `max(received) + 1 mod c`.
///
/// The workhorse fixture of the engine test suites — every received value
/// influences the next state, so any divergence in message delivery,
/// override handling, or buffer management shows up in the states
/// immediately; and with an equivocating fault it *must* be breakable,
/// guarding against vacuously-strong simulators.
pub struct FollowMax {
    /// Network size.
    pub n: usize,
    /// Counter modulus.
    pub c: u64,
}

impl SyncProtocol for FollowMax {
    type State = u64;

    fn n(&self) -> usize {
        self.n
    }

    fn step(&self, _: NodeId, view: &MessageView<'_, u64>, _: &mut StepContext<'_>) -> u64 {
        let max = view.iter().max().copied().unwrap();
        (max + 1) % self.c
    }

    fn output(&self, _: NodeId, s: &u64) -> u64 {
        *s
    }

    fn random_state(&self, _: NodeId, rng: &mut dyn RngCore) -> u64 {
        rng.next_u64() % self.c
    }
}

impl Counter for FollowMax {
    fn modulus(&self) -> u64 {
        self.c
    }

    fn resilience(&self) -> usize {
        0
    }

    fn state_bits(&self) -> u32 {
        bits_for(self.c)
    }

    fn stabilization_bound(&self) -> u64 {
        1
    }

    fn encode_state(&self, _: NodeId, s: &u64, out: &mut BitVec) {
        out.push_bits(*s, self.state_bits());
    }

    fn decode_state(&self, _: NodeId, input: &mut BitReader<'_>) -> Result<u64, CodecError> {
        input.read_bits(self.state_bits())
    }

    fn deterministic_transition(&self) -> bool {
        // `step` is max+1 over the view: pure, no randomness consumed.
        true
    }
}

/// Nothing to hoist: the prepared path is the plain step, so the suites
/// can drive both `Batch` paths on the fixture.
impl PreparedProtocol for FollowMax {
    type RoundPrep = ();

    fn prepare_round(&self, _: Broadcast<'_, u64>, _: &[NodeId]) {}

    fn step_prepared(
        &self,
        node: NodeId,
        view: &MessageView<'_, u64>,
        _: &mut (),
        ctx: &mut StepContext<'_>,
    ) -> u64 {
        self.step(node, view, ctx)
    }
}

/// A counter that is never [closed](Counter::closed): it delegates
/// everything else to the wrapped protocol, so its runs are the wrapped
/// protocol's with the closure exit disabled — the way suites reach the
/// cycle exit (or a full horizon) on counters that close first.
#[derive(Clone, Copy, Debug)]
pub struct NeverClosed<'a, P>(pub &'a P);

impl<P: SyncProtocol> SyncProtocol for NeverClosed<'_, P> {
    type State = P::State;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn step(
        &self,
        node: NodeId,
        view: &MessageView<'_, P::State>,
        ctx: &mut StepContext<'_>,
    ) -> P::State {
        self.0.step(node, view, ctx)
    }

    fn output(&self, node: NodeId, state: &P::State) -> u64 {
        self.0.output(node, state)
    }

    fn random_state(&self, node: NodeId, rng: &mut dyn RngCore) -> P::State {
        self.0.random_state(node, rng)
    }
}

impl<P: Counter> Counter for NeverClosed<'_, P> {
    fn modulus(&self) -> u64 {
        self.0.modulus()
    }

    fn resilience(&self) -> usize {
        self.0.resilience()
    }

    fn state_bits(&self) -> u32 {
        self.0.state_bits()
    }

    fn stabilization_bound(&self) -> u64 {
        self.0.stabilization_bound()
    }

    fn encode_state(&self, node: NodeId, state: &P::State, out: &mut BitVec) {
        self.0.encode_state(node, state, out);
    }

    fn decode_state(
        &self,
        node: NodeId,
        input: &mut BitReader<'_>,
    ) -> Result<P::State, CodecError> {
        self.0.decode_state(node, input)
    }

    fn deterministic_transition(&self) -> bool {
        self.0.deterministic_transition()
    }
}

impl<P: PreparedProtocol> PreparedProtocol for NeverClosed<'_, P> {
    type RoundPrep = P::RoundPrep;

    fn prepare_round(&self, base: Broadcast<'_, P::State>, faulty: &[NodeId]) -> P::RoundPrep {
        self.0.prepare_round(base, faulty)
    }

    fn refill_round(
        &self,
        prep: &mut P::RoundPrep,
        base: Broadcast<'_, P::State>,
        faulty: &[NodeId],
    ) {
        self.0.refill_round(prep, base, faulty);
    }

    fn step_prepared(
        &self,
        node: NodeId,
        view: &MessageView<'_, P::State>,
        prep: &mut P::RoundPrep,
        ctx: &mut StepContext<'_>,
    ) -> P::State {
        self.0.step_prepared(node, view, prep, ctx)
    }
}

/// The wrapped protocol's sliced model; its lanes are never closed
/// ([`SlicedProtocol::closed_lanes`]'s default), so sliced sweeps run every
/// lane to the horizon.
impl<P: SlicedProtocol> SlicedProtocol for NeverClosed<'_, P> {
    fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>> {
        self.0.sliced_model(faulty)
    }
}
