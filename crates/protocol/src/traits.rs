//! Protocol and counter traits.

use std::fmt;

use rand::RngCore;

use crate::{BitReader, BitVec, Broadcast, CodecError, MessageView, NodeId};

/// Per-step execution context handed to a protocol by the simulator.
///
/// Carries the entropy source used by *randomised* protocols (e.g. the
/// baseline counters of Table 1 rows \[6,7\]). Deterministic algorithms — in
/// particular every counter built by the constructions of §3–§4 — must not
/// consume randomness; tests enforce this by replaying executions with
/// different seeds.
pub struct StepContext<'a> {
    /// Entropy source for randomised protocols.
    pub rng: &'a mut dyn RngCore,
}

impl<'a> StepContext<'a> {
    /// Creates a context drawing randomness from `rng`.
    pub fn new(rng: &'a mut dyn RngCore) -> Self {
        StepContext { rng }
    }
}

impl fmt::Debug for StepContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepContext").finish_non_exhaustive()
    }
}

/// A synchronous full-information protocol `A = (X, g, h)` (§2).
///
/// One instance describes the behaviour of *all* `n` nodes; per-node
/// behaviour is selected by the [`NodeId`] argument (the paper's transition
/// function `g : [n] × Xⁿ → X` and output function `h : [n] × X → [c]`).
///
/// Implementations must be **round-oblivious**: `step` receives no round
/// number, because self-stabilising algorithms cannot assume a shared notion
/// of time — that is precisely what a synchronous counter constructs.
///
/// # Example
///
/// A one-node modulo-`c` counter (the trivial base case of Corollary 1):
///
/// ```
/// use rand::RngCore;
/// use sc_protocol::{MessageView, NodeId, StepContext, SyncProtocol};
///
/// struct Trivial {
///     c: u64,
/// }
///
/// impl SyncProtocol for Trivial {
///     type State = u64;
///
///     fn n(&self) -> usize {
///         1
///     }
///
///     fn step(&self, node: NodeId, view: &MessageView<'_, u64>, _: &mut StepContext<'_>) -> u64 {
///         (view.get(node) + 1) % self.c
///     }
///
///     fn output(&self, _: NodeId, state: &u64) -> u64 {
///         *state
///     }
///
///     fn random_state(&self, _: NodeId, rng: &mut dyn RngCore) -> u64 {
///         rng.next_u64() % self.c
///     }
/// }
///
/// let t = Trivial { c: 3 };
/// assert_eq!(t.output(NodeId::new(0), &2), 2);
/// ```
pub trait SyncProtocol {
    /// Local node state (the paper's `X`).
    type State: Clone + fmt::Debug;

    /// Number of nodes the protocol is defined for.
    fn n(&self) -> usize;

    /// The transition function `g(node, x)`: computes the next state of
    /// `node` from the received state vector `view`.
    fn step(
        &self,
        node: NodeId,
        view: &MessageView<'_, Self::State>,
        ctx: &mut StepContext<'_>,
    ) -> Self::State;

    /// The output function `h(node, state)`.
    fn output(&self, node: NodeId, state: &Self::State) -> u64;

    /// Samples an arbitrary (adversarially chosen) state for `node`.
    ///
    /// Self-stabilisation quantifies over *all* initial states; simulators
    /// and adversaries use this to draw them. Implementations must be able to
    /// return every reachable state with positive probability, and may return
    /// unreachable-but-representable states too (the adversary controls raw
    /// memory contents at start-up).
    fn random_state(&self, node: NodeId, rng: &mut dyn RngCore) -> Self::State;
}

/// A self-stabilising synchronous `c`-counter with resilience `f` (§2).
///
/// Beyond the raw protocol this exposes the quantities the paper analyses:
/// the counter modulus `c`, the resilience `f`, the proven stabilisation-time
/// bound `T(A)`, the space bound `S(A)` in bits, and a bit-exact state codec
/// whose width must equal `S(A)` — tests across the workspace assert this.
pub trait Counter: SyncProtocol {
    /// Counter modulus `c`: outputs eventually count `0, 1, …, c−1, 0, …`.
    fn modulus(&self) -> u64;

    /// Resilience `f`: the maximum number of Byzantine nodes tolerated.
    fn resilience(&self) -> usize;

    /// Proven space bound `S(A)` in bits per node.
    fn state_bits(&self) -> u32;

    /// Proven stabilisation-time bound `T(A)` in rounds, valid for every
    /// initial configuration and every admissible adversary.
    fn stabilization_bound(&self) -> u64;

    /// Encodes `state` into exactly [`Counter::state_bits`] bits.
    fn encode_state(&self, node: NodeId, state: &Self::State, out: &mut BitVec);

    /// Decodes a state previously produced by [`Counter::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bit string is too short or a field
    /// is outside its domain.
    fn decode_state(
        &self,
        node: NodeId,
        input: &mut BitReader<'_>,
    ) -> Result<Self::State, CodecError>;
}

/// A counter whose executions can be **fingerprinted** for sound
/// early-decision sweeps.
///
/// `run_until_stable`-style sweeps execute a full `bound + margin` horizon
/// even though the execution typically stabilises two orders of magnitude
/// earlier. When the protocol's transition is *deterministic* (and the
/// adversary's strategy is too — see `sc-sim`'s `AdversarySnapshot`), the
/// joint (states, adversary) configuration evolves on a finite graph: once
/// a configuration recurs, the suffix is a proven cycle and the remaining
/// rounds can be replayed algebraically instead of executed — the same
/// closed-execution argument the exhaustive verifier exploits on small
/// instances.
///
/// This trait provides the two ingredients an engine needs to do that
/// soundly:
///
/// * [`Fingerprint::deterministic_transition`] — a **typed marker** that
///   [`SyncProtocol::step`] is a pure function of the received view and
///   consumes no randomness from its [`StepContext`]. Randomised protocols
///   (and deterministic adapters over randomised plans, e.g. the pulling
///   model's fresh-sampling mode) must return `false`, which disables the
///   early exit — soundness is typed, not assumed.
/// * [`Fingerprint::fingerprint_state`] — a bit-exact digest of one node's
///   state, by default the counter's own codec: two states of the same node
///   digest equally **iff** they are equal. Engines compare full encodings
///   on every hash hit, so a configuration match is exact, never
///   probabilistic.
///
/// # Contract
///
/// If `deterministic_transition` returns `true`, then for every node and
/// every view, `step` must return the same state on every invocation and
/// must leave the [`StepContext`] entropy source untouched. Violating this
/// makes cycle-based early exits unsound; the `early_decision` test suites
/// replay early verdicts against full-horizon verdicts bitwise to guard the
/// implementations in this workspace.
pub trait Fingerprint: Counter {
    /// Whether [`SyncProtocol::step`] is deterministic (consumes no
    /// randomness), making configuration recurrence a proof of periodicity.
    fn deterministic_transition(&self) -> bool;

    /// Appends a bit-exact digest of `node`'s `state` to `out`.
    ///
    /// The default digest is the counter codec ([`Counter::encode_state`]),
    /// which round-trips by contract and is therefore injective on
    /// representable states. Override only with another injective encoding
    /// (e.g. to fingerprint auxiliary fields the codec deliberately omits).
    fn fingerprint_state(&self, node: NodeId, state: &Self::State, out: &mut BitVec) {
        self.encode_state(node, state, out);
    }
}

/// A protocol whose transition factors into a **receiver-independent
/// per-round precomputation** plus a cheap per-receiver step.
///
/// In the broadcast model all receivers observe the *same* honest states;
/// only the ≤ `f` Byzantine entries differ per receiver. Protocols built
/// from majority votes (the boosting construction of §3) therefore repeat
/// almost identical tallies `n` times per round. This trait lets a batched
/// execution engine hoist that shared work: it calls
/// [`prepare_round`](PreparedProtocol::prepare_round) once per round on the
/// honest broadcast and then
/// [`step_prepared`](PreparedProtocol::step_prepared) per receiver, which
/// only patches the faulty senders' contributions in.
///
/// # Contract
///
/// For every round, `step_prepared(v, view, prep, ctx)` must return exactly
/// what `step(v, view, ctx)` returns, consume the same amount of
/// randomness, and leave `prep` logically unchanged (patch-and-undo). The
/// `engine_equivalence` tests enforce this bitwise on the paper's counters.
pub trait PreparedProtocol: SyncProtocol {
    /// The shared per-round precomputation. An engine keeps one for a
    /// whole execution, so it borrows nothing from a round.
    type RoundPrep: 'static;

    /// Builds the round's shared state from the broadcast vector `base`
    /// (faulty entries are placeholders and must be ignored) and the sorted
    /// fault set. [`Broadcast`] carries either the engine's contiguous
    /// buffer or a ref projection, so neither engines nor recursive
    /// constructions clone or reallocate states to call this.
    fn prepare_round(&self, base: Broadcast<'_, Self::State>, faulty: &[NodeId])
        -> Self::RoundPrep;

    /// Brings `prep` — built by
    /// [`prepare_round`](PreparedProtocol::prepare_round) for the same fault
    /// set — up to the next round's broadcast, so that what one execution
    /// never changes (the fault layout, buffer capacity) is computed and
    /// allocated once. Must leave `prep` equal to a fresh `prepare_round`;
    /// the default is exactly that.
    fn refill_round(
        &self,
        prep: &mut Self::RoundPrep,
        base: Broadcast<'_, Self::State>,
        faulty: &[NodeId],
    ) {
        *prep = self.prepare_round(base, faulty);
    }

    /// The transition of `node`, using — and restoring — the shared
    /// precomputation.
    fn step_prepared(
        &self,
        node: NodeId,
        view: &MessageView<'_, Self::State>,
        prep: &mut Self::RoundPrep,
        ctx: &mut StepContext<'_>,
    ) -> Self::State;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Minimal protocol used to exercise the trait plumbing.
    struct Echo {
        n: usize,
    }

    impl SyncProtocol for Echo {
        type State = u64;

        fn n(&self) -> usize {
            self.n
        }

        fn step(
            &self,
            node: NodeId,
            view: &MessageView<'_, u64>,
            _ctx: &mut StepContext<'_>,
        ) -> u64 {
            *view.get(node)
        }

        fn output(&self, _node: NodeId, state: &u64) -> u64 {
            *state
        }

        fn random_state(&self, _node: NodeId, rng: &mut dyn RngCore) -> u64 {
            rng.next_u64()
        }
    }

    #[test]
    fn step_context_passes_rng_through() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Echo { n: 2 };
        let states = vec![11u64, 22];
        let view = MessageView::new(&states, &[]);
        let mut ctx = StepContext::new(&mut rng);
        assert_eq!(p.step(NodeId::new(1), &view, &mut ctx), 22);
    }

    #[test]
    fn random_state_uses_supplied_entropy() {
        let p = Echo { n: 1 };
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        assert_eq!(
            p.random_state(NodeId::new(0), &mut a),
            p.random_state(NodeId::new(0), &mut b)
        );
    }
}
