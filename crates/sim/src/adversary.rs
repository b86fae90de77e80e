//! The Byzantine adversary interface: the borrow-based message plane.

use sc_protocol::{BitVec, MessageSource, NodeId};

use crate::workspace::{FaultMask, StatePool};

/// Whether an adversary's internal state can be captured for configuration
/// fingerprinting (see [`Adversary::snapshot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotSupport {
    /// The strategy is a deterministic function of the written snapshot and
    /// the observable round state: two rounds with equal snapshots and equal
    /// correct-node configurations behave identically forever after.
    Deterministic,
    /// The strategy is RNG-driven (or otherwise not capturable); engines
    /// must not take cycle-based early exits under it.
    Opaque,
}

/// Write-side of [`Adversary::snapshot`]: a bit-exact sink for the
/// adversary's round-relevant internal state.
///
/// The engine backs the writer with the protocol's state digest
/// ([`Fingerprint::fingerprint_state`](sc_protocol::Fingerprint)), so
/// snapshots that contain protocol states (a replay ring, a sleeper's
/// honestly simulated states) are encoded with the same injective codec as
/// the configuration itself.
pub struct AdversarySnapshot<'a, S> {
    bits: &'a mut BitVec,
    encode: &'a mut dyn FnMut(NodeId, &S, &mut BitVec),
}

impl<S> std::fmt::Debug for AdversarySnapshot<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdversarySnapshot")
            .field("bits", &self.bits.len())
            .finish_non_exhaustive()
    }
}

impl<'a, S> AdversarySnapshot<'a, S> {
    /// A writer appending to `bits`, digesting states through `encode`.
    pub fn new(bits: &'a mut BitVec, encode: &'a mut dyn FnMut(NodeId, &S, &mut BitVec)) -> Self {
        AdversarySnapshot { bits, encode }
    }

    /// Appends a raw 64-bit word (counters, flags, schedule positions).
    pub fn word(&mut self, value: u64) {
        self.bits.push_bits(value, 64);
    }

    /// Appends the digest of a protocol state held by the adversary,
    /// encoded as belonging to `node` (the codec may be node-dependent).
    pub fn state(&mut self, node: NodeId, state: &S) {
        (self.encode)(node, state, self.bits);
    }
}

/// Everything the adversary can observe about one round.
///
/// The adversary of the paper is *omniscient* (it sees the full state of all
/// correct nodes), *adaptive* (it may choose messages based on that state)
/// and *rushing* (it acts after seeing the honest broadcasts of the current
/// round — which is what `honest` contains).
#[derive(Debug)]
pub struct RoundContext<'a, S> {
    /// Round number, counted from the (arbitrary) initial configuration.
    /// Only for bookkeeping: protocols never see it.
    pub round: u64,
    /// States broadcast by all nodes this round. Entries of faulty nodes are
    /// stale placeholders and carry no meaning.
    pub honest: &'a [S],
    /// Sorted identifiers of the faulty nodes.
    pub faulty: &'a [NodeId],
    /// Bitmap over the network with exactly the nodes of `faulty` set —
    /// engines precompute it once per execution so
    /// [`RoundContext::is_faulty`] is an O(1) word lookup instead of a
    /// per-call `binary_search`.
    pub mask: &'a FaultMask,
}

impl<'a, S> RoundContext<'a, S> {
    /// Whether `node` is faulty in this execution (O(1) bitmap lookup).
    #[inline]
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.mask.contains(node.index())
    }

    /// Iterates over the identifiers of correct nodes, filtering through the
    /// precomputed fault bitmap — no per-item search.
    pub fn honest_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.honest.len())
            .map(NodeId::new)
            .filter(move |id| !self.mask.contains(id.index()))
    }

    /// Number of correct nodes this round.
    pub fn honest_count(&self) -> usize {
        self.honest.len() - self.faulty.len()
    }
}

/// A Byzantine fault strategy: decides, for every round, which state each
/// faulty node presents to each receiver.
///
/// Implementations may keep history (for replay attacks) and use their own
/// randomness. The simulator calls [`Adversary::begin_round`] once per round
/// before delivering messages, then [`Adversary::message`] once per
/// (faulty sender, correct receiver) pair.
///
/// # The borrow-based message plane
///
/// [`Adversary::message`] does **not** return an owned state; it returns a
/// [`MessageSource`] lease the engine resolves zero-copy when building the
/// receiver's view:
///
/// * [`MessageSource::Broadcast`] echoes a state broadcast this round —
///   equivocation and echo attacks permute *existing* honest states without
///   a single clone;
/// * [`MessageSource::Pinned`] / [`MessageSource::Fabricated`] name slots of
///   the engine's [`StatePool`], where genuinely fabricated states are
///   materialised once per execution ([`StatePool::pin`]) or once per round
///   ([`StatePool::fabricate`]) — never once per receiver.
///
/// Leases are pool-specific: an adversary instance drives exactly one
/// execution, and tokens must not be carried across executions.
///
/// The set of faulty nodes is fixed for an execution — the paper's fault
/// model is static (`F ⊆ [n]`, `|F| ≤ f`), and self-stabilisation covers
/// "recovery after the last transient fault" by the arbitrary initial state.
pub trait Adversary<S> {
    /// The sorted, duplicate-free set of faulty nodes.
    fn faulty(&self) -> &[NodeId];

    /// Hook invoked once at the start of every round, before any
    /// [`Adversary::message`] call for that round. The engine has already
    /// recycled the round half of `pool`; states this round's messages
    /// share should be fabricated here, once.
    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        let _ = (ctx, pool);
    }

    /// The lease for the state faulty node `from` sends to correct node
    /// `to` this round.
    fn message(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource;

    /// The **snapshot capability** of the early-decision engine: writes the
    /// strategy's round-relevant internal state into `out` and says whether
    /// that capture is faithful.
    ///
    /// `round` is the number of completed rounds — the index the *next*
    /// [`Adversary::begin_round`] will observe. Time-dependent strategies
    /// (a sleeper waking at a fixed round) must fold the remaining distance
    /// to their trigger into the snapshot, so that configurations at
    /// different absolute times never alias.
    ///
    /// Returning [`SnapshotSupport::Deterministic`] asserts: within one
    /// execution, two rounds with equal snapshots and equal correct-node
    /// configurations are followed by identical decisions in all future
    /// rounds. Pinned states count as decided: a strategy that pins a state
    /// on first use need not fold whether it has pinned it yet. RNG-driven strategies keep the default
    /// [`SnapshotSupport::Opaque`], which soundly disables cycle-based early
    /// exits for the execution.
    fn snapshot(&self, round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        let _ = (round, out);
        SnapshotSupport::Opaque
    }

    /// The **ledger projection** of the closure exit: the exact number of
    /// states this strategy fabricates through [`StatePool::fabricate`] in
    /// every round from the next one on, in an `n`-node network — pinned
    /// states and echoes do not count, as in the ledger itself.
    ///
    /// An engine that stops a run early because the correct nodes are
    /// provably closed ([`Counter::closed`](sc_protocol::Counter::closed))
    /// adds `rate × rounds skipped` to the fabrication ledger, so the
    /// ledger equals the full-horizon one. `None` (the default) means the
    /// count is not known in advance — it depends on the states, the round
    /// or the random draws — and keeps such runs at their full horizon.
    fn fabrication_per_round(&self, n: usize) -> Option<u64> {
        let _ = n;
        None
    }
}

impl<S, A: Adversary<S> + ?Sized> Adversary<S> for Box<A> {
    fn faulty(&self) -> &[NodeId] {
        (**self).faulty()
    }

    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        (**self).begin_round(ctx, pool);
    }

    fn message(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        (**self).message(from, to, ctx, pool)
    }

    fn snapshot(&self, round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        (**self).snapshot(round, out)
    }

    fn fabrication_per_round(&self, n: usize) -> Option<u64> {
        (**self).fabrication_per_round(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_context_classifies_nodes() {
        let honest = vec![0u64; 4];
        let faulty = vec![NodeId::new(2)];
        let mask = FaultMask::from_sorted(&faulty, honest.len());
        let ctx = RoundContext {
            round: 0,
            honest: &honest,
            faulty: &faulty,
            mask: &mask,
        };
        assert!(ctx.is_faulty(NodeId::new(2)));
        assert!(!ctx.is_faulty(NodeId::new(0)));
        assert_eq!(ctx.honest_count(), 3);
        let ids: Vec<usize> = ctx.honest_ids().map(NodeId::index).collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }
}
