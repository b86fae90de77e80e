//! A library of generic Byzantine fault strategies.
//!
//! Self-stabilisation is a worst-case property, so no strategy library can
//! *prove* an algorithm correct — that is what the proven bounds and the
//! [`sc_verifier`-style](https://arxiv.org/abs/1304.5719) exhaustive checking
//! of small instances are for. These strategies instead provide strong,
//! qualitatively different stress patterns used across the test suite and the
//! experiment harness:
//!
//! * [`none`] — fault-free executions (sanity baseline),
//! * [`crash`] — faulty nodes freeze an arbitrary state forever,
//! * [`random`] — fresh arbitrary state per (sender, receiver, round),
//! * [`two_faced`] — classic equivocation: plausible-but-different honest
//!   states presented to the two halves of the network, attacking majority
//!   votes,
//! * [`replay`] — lagged copies of honest states, attacking counters
//!   specifically (stale counter values are plausible values),
//! * [`fixed`] — a caller-chosen constant state (building block for tests).
//!
//! All strategies speak the borrow-based message plane: they return
//! [`MessageSource`] leases, so echo/equivocation attacks deliver without a
//! single clone and fabricated states are materialised once per round (or
//! once per execution, for frozen values) into the engine's [`StatePool`].
//! The module also exports the strategy building blocks shared with the
//! advanced strategies ([`crate::sleeper`], [`crate::greedy`]) and
//! `sc-core::adversaries` — [`normalize_faults`], [`donor_id`] and the
//! parity-equivocation [`FacePair`] — so each pattern has exactly one
//! implementation in the workspace.
//!
//! Counter-*structure-aware* attacks (king impersonation, pointer splitting)
//! live in `sc-core::adversaries`, next to the state types they inspect.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_protocol::{MessageSource, NodeId, SyncProtocol};

use crate::adversary::{Adversary, AdversarySnapshot, RoundContext, SnapshotSupport};
use crate::workspace::StatePool;

/// Sorts, deduplicates and wraps raw faulty indices — the canonical
/// constructor-side normalisation every strategy in the workspace shares.
pub fn normalize_faults(faulty: impl IntoIterator<Item = usize>) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = faulty.into_iter().map(NodeId::new).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The `salt`-th correct node (rotating through the honest set) — the shared
/// donor-selection rule of echo, replay and structure-aware mirroring
/// strategies.
///
/// # Panics
///
/// Panics if no node is correct.
pub fn donor_id<S>(ctx: &RoundContext<'_, S>, salt: usize) -> NodeId {
    let count = ctx.honest_count().max(1);
    ctx.honest_ids()
        .nth(salt % count)
        .expect("at least one correct node")
}

/// A pair of per-round message leases assigned to receivers by index parity
/// — the shared core of every equivocation strategy ([`two_faced`],
/// [`crate::greedy`], `sc-core`'s `bad_king`).
#[derive(Clone, Copy, Debug)]
pub struct FacePair {
    /// Lease shown to even-indexed receivers.
    pub even: MessageSource,
    /// Lease shown to odd-indexed receivers.
    pub odd: MessageSource,
}

impl FacePair {
    /// The lease receiver `to` gets.
    #[inline]
    pub fn for_receiver(&self, to: NodeId) -> MessageSource {
        if to.index().is_multiple_of(2) {
            self.even
        } else {
            self.odd
        }
    }
}

/// The empty adversary: no faulty nodes at all.
///
/// # Example
///
/// ```
/// use sc_sim::{adversaries, Adversary};
///
/// let adv = adversaries::none();
/// assert!(<_ as Adversary<u64>>::faulty(&adv).is_empty());
/// ```
pub fn none() -> NoFaults {
    NoFaults { _priv: () }
}

/// Adversary with no faulty nodes. See [`none`].
#[derive(Clone, Debug)]
pub struct NoFaults {
    _priv: (),
}

impl<S> Adversary<S> for NoFaults {
    fn faulty(&self) -> &[NodeId] {
        &[]
    }

    fn message(
        &mut self,
        from: NodeId,
        _to: NodeId,
        _ctx: &RoundContext<'_, S>,
        _pool: &mut StatePool<S>,
    ) -> MessageSource {
        unreachable!("no faulty nodes, but a message was requested from {from}")
    }

    fn snapshot(&self, _round: u64, _out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // No faults, no state: the configuration is the correct nodes alone.
        SnapshotSupport::Deterministic
    }
}

/// Crash-style faults: each faulty node freezes an arbitrary state (sampled
/// once from the protocol's state space) and broadcasts it forever.
///
/// This is the *weakest* Byzantine behaviour — it cannot equivocate — and is
/// mainly useful to check that algorithms do not rely on faulty nodes
/// participating. On the borrowed message plane the frozen states are
/// pinned into the pool at the first round and leased from then on: the
/// whole execution materialises each of them exactly once.
pub fn crash<P: SyncProtocol>(
    protocol: &P,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> Crash<P::State> {
    let ids = normalize_faults(faulty);
    let mut rng = SmallRng::seed_from_u64(seed);
    let frozen = ids
        .iter()
        .map(|&id| protocol.random_state(id, &mut rng))
        .collect();
    Crash {
        faulty: ids,
        frozen,
        leases: Vec::new(),
    }
}

/// Adversary produced by [`crash`].
///
/// Deliberately not `Clone`: after the first round the frozen states have
/// been drained into one execution's pool, and a copy would hand out leases
/// against a pool that never issued them. Construct a fresh instance per
/// execution.
#[derive(Debug)]
pub struct Crash<S> {
    faulty: Vec<NodeId>,
    /// Frozen states, moved into the pool at the first `begin_round`.
    frozen: Vec<S>,
    /// Pinned leases, parallel to `faulty`, once issued.
    leases: Vec<MessageSource>,
}

impl<S: Clone + std::fmt::Debug> Adversary<S> for Crash<S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(&mut self, _ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        if !self.frozen.is_empty() {
            self.leases = self.frozen.drain(..).map(|s| pool.pin(s)).collect();
        }
    }

    fn message(
        &mut self,
        from: NodeId,
        _to: NodeId,
        _ctx: &RoundContext<'_, S>,
        _pool: &mut StatePool<S>,
    ) -> MessageSource {
        let idx = self
            .faulty
            .binary_search(&from)
            .expect("message requested from a non-faulty node");
        self.leases[idx]
    }

    fn snapshot(&self, _round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // Before the first round the frozen states are still queued; after,
        // they live in the execution's immutable pinned pool and the leases
        // are their faithful stand-ins.
        out.word(self.frozen.len() as u64);
        for (id, state) in self.faulty.iter().zip(&self.frozen) {
            out.state(*id, state);
        }
        for lease in &self.leases {
            out.source(*lease);
        }
        SnapshotSupport::Deterministic
    }
}

/// Fully random Byzantine noise: a fresh arbitrary state for every
/// (sender, receiver, round) triple.
///
/// Because states are drawn from the protocol's own state space they are
/// always *well-formed*, unlike bit-level garbage; this exercises every
/// decoding path without tripping validation. Fresh-per-pair fabrication is
/// the one behaviour the borrowed plane cannot amortise — this strategy is
/// the upper bound of the fabrication ledger.
pub fn random<P: SyncProtocol>(
    protocol: &P,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> FreshRandom<impl Fn(NodeId, &mut SmallRng) -> P::State + '_> {
    random_from(
        move |node, rng| protocol.random_state(node, rng),
        faulty,
        seed,
    )
}

/// Like [`random`], but drawing fabricated states from an arbitrary sampler
/// instead of a [`SyncProtocol`] — for protocols of other communication
/// models (e.g. the pulling model).
pub fn random_from<S, F: Fn(NodeId, &mut SmallRng) -> S>(
    sampler: F,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> FreshRandom<F> {
    FreshRandom {
        faulty: normalize_faults(faulty),
        rng: SmallRng::seed_from_u64(seed),
        sample: sampler,
    }
}

/// Like [`two_faced`], but drawing fallback states from an arbitrary sampler
/// instead of a [`SyncProtocol`].
pub fn two_faced_from<S, F: Fn(NodeId, &mut SmallRng) -> S>(
    sampler: F,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> TwoFaced<F> {
    TwoFaced {
        faulty: normalize_faults(faulty),
        rng: SmallRng::seed_from_u64(seed),
        sample: sampler,
        faces: None,
    }
}

/// Adversary produced by [`random`]; `F` is the state sampler, called —
/// statically dispatched — once per fabricated message.
pub struct FreshRandom<F> {
    faulty: Vec<NodeId>,
    rng: SmallRng,
    sample: F,
}

impl<F> std::fmt::Debug for FreshRandom<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreshRandom")
            .field("faulty", &self.faulty)
            .finish_non_exhaustive()
    }
}

impl<S, F: Fn(NodeId, &mut SmallRng) -> S> Adversary<S> for FreshRandom<F> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn message(
        &mut self,
        from: NodeId,
        _to: NodeId,
        _ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        pool.fabricate((self.sample)(from, &mut self.rng))
    }
}

/// Two-faced equivocation: each round the adversary picks two *honest donor
/// states* and presents one to even-indexed receivers and the other to
/// odd-indexed receivers.
///
/// Donor states are plausible in-protocol states, which is the strongest way
/// to attack majority votes: the faulty nodes appear to be correct members of
/// two different "camps", keeping the camps from converging. On the borrowed
/// plane both faces are [`MessageSource::Broadcast`] echoes of the donors —
/// the attack delivers `f × (n − f)` messages per round without cloning a
/// single state.
pub fn two_faced<P: SyncProtocol>(
    protocol: &P,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> TwoFaced<impl Fn(NodeId, &mut SmallRng) -> P::State + '_> {
    two_faced_from(
        move |node, rng| protocol.random_state(node, rng),
        faulty,
        seed,
    )
}

/// Adversary produced by [`two_faced`]; `F` samples the fallback states.
pub struct TwoFaced<F> {
    faulty: Vec<NodeId>,
    rng: SmallRng,
    sample: F,
    faces: Option<FacePair>,
}

impl<F> std::fmt::Debug for TwoFaced<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoFaced")
            .field("faulty", &self.faulty)
            .finish_non_exhaustive()
    }
}

impl<S, F: Fn(NodeId, &mut SmallRng) -> S> Adversary<S> for TwoFaced<F> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        let count = ctx.honest_count();
        let faces = if count == 0 {
            // Degenerate all-faulty network: fall back to sampled states.
            FacePair {
                even: pool.fabricate((self.sample)(NodeId::new(0), &mut self.rng)),
                odd: pool.fabricate((self.sample)(NodeId::new(0), &mut self.rng)),
            }
        } else {
            let ia = self.rng.random_range(0..count);
            let ib = self.rng.random_range(0..count);
            FacePair {
                even: MessageSource::Broadcast(donor_id(ctx, ia)),
                odd: MessageSource::Broadcast(donor_id(ctx, ib)),
            }
        };
        self.faces = Some(faces);
    }

    fn message(
        &mut self,
        _from: NodeId,
        to: NodeId,
        _ctx: &RoundContext<'_, S>,
        _pool: &mut StatePool<S>,
    ) -> MessageSource {
        self.faces
            .as_ref()
            .expect("begin_round not called")
            .for_receiver(to)
    }
}

/// Replay attack: faulty nodes echo honest states from `delay` rounds ago.
///
/// Stale counter states are plausible counter states, so this specifically
/// attacks the *increment* part of the counting specification.
///
/// The donor mapping (`to ↦ honest[to mod |honest|]`) is static for the
/// execution, so only the ~`|honest|` states that will actually be replayed
/// are snapshotted each round — one clone per donor — and when a snapshot
/// falls `delay − 1` rounds behind it is **moved** into the round pool and
/// leased, not cloned again. While the window is still warming up the
/// serving snapshot is the current broadcast (pure echo, no clone at all)
/// or the oldest ring entry (cloned at most once per donor per round).
pub fn replay<S: Clone>(faulty: impl IntoIterator<Item = usize>, delay: usize) -> Replay<S> {
    Replay {
        faulty: normalize_faults(faulty),
        delay: delay.max(1),
        ring: VecDeque::new(),
        spare: Vec::new(),
        honest: Vec::new(),
        donors: Vec::new(),
        slot_of: Vec::new(),
        leases: Vec::new(),
        serve: Serve::Current,
    }
}

/// Where this round's replayed states come from.
#[derive(Clone, Copy, Debug)]
enum Serve {
    /// The current broadcast (warm-up round 0, or `delay == 1`): echo.
    Current,
    /// The oldest ring snapshot, still warming up: clone per donor, once.
    Front,
    /// The retired snapshot, moved into the pool by `begin_round`.
    Retired,
}

/// Adversary produced by [`replay`].
#[derive(Clone, Debug)]
pub struct Replay<S> {
    faulty: Vec<NodeId>,
    delay: usize,
    /// The last `delay − 1` rounds' donor snapshots (each parallel to
    /// `donors`), oldest first.
    ring: VecDeque<Vec<S>>,
    /// Recycled snapshot buffers.
    spare: Vec<Vec<S>>,
    /// Correct node ids — static per execution, cached at the first round.
    honest: Vec<NodeId>,
    /// The distinct donor nodes, in slot order.
    donors: Vec<NodeId>,
    /// Node index → donor slot (`usize::MAX` for non-donors).
    slot_of: Vec<usize>,
    /// Per-donor-slot leases for the current round.
    leases: Vec<Option<MessageSource>>,
    serve: Serve,
}

impl<S: Clone + std::fmt::Debug> Adversary<S> for Replay<S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        if self.honest.is_empty() {
            // First round: the fault set is static, so the donor mapping is
            // computed once.
            self.honest.extend(ctx.honest_ids());
            self.slot_of = vec![usize::MAX; ctx.honest.len()];
            for &to in &self.honest {
                let donor = self.honest[to.index() % self.honest.len()];
                if self.slot_of[donor.index()] == usize::MAX {
                    self.slot_of[donor.index()] = self.donors.len();
                    self.donors.push(donor);
                }
            }
        }
        self.leases.clear();
        self.leases.resize(self.donors.len(), None);

        self.serve = if self.delay == 1 || self.ring.is_empty() {
            Serve::Current
        } else if self.ring.len() < self.delay - 1 {
            Serve::Front
        } else {
            // Steady state: the oldest snapshot is exactly `delay − 1`
            // rounds behind — move its states into the pool, no clones.
            let mut retired = self.ring.pop_front().expect("ring is non-empty");
            for (slot, state) in retired.drain(..).enumerate() {
                self.leases[slot] = Some(pool.fabricate(state));
            }
            self.spare.push(retired);
            Serve::Retired
        };

        if self.delay > 1 {
            // Snapshot this round's donor states for use `delay − 1` rounds
            // from now: one clone per donor, nothing else.
            let mut snapshot = self.spare.pop().unwrap_or_default();
            snapshot.clear();
            snapshot.extend(self.donors.iter().map(|d| ctx.honest[d.index()].clone()));
            self.ring.push_back(snapshot);
        }
    }

    fn message(
        &mut self,
        _from: NodeId,
        to: NodeId,
        _ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        // Echo a (possibly stale) honest state back at the receiver; pick the
        // donor deterministically so different receivers see different lags.
        assert!(
            !self.honest.is_empty(),
            "begin_round not called (or no correct nodes)"
        );
        let donor = self.honest[to.index() % self.honest.len()];
        match self.serve {
            Serve::Current => MessageSource::Broadcast(donor),
            Serve::Retired => {
                self.leases[self.slot_of[donor.index()]].expect("retired snapshot leased")
            }
            Serve::Front => {
                let slot = self.slot_of[donor.index()];
                let front = self.ring.front().expect("warm-up ring is non-empty");
                *self.leases[slot].get_or_insert_with(|| pool.fabricate(front[slot].clone()))
            }
        }
    }

    fn snapshot(&self, _round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // The donor mapping is static; the strategy's evolving state is the
        // ring of donor snapshots (the serve mode and the per-round leases
        // are recomputed from it every `begin_round`).
        out.word(self.delay as u64);
        out.word(self.ring.len() as u64);
        for snapshot in &self.ring {
            for (donor, state) in self.donors.iter().zip(snapshot) {
                out.state(*donor, state);
            }
        }
        SnapshotSupport::Deterministic
    }
}

/// Sends the caller-supplied state to every receiver in every round.
///
/// # Example
///
/// ```
/// use sc_sim::adversaries;
///
/// let adv = adversaries::fixed([1usize, 3], 99u64);
/// ```
pub fn fixed<S: Clone>(faulty: impl IntoIterator<Item = usize>, state: S) -> Fixed<S> {
    Fixed {
        faulty: normalize_faults(faulty),
        state: Some(state),
        lease: None,
    }
}

/// Adversary produced by [`fixed`].
///
/// Deliberately not `Clone` for the same reason as [`Crash`]: once pinned,
/// the lease belongs to one execution's pool.
#[derive(Debug)]
pub struct Fixed<S> {
    faulty: Vec<NodeId>,
    /// The constant state, moved into the pool at the first `begin_round`.
    state: Option<S>,
    lease: Option<MessageSource>,
}

impl<S: Clone + std::fmt::Debug> Adversary<S> for Fixed<S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(&mut self, _ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        if let Some(state) = self.state.take() {
            self.lease = Some(pool.pin(state));
        }
    }

    fn message(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _ctx: &RoundContext<'_, S>,
        _pool: &mut StatePool<S>,
    ) -> MessageSource {
        self.lease.expect("begin_round not called")
    }

    fn snapshot(&self, _round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // The constant state is either still queued or pinned immutably.
        if let Some(state) = &self.state {
            out.word(1);
            out.state(
                self.faulty.first().copied().unwrap_or(NodeId::new(0)),
                state,
            );
        } else {
            out.word(0);
        }
        if let Some(lease) = self.lease {
            out.source(lease);
        }
        SnapshotSupport::Deterministic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestRound;
    use rand::RngCore;
    use sc_protocol::{MessageView, StepContext, SyncProtocol};

    struct Toy;
    impl SyncProtocol for Toy {
        type State = u64;
        fn n(&self) -> usize {
            4
        }
        fn step(&self, _: NodeId, _: &MessageView<'_, u64>, _: &mut StepContext<'_>) -> u64 {
            0
        }
        fn output(&self, _: NodeId, s: &u64) -> u64 {
            *s
        }
        fn random_state(&self, _: NodeId, rng: &mut dyn RngCore) -> u64 {
            rng.next_u64() % 100
        }
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        assert_eq!(
            normalize_faults([3, 1, 3, 0]),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn face_pair_splits_by_parity() {
        let faces = FacePair {
            even: MessageSource::Pinned(0),
            odd: MessageSource::Pinned(1),
        };
        assert_eq!(faces.for_receiver(NodeId::new(0)), MessageSource::Pinned(0));
        assert_eq!(faces.for_receiver(NodeId::new(2)), MessageSource::Pinned(0));
        assert_eq!(faces.for_receiver(NodeId::new(3)), MessageSource::Pinned(1));
    }

    #[test]
    fn crash_always_sends_the_same_pinned_state() {
        let mut adv = crash(&Toy, [2], 9);
        let round = TestRound::new(vec![0u64; 4], [2]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let first = adv.message(NodeId::new(2), NodeId::new(0), &ctx, &mut pool);
        assert!(matches!(first, MessageSource::Pinned(_)));
        let value = *pool.resolve(round.honest(), first);
        for to in [0usize, 1, 3] {
            let src = adv.message(NodeId::new(2), NodeId::new(to), &ctx, &mut pool);
            assert_eq!(src, first);
            assert_eq!(*pool.resolve(round.honest(), src), value);
        }
        // Nothing was fabricated: the frozen state is pinned exactly once.
        assert_eq!(pool.fabricated_total(), 0);
        // Later rounds reuse the same pin.
        pool.begin_round();
        adv.begin_round(&round.ctx(1), &mut pool);
        let again = adv.message(NodeId::new(2), NodeId::new(1), &ctx, &mut pool);
        assert_eq!(again, first);
    }

    #[test]
    fn two_faced_splits_receivers_by_parity_without_fabricating() {
        let mut adv = two_faced(&Toy, [3], 5);
        let round = TestRound::new(vec![10u64, 20, 30, 40], [3]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let to_even = adv.message(NodeId::new(3), NodeId::new(0), &ctx, &mut pool);
        let to_even2 = adv.message(NodeId::new(3), NodeId::new(2), &ctx, &mut pool);
        let to_odd = adv.message(NodeId::new(3), NodeId::new(1), &ctx, &mut pool);
        assert_eq!(to_even, to_even2);
        // Faces are broadcast echoes of honest donors: zero fabrications.
        assert!(matches!(to_even, MessageSource::Broadcast(_)));
        assert!(matches!(to_odd, MessageSource::Broadcast(_)));
        assert_eq!(pool.fabricated_total(), 0);
        assert!(round
            .honest()
            .contains(pool.resolve(round.honest(), to_even)));
        assert!(round
            .honest()
            .contains(pool.resolve(round.honest(), to_odd)));
    }

    #[test]
    fn replay_serves_stale_states_fabricated_once_per_donor() {
        let mut adv = replay::<u64>([0], 2);
        let mut pool = StatePool::new();
        let r0 = TestRound::new(vec![1u64, 2, 3, 4], [0]);
        adv.begin_round(&r0.ctx(0), &mut pool);
        // Warm-up: the serving snapshot is the current broadcast — pure echo.
        let src = adv.message(NodeId::new(0), NodeId::new(2), &r0.ctx(0), &mut pool);
        assert!(matches!(src, MessageSource::Broadcast(_)));
        assert_eq!(pool.fabricated_total(), 0);

        let r1 = TestRound::new(vec![5u64, 6, 7, 8], [0]);
        pool.begin_round();
        adv.begin_round(&r1.ctx(1), &mut pool);
        let r2 = TestRound::new(vec![9u64, 10, 11, 12], [0]);
        pool.begin_round();
        adv.begin_round(&r2.ctx(2), &mut pool);
        // Window is 2 rounds: at round 2 the retiring snapshot is r1.
        let ctx = r2.ctx(2);
        let sent = adv.message(NodeId::new(0), NodeId::new(2), &ctx, &mut pool);
        assert!(r1.honest().contains(pool.resolve(r2.honest(), sent)));
        // Re-asking for the same receiver reuses the leased slot.
        let again = adv.message(NodeId::new(0), NodeId::new(2), &ctx, &mut pool);
        assert_eq!(sent, again);
        // Exactly one materialisation per donor per steady round — all of
        // them moves out of the retired snapshot, not clones (3 donors for
        // the 3 correct nodes here: rounds 1 and 2 each lease a snapshot).
        assert_eq!(pool.fabricated_total(), 3 + 3);
    }

    #[test]
    fn fixed_sends_supplied_state() {
        let mut adv = fixed([1], 77u64);
        let round = TestRound::new(vec![0u64; 2], [1]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &ctx, &mut pool);
        assert_eq!(*pool.resolve(round.honest(), src), 77);
        assert_eq!(pool.fabricated_total(), 0);
    }

    #[test]
    #[should_panic(expected = "no faulty nodes")]
    fn none_never_sends() {
        let mut adv = none();
        let round = TestRound::new(vec![0u64; 2], []);
        let mut pool = StatePool::new();
        let _ = adv.message(NodeId::new(0), NodeId::new(1), &round.ctx(0), &mut pool);
    }
}
