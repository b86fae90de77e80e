//! The library-grade scripted adversary: executes any [`Script`] on the
//! live engine, with full snapshot support so scripted runs ride the
//! early-decision exit.

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterState};
use sc_protocol::{NodeId, SyncProtocol};
use sc_sim::adversaries::normalize_faults;
use sc_sim::{FacedAdversary, PackedInit};

use crate::script::Script;
use crate::sliced::{raw_vocabulary, SlicedScript};

/// The raw state vocabulary [`Move::Raw`](crate::Move::Raw) indexes into:
/// a deterministic map from a byte to a protocol state.
///
/// Two grades of vocabulary exist:
///
/// * **exact** — for protocols whose per-node state space is (a subset of)
///   small integers, `raw_state` is the identity embedding; this is what
///   makes witness replays bit-exact ([`Algorithm`]'s implementation is
///   exact for LUT and trivial counters);
/// * **sampled** — [`SampledRaw`] wraps any protocol and derives a
///   256-entry palette from the protocol's own state sampler, seeded per
///   index; still fully deterministic, so scripted runs stay
///   snapshot-capable.
pub trait RawState<S> {
    /// The state with vocabulary index `value`, as broadcast by `node`
    /// (state representations may be node-dependent).
    fn raw_state(&self, node: NodeId, value: u8) -> S;
}

impl<S, T: RawState<S> + ?Sized> RawState<S> for &T {
    fn raw_state(&self, node: NodeId, value: u8) -> S {
        (**self).raw_state(node, value)
    }
}

impl RawState<CounterState> for Algorithm {
    /// Exact for the enumerable state spaces (trivial values, LUT state
    /// indices — witness imports replay bit-for-bit); boosted stacks fall
    /// back to a deterministic per-index palette drawn from the counter's
    /// own state sampler.
    fn raw_state(&self, node: NodeId, value: u8) -> CounterState {
        match self {
            Algorithm::Trivial(t) => CounterState::new((u64::from(value) % t.modulus()).into()),
            Algorithm::Lut(l) => CounterState::new(l.clamp(value).into()),
            Algorithm::Boosted(_) => self.random_state(node, &mut palette_rng(value)),
        }
    }
}

/// A sampled [`RawState`] vocabulary over any protocol: index `v` maps to
/// the state the protocol samples under a seed derived from `v` — a
/// deterministic 256-state palette.
#[derive(Debug)]
pub struct SampledRaw<'a, P>(pub &'a P);

// Manual impls: a `SampledRaw` is a shared reference, copyable regardless
// of whether `P` itself is.
impl<'a, P> Clone for SampledRaw<'a, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, P> Copy for SampledRaw<'a, P> {}

impl<'a, P: SyncProtocol> RawState<P::State> for SampledRaw<'a, P> {
    fn raw_state(&self, node: NodeId, value: u8) -> P::State {
        self.0.random_state(node, &mut palette_rng(value))
    }
}

/// The per-index palette generator shared by every sampled vocabulary.
fn palette_rng(value: u8) -> SmallRng {
    SmallRng::seed_from_u64(0x5c41_7ac4 ^ u64::from(value).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// An adversary that plays a [`Script`] verbatim on the scalar engine: its
/// face schedule ([`SlicedScript`], `raw` resolved once into packed
/// bundles) through [`FacedAdversary`]. Echo moves are zero-copy broadcast
/// echoes, raw vocabulary states are pinned once per execution, and stale
/// moves replay a ring of past broadcasts, fabricated at most once per
/// (lag, donor) per round. The snapshot is the lasso position and the ring,
/// so scripted runs take the early-decision exit.
pub fn scripted<'s, S, R>(script: &'s Script, raw: R) -> FacedAdversary<SlicedScript<'s, S>, S>
where
    S: Clone,
    R: RawState<S>,
{
    let faulty = normalize_faults(script.fault_set().iter().copied());
    scripted_over(script, raw_vocabulary(&raw, &faulty))
}

/// [`scripted`] over a vocabulary already resolved by [`raw_vocabulary`].
pub(crate) fn scripted_over<'s, S: Clone>(
    script: &'s Script,
    vocabulary: impl Into<Cow<'s, [PackedInit<S>]>>,
) -> FacedAdversary<SlicedScript<'s, S>, S> {
    FacedAdversary::new(SlicedScript::new(script, vocabulary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Move;
    use sc_protocol::MessageSource;
    use sc_sim::testing::TestRound;
    use sc_sim::{Adversary, AdversarySnapshot, SnapshotSupport, StatePool};

    /// A raw vocabulary over plain `u64` states: identity embedding.
    #[derive(Clone, Copy)]
    struct Ident;
    impl RawState<u64> for Ident {
        fn raw_state(&self, _node: NodeId, value: u8) -> u64 {
            u64::from(value)
        }
    }

    fn script(rounds: Vec<Vec<Move>>, cycle_start: usize) -> Script {
        Script::new(4, vec![1], rounds, cycle_start).unwrap()
    }

    #[test]
    fn echo_moves_lease_broadcasts_without_fabricating() {
        let s = script(vec![vec![Move::Echo(0); 4]], 0);
        let mut adv = scripted(&s, Ident);
        let round = TestRound::new(vec![10u64, 20, 30, 40], [1]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &ctx, &mut pool);
        assert_eq!(src, MessageSource::Broadcast(NodeId::new(0)));
        assert_eq!(pool.fabricated_total(), 0);
    }

    #[test]
    fn raw_moves_pin_once_per_execution() {
        let s = script(vec![vec![Move::Raw(9); 4]], 0);
        let mut adv = scripted(&s, Ident);
        let round = TestRound::new(vec![0u64; 4], [1]);
        let mut pool = StatePool::new();
        let mut leases = Vec::new();
        for t in 0..2 {
            pool.begin_round();
            adv.begin_round(&round.ctx(t), &mut pool);
            for to in [0usize, 2, 3] {
                leases.push(adv.message(NodeId::new(1), NodeId::new(to), &round.ctx(t), &mut pool));
            }
        }
        assert!(leases.iter().all(|&l| l == leases[0]), "one lease for all");
        assert_eq!(pool.pinned().len(), 1, "one pin, six leases");
        assert_eq!(pool.fabricated_total(), 0);
        assert_eq!(*pool.resolve(round.honest(), leases[0]), 9);
    }

    #[test]
    fn stale_moves_replay_the_ring_and_clamp_warmup() {
        let s = script(vec![vec![Move::Stale { lag: 2, salt: 0 }; 4]], 0);
        let mut adv = scripted(&s, Ident);
        let mut pool = StatePool::new();

        // Round 0: no history yet — degrades to an echo of the donor.
        let r0 = TestRound::new(vec![1u64, 2, 3, 4], [1]);
        adv.begin_round(&r0.ctx(0), &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &r0.ctx(0), &mut pool);
        assert!(matches!(src, MessageSource::Broadcast(_)));

        // Round 1: only one round of history — lag clamps to 1.
        let r1 = TestRound::new(vec![5u64, 6, 7, 8], [1]);
        pool.begin_round();
        adv.begin_round(&r1.ctx(1), &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &r1.ctx(1), &mut pool);
        assert_eq!(*pool.resolve(r1.honest(), src), 1, "round 0's donor state");

        // Round 2: full lag available.
        let r2 = TestRound::new(vec![9u64, 10, 11, 12], [1]);
        pool.begin_round();
        adv.begin_round(&r2.ctx(2), &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &r2.ctx(2), &mut pool);
        assert_eq!(*pool.resolve(r2.honest(), src), 1, "still round 0 (lag 2)");
        let again = adv.message(NodeId::new(1), NodeId::new(2), &r2.ctx(2), &mut pool);
        assert_eq!(src, again, "cached per (lag, donor) within the round");
    }

    #[test]
    fn snapshot_folds_lasso_position_and_ring() {
        let s = script(
            vec![
                vec![Move::Stale { lag: 1, salt: 0 }; 4],
                vec![Move::Echo(0); 4],
            ],
            0,
        );
        let mut adv = scripted(&s, Ident);
        let mut pool = StatePool::new();
        let r0 = TestRound::new(vec![1u64, 2, 3, 4], [1]);
        adv.begin_round(&r0.ctx(0), &mut pool);

        let capture = |adv: &FacedAdversary<SlicedScript<'_, u64>, u64>, round: u64| {
            let mut bits = sc_protocol::BitVec::new();
            let mut encode =
                |_: NodeId, s: &u64, out: &mut sc_protocol::BitVec| out.push_bits(*s, 64);
            let mut writer = AdversarySnapshot::new(&mut bits, &mut encode);
            assert_eq!(
                adv.snapshot(round, &mut writer),
                SnapshotSupport::Deterministic
            );
            bits
        };
        // Rounds 2 and 4 share the lasso position (cycle of length 2), so
        // with identical rings the snapshots agree; rounds 2 and 3 differ.
        let a = capture(&adv, 2);
        let b = capture(&adv, 4);
        let c = capture(&adv, 3);
        assert_eq!(a.words(), b.words());
        assert_eq!(a.len(), b.len());
        assert_ne!((a.len(), a.words().to_vec()), (c.len(), c.words().to_vec()));
    }

    #[test]
    fn algorithm_vocabulary_is_exact_for_luts() {
        use sc_core::LutSpec;
        let rows: Vec<u8> = vec![0; 16];
        let algo = Algorithm::lut(LutSpec {
            n: 4,
            f: 1,
            c: 2,
            states: 2,
            transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
            output: vec![vec![0, 1]; 4],
            stabilization_bound: 0,
        })
        .unwrap();
        assert_eq!(algo.raw_state(NodeId::new(0), 1), CounterState::new(1));
        assert_eq!(algo.raw_state(NodeId::new(2), 0), CounterState::new(0));
        // Out-of-range vocabulary indices clamp into the state space.
        assert_eq!(algo.raw_state(NodeId::new(0), 7), CounterState::new(1));
    }
}
