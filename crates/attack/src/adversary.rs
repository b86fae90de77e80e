//! The library-grade scripted adversary: executes any [`Script`] on the
//! live engine, with full snapshot support so scripted runs ride the
//! early-decision exit.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterState};
use sc_protocol::{MessageSource, NodeId, SyncProtocol};
use sc_sim::adversaries::{donor_id, normalize_faults};
use sc_sim::{Adversary, AdversarySnapshot, RoundContext, SnapshotSupport, StatePool};

use crate::script::{Move, Script};

/// The raw state vocabulary [`Move::Raw`] indexes into: a deterministic
/// map from a byte to a protocol state.
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

/// An adversary that plays a [`Script`] verbatim on the borrow-based
/// message plane.
///
/// * [`Move::Echo`] moves are delivered as zero-copy
///   [`MessageSource::Broadcast`] leases of the chosen donor;
/// * [`Move::Raw`] moves fabricate the vocabulary state **once per (sender,
///   value) per round**, shared by every receiver scripted to see it;
/// * [`Move::Stale`] moves replay a donor ring of past honest broadcasts
///   (retained only as deep as the script's [`Script::max_lag`]), cloned at
///   most once per (lag, donor) per round.
///
/// The adversary borrows its script, so a search loop can edit one script
/// in place between evaluations without cloning move tables.
///
/// Scripted strategies are **deterministic**: [`Adversary::snapshot`]
/// writes the effective lasso position and the replay ring, so
/// `run_until_stable_early` takes cycle-based exits under scripted attacks
/// exactly as it does under the library's deterministic strategies.
pub struct ScriptedAdversary<'s, S, R> {
    script: &'s Script,
    raw: R,
    faulty: Vec<NodeId>,
    /// Past rounds' broadcast states (full `n`-vectors, faulty entries are
    /// meaningless placeholders), oldest first; the back entry is the
    /// current round. Empty when the script never replays.
    ring: VecDeque<Vec<S>>,
    /// Ring depth to retain: `max_lag + 1` (0 = no ring at all).
    retain: usize,
    /// Per-round fabrication cache: `(key, lease)` pairs, linear-scanned
    /// (scripts fabricate a handful of distinct states per round).
    cache: Vec<(u32, MessageSource)>,
}

impl<'s, S, R> ScriptedAdversary<'s, S, R> {
    /// An adversary playing `script`, resolving raw moves through the
    /// vocabulary `raw`.
    pub fn new(script: &'s Script, raw: R) -> Self {
        let max_lag = script.max_lag();
        ScriptedAdversary {
            faulty: normalize_faults(script.fault_set().iter().copied()),
            script,
            raw,
            ring: VecDeque::new(),
            retain: if max_lag == 0 { 0 } else { max_lag + 1 },
            cache: Vec::new(),
        }
    }

    /// The script being played.
    pub fn script(&self) -> &'s Script {
        self.script
    }
}

impl<'s, S, R> std::fmt::Debug for ScriptedAdversary<'s, S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedAdversary")
            .field("faulty", &self.faulty)
            .field("rounds", &self.script.len())
            .finish_non_exhaustive()
    }
}

/// Cache keys for the per-round fabrication cache.
fn raw_key(g: usize, value: u8) -> u32 {
    (1 << 24) | ((g as u32) << 8) | u32::from(value)
}

fn stale_key(lag: usize, salt: u8) -> u32 {
    (2 << 24) | ((lag as u32) << 8) | u32::from(salt)
}

impl<'s, S, R> Adversary<S> for ScriptedAdversary<'s, S, R>
where
    S: Clone + std::fmt::Debug,
    R: RawState<S>,
{
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, _pool: &mut StatePool<S>) {
        self.cache.clear();
        if self.retain == 0 {
            return;
        }
        // Record this round's broadcast for future stale moves, recycling
        // the buffer of the entry that falls out of the window (steady
        // state allocates nothing; warm-up allocates once per ring slot).
        let mut snapshot = if self.ring.len() >= self.retain {
            self.ring.pop_front().expect("ring is non-empty")
        } else {
            Vec::new()
        };
        snapshot.clear();
        snapshot.extend(ctx.honest.iter().cloned());
        self.ring.push_back(snapshot);
    }

    fn message(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        let g = self
            .faulty
            .binary_search(&from)
            .expect("message requested from a non-scripted node");
        match self.script.move_at(ctx.round, g, to.index()) {
            Move::Echo(salt) => MessageSource::Broadcast(donor_id(ctx, salt as usize)),
            Move::Raw(value) => {
                let key = raw_key(g, value);
                if let Some(&(_, lease)) = self.cache.iter().find(|(k, _)| *k == key) {
                    return lease;
                }
                let lease = pool.fabricate(self.raw.raw_state(from, value));
                self.cache.push((key, lease));
                lease
            }
            Move::Stale { lag, salt } => {
                let donor = donor_id(ctx, salt as usize);
                // The ring's back entry is the current round; clamp the lag
                // to the observed history (warm-up).
                let depth = (lag as usize).min(self.ring.len().saturating_sub(1));
                if depth == 0 {
                    return MessageSource::Broadcast(donor);
                }
                let key = stale_key(depth, salt);
                if let Some(&(_, lease)) = self.cache.iter().find(|(k, _)| *k == key) {
                    return lease;
                }
                let state = self.ring[self.ring.len() - 1 - depth][donor.index()].clone();
                let lease = pool.fabricate(state);
                self.cache.push((key, lease));
                lease
            }
        }
    }

    fn snapshot(&self, round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // The script is playback data, constant for the execution; the
        // evolving state is the lasso position (which determines every
        // future position) and the replay ring. The per-round cache is
        // recomputed from both every round.
        if self.script.is_empty() {
            out.word(0);
        } else {
            out.word(self.script.index_at(round) as u64 + 1);
        }
        out.word(self.ring.len() as u64);
        for snapshot in &self.ring {
            for node in 0..self.script.n() {
                let id = NodeId::new(node);
                if self.faulty.binary_search(&id).is_err() {
                    out.state(id, &snapshot[node]);
                }
            }
        }
        SnapshotSupport::Deterministic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sim::testing::TestRound;

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
        let mut adv = ScriptedAdversary::new(&s, Ident);
        let round = TestRound::new(vec![10u64, 20, 30, 40], [1]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let src = adv.message(NodeId::new(1), NodeId::new(0), &ctx, &mut pool);
        assert_eq!(src, MessageSource::Broadcast(NodeId::new(0)));
        assert_eq!(pool.fabricated_total(), 0);
    }

    #[test]
    fn raw_moves_fabricate_once_per_value_per_round() {
        let s = script(vec![vec![Move::Raw(9); 4]], 0);
        let mut adv = ScriptedAdversary::new(&s, Ident);
        let round = TestRound::new(vec![0u64; 4], [1]);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let a = adv.message(NodeId::new(1), NodeId::new(0), &ctx, &mut pool);
        let b = adv.message(NodeId::new(1), NodeId::new(2), &ctx, &mut pool);
        let c = adv.message(NodeId::new(1), NodeId::new(3), &ctx, &mut pool);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(pool.fabricated_total(), 1, "one fabrication, three leases");
        assert_eq!(*pool.resolve(round.honest(), a), 9);
    }

    #[test]
    fn stale_moves_replay_the_ring_and_clamp_warmup() {
        let s = script(vec![vec![Move::Stale { lag: 2, salt: 0 }; 4]], 0);
        let mut adv = ScriptedAdversary::new(&s, Ident);
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
        let mut adv = ScriptedAdversary::new(&s, Ident);
        let mut pool = StatePool::new();
        let r0 = TestRound::new(vec![1u64, 2, 3, 4], [1]);
        adv.begin_round(&r0.ctx(0), &mut pool);

        let capture = |adv: &ScriptedAdversary<'_, u64, Ident>, round: u64| {
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
