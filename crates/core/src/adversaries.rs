//! Counter-structure-aware Byzantine strategies.
//!
//! The generic strategies of [`sc_sim::adversaries`] treat states as opaque.
//! The strategies here inspect and fabricate [`CounterState`]s to attack the
//! boosting construction exactly where its proof is tightest:
//!
//! * [`bad_king`] — **king equivocation**: faulty nodes present different
//!   phase-king registers to the two halves of the network, the classic
//!   attack that makes slot groups with faulty kings useless (why Theorem 1
//!   schedules `F+2` groups).
//! * [`pointer_split`] — **leader-pointer splitting**: faulty nodes
//!   fabricate inner counter values so that different receivers attribute
//!   different leader pointers `b[i,j]` to them, attacking the majority
//!   votes of §3.3.
//!
//! Both speak the borrowed message plane and reuse the shared strategy
//! building blocks ([`normalize_faults`], [`donor_id`], [`FacePair`]) so the
//! equivocation pattern has exactly one implementation in the workspace.
//! `bad_king` fabricates its two faces once per round; only
//! `pointer_split`'s per-receiver pointer forgery is inherently per-pair.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_consensus::{PkRegisters, INFINITY};
use sc_protocol::NodeId;
use sc_sim::adversaries::{donor_id, normalize_faults, FacePair};
use sc_sim::{Adversary, MessageSource, RoundContext, StatePool};

use crate::algorithm::{Algorithm, CounterState};
use crate::boosted::BoostedCounter;

/// King equivocation against a [`BoostedCounter`].
///
/// Each round the faulty nodes pick two different register values and show
/// one to even receivers, the other to odd receivers, while keeping a
/// plausible inner counter copied from a correct donor. When a faulty node
/// serves as king this splits the undecided nodes into camps; correctness
/// must then come from the later honest-king groups.
///
/// # Panics
///
/// Panics if `algorithm` is not a boosted counter.
pub fn bad_king(
    algorithm: &Algorithm,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> BadKing<'_> {
    BadKing {
        counter: algorithm
            .boosting_layer()
            .expect("bad_king attacks the boosted construction"),
        faulty: normalize_faults(faulty),
        rng: SmallRng::seed_from_u64(seed),
        faces: (0, 0),
        leases: None,
    }
}

/// Adversary produced by [`bad_king`].
#[derive(Clone, Debug)]
pub struct BadKing<'a> {
    counter: &'a BoostedCounter,
    faulty: Vec<NodeId>,
    rng: SmallRng,
    faces: (u64, u64),
    leases: Option<FacePair>,
}

impl Adversary<CounterState> for BadKing<'_> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn begin_round(
        &mut self,
        ctx: &RoundContext<'_, CounterState>,
        pool: &mut StatePool<CounterState>,
    ) {
        let counter = self.counter;
        let c_out = counter.params().c_out();
        let x = self.rng.random_range(0..c_out);
        // A maximally confusing pair: a real value against a nearby value or
        // the reset state ∞.
        let y = match self.rng.random_range(0..3u8) {
            0 => INFINITY,
            1 => (x + 1) % c_out,
            _ => self.rng.random_range(0..c_out),
        };
        self.faces = (x, y);
        // Materialise both faces once for the whole round: every receiver of
        // the same parity leases the same fabricated state.
        let mut face = |a: u64, rng: &mut SmallRng| {
            let donor = donor_id(
                ctx.faulty,
                ctx.honest.len(),
                rng.random_range(0..usize::MAX),
            );
            let inner = counter.inner_of(ctx.honest[donor.index()]);
            let d = rng.random_bool(0.5);
            pool.fabricate(counter.with(inner, PkRegisters::new(a, d)))
        };
        self.leases = Some(FacePair {
            even: face(x, &mut self.rng),
            odd: face(y, &mut self.rng),
        });
    }

    fn message(
        &mut self,
        _from: NodeId,
        to: NodeId,
        _ctx: &RoundContext<'_, CounterState>,
        _pool: &mut StatePool<CounterState>,
    ) -> MessageSource {
        self.leases
            .as_ref()
            .expect("begin_round not called")
            .for_receiver(to)
    }
}

/// Leader-pointer splitting against a boosted counter.
///
/// When the inner counter is the trivial counter (the Corollary 1 topology,
/// blocks of one node), the faulty node's *own* counter value is whatever it
/// claims — so the adversary fabricates values whose `(r, y, b)`
/// decomposition points each receiver at a different leader block, while
/// mimicking a plausible slot counter `r`. With deeper inner counters exact
/// fabrication is no longer free, and the strategy falls back to showing
/// different receivers the states of different correct donors (which still
/// desynchronises pointer votes).
///
/// # Panics
///
/// Panics if `algorithm` is not a boosted counter.
pub fn pointer_split(
    algorithm: &Algorithm,
    faulty: impl IntoIterator<Item = usize>,
    seed: u64,
) -> PointerSplit<'_> {
    PointerSplit {
        counter: algorithm
            .boosting_layer()
            .expect("pointer_split attacks the boosted construction"),
        faulty: normalize_faults(faulty),
        rng: SmallRng::seed_from_u64(seed),
    }
}

/// Adversary produced by [`pointer_split`].
#[derive(Clone, Debug)]
pub struct PointerSplit<'a> {
    counter: &'a BoostedCounter,
    faulty: Vec<NodeId>,
    rng: SmallRng,
}

impl Adversary<CounterState> for PointerSplit<'_> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn message(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: &RoundContext<'_, CounterState>,
        pool: &mut StatePool<CounterState>,
    ) -> MessageSource {
        let (counter, p) = (self.counter, self.counter.params());
        let donor_state = ctx.honest[donor_id(ctx.faulty, ctx.honest.len(), to.index()).index()];
        let Algorithm::Trivial(inner) = counter.inner() else {
            // Deep inner counters: donor mirroring with scrambled registers.
            let a = self.rng.random_range(0..p.c_out());
            let mirrored = counter.with(counter.inner_of(donor_state), PkRegisters::new(a, true));
            return pool.fabricate(mirrored);
        };
        // Corollary 1 topology: fabricate a counter value that keeps the
        // donor's slot phase r but points receiver `to` at leader block
        // `to mod m`, i.e. v = r + τ·(b·(2m)^i) for this node's block i.
        let donor_value = counter.inner().trivial_of(counter.inner_of(donor_state));
        let r = donor_value % p.tau();
        let (block, _) = p.block_of(from);
        let target_b = (to.index() % p.m()) as u64;
        let y = target_b * (2 * p.m() as u64).pow(block as u32);
        let v = (r + p.tau() * y) % inner.modulus();
        pool.fabricate(counter.with(CounterState::new(v.into()), counter.regs_of(donor_state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterBuilder;
    use sc_protocol::Counter as _;
    use sc_sim::testing::TestRound;

    fn a4() -> Algorithm {
        CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
    }

    fn round_of(algo: &Algorithm, seed: u64, faulty: usize) -> TestRound<CounterState> {
        use sc_protocol::SyncProtocol as _;
        let mut rng = SmallRng::seed_from_u64(seed);
        let states = (0..algo.n())
            .map(|i| algo.random_state(NodeId::new(i), &mut rng))
            .collect();
        TestRound::new(states, [faulty])
    }

    #[test]
    fn bad_king_splits_registers_by_parity() {
        let algo = a4();
        let mut adv = bad_king(&algo, [0], 7);
        let round = round_of(&algo, 1, 0);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let even_src = adv.message(NodeId::new(0), NodeId::new(2), &ctx, &mut pool);
        let odd_src = adv.message(NodeId::new(0), NodeId::new(3), &ctx, &mut pool);
        let even = pool.resolve(round.honest(), even_src);
        let odd = pool.resolve(round.honest(), odd_src);
        let b = algo.boosting_layer().unwrap();
        let (ea, oa) = (b.regs_of(*even).a, b.regs_of(*odd).a);
        // Faces are fixed per round and assigned by receiver parity.
        assert_eq!(ea, adv.faces.0);
        assert_eq!(oa, adv.faces.1);
        // Values stay in the register domain.
        assert!(ea == INFINITY || ea < algo.modulus());
        assert!(oa == INFINITY || oa < algo.modulus());
        // Exactly the two faces were materialised, not one per receiver.
        assert_eq!(pool.fabricated_total(), 2);
        let even_again = adv.message(NodeId::new(0), NodeId::new(2), &ctx, &mut pool);
        assert_eq!(even_again, even_src);
        assert_eq!(pool.fabricated_total(), 2);
    }

    #[test]
    fn pointer_split_targets_distinct_leaders() {
        let algo = a4();
        let b = algo.boosting_layer().unwrap();
        let mut adv = pointer_split(&algo, [1], 3);
        let round = round_of(&algo, 2, 1);
        let mut pool = StatePool::new();
        let ctx = round.ctx(0);
        adv.begin_round(&ctx, &mut pool);
        let p = b.params();
        let to0 = adv.message(NodeId::new(1), NodeId::new(0), &ctx, &mut pool);
        let to3 = adv.message(NodeId::new(1), NodeId::new(3), &ctx, &mut pool);
        let to0 = pool.resolve(round.honest(), to0);
        let to3 = pool.resolve(round.honest(), to3);
        let b0 = p.pointer(1, b.inner().trivial_of(b.inner_of(*to0))).b;
        let b3 = p.pointer(1, b.inner().trivial_of(b.inner_of(*to3))).b;
        assert_eq!(b0, 0); // receiver 0 mod m=2
        assert_eq!(b3, 1); // receiver 3 mod m=2
    }

    #[test]
    #[should_panic(expected = "boosted construction")]
    fn bad_king_requires_boosted_counter() {
        let t = Algorithm::trivial(4).unwrap();
        let _ = bad_king(&t, [0], 0);
    }
}
