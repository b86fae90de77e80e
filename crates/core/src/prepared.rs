//! Receiver-shared round preparation for the recursive counters
//! ([`PreparedProtocol`]).
//!
//! One round of the boosting construction (§3.3–§3.5) takes, *per
//! receiver*, three layers of majority votes over the received vector:
//! per-block leader support `bᵢ`, the leader block `B` with its slot
//! counter `R`, and the phase-king tally of `a`-registers. All receivers
//! see identical honest entries — only the ≤ `F` Byzantine senders differ
//! per receiver — so the honest part of every one of those tallies is
//! computed **once per round** here, and each receiver merely looks at it
//! through the faulty senders' votes ([`DeltaTally::patched`]): `O(F)` vote
//! work per receiver instead of `O(N)`, recursively at every level of the
//! construction.
//!
//! A preparation lives as long as its execution: each round only empties
//! and refills the tallies ([`PreparedProtocol::refill_round`]), so a round
//! allocates nothing.
//!
//! The contract (bitwise equality with [`SyncProtocol::step`]) is enforced
//! by the `engine_equivalence` integration tests.

use sc_consensus::instructions::{execute_slot, IncrementMode};
use sc_protocol::{
    majority_or, Broadcast, DeltaTally, MessageView, NodeId, PreparedProtocol, StepContext,
    VoteCounts as _,
};

use crate::algorithm::{Algorithm, CounterState, Window};
use crate::boosted::BoostedCounter;

/// Shared per-round state of an [`Algorithm`]; variants mirror the
/// algorithm variants.
#[derive(Clone, Debug)]
pub enum RoundPrep {
    /// Trivial and LUT counters have no receiver-shared vote structure
    /// worth hoisting; their prepared step falls through to the plain one.
    Passthrough,
    /// Hoisted vote tallies of a boosting layer.
    Boosted(Box<BoostedPrep>),
}

/// The hoisted round state of one boosting layer (and, recursively, of the
/// inner counters of its blocks).
#[derive(Clone, Debug)]
pub struct BoostedPrep {
    /// Per block `i`: the leader-support votes (`pointer(i, ·).b`) of the
    /// block's *honest* members.
    b_votes: Vec<DeltaTally>,
    /// Per block `i`: the slot votes (`pointer(i, ·).r`) of the block's
    /// honest members.
    r_votes: Vec<DeltaTally>,
    /// `a`-register votes of all honest nodes.
    a_votes: DeltaTally,
    /// This level's faulty nodes, sorted — hence grouped by block.
    faulty: Vec<usize>,
    /// Block `i`'s faulty members are `faulty[block_at[i]..block_at[i + 1]]`.
    block_at: Vec<usize>,
    /// Per block: the inner algorithm's round preparation.
    inner: Vec<RoundPrep>,
    /// Scratch: the states one receiver got from the nodes of `faulty`.
    seen: Vec<CounterState>,
    /// Scratch: the votes among `seen` that one majority is patched with.
    patch: Vec<u64>,
    /// Scratch for one receiver's per-block leader-support votes `bᵢ`.
    support: Vec<u64>,
}

impl BoostedCounter {
    /// The preparation of an execution whose faulty nodes at this level are
    /// `faulty` (sorted), with every tally sized for its fullest round and
    /// still empty.
    fn layout(&self, faulty: &[usize]) -> BoostedPrep {
        let p = self.params();
        let (k, n) = (p.k(), p.n_inner());
        let block_at: Vec<usize> = (0..=k)
            .map(|i| faulty.partition_point(|&v| v < i * n))
            .collect();
        // (`vec![tally; k]` would clone away the capacity.)
        let block_tallies = || (0..k).map(|_| DeltaTally::with_capacity(n)).collect();
        BoostedPrep {
            b_votes: block_tallies(),
            r_votes: block_tallies(),
            a_votes: DeltaTally::with_capacity(p.n_total()),
            inner: (0..k)
                .map(|i| {
                    let members = &faulty[block_at[i]..block_at[i + 1]];
                    let local: Vec<usize> = members.iter().map(|v| v % n).collect();
                    self.inner().layout(&local)
                })
                .collect(),
            faulty: faulty.to_vec(),
            block_at,
            seen: Vec::with_capacity(faulty.len()),
            patch: Vec::with_capacity(faulty.len()),
            support: Vec::with_capacity(k),
        }
    }

    /// Recounts the honest votes of the round whose broadcast is `base`.
    fn refill(&self, prep: &mut BoostedPrep, base: Window<'_, '_>) {
        let p = self.params();
        let n = p.n_inner();
        prep.a_votes.clear();
        let mut faulty = prep.faulty.iter().peekable();
        for i in 0..p.k() {
            let (b_tally, r_tally) = (&mut prep.b_votes[i], &mut prep.r_votes[i]);
            b_tally.clear();
            r_tally.clear();
            for v in i * n..(i + 1) * n {
                if faulty.next_if_eq(&&v).is_some() {
                    continue;
                }
                let state = base.get(v);
                let pointer = p.pointer(i, self.inner_value(v - i * n, state));
                b_tally.add(pointer.b as u64);
                r_tally.add(pointer.r);
                prep.a_votes.add(self.regs_of(state).a);
            }
            self.inner()
                .refill(&mut prep.inner[i], base.block(i * n, self.regs_bits));
        }
    }

    /// The transition of §3.5 with the shared votes patched per receiver.
    /// Must agree bitwise with [`BoostedCounter::step`]; of `prep` only the
    /// scratch is written, and left empty.
    fn step_with(
        &self,
        node: usize,
        received: Window<'_, '_>,
        prep: &mut BoostedPrep,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        let p = self.params();
        let n = p.n_inner();
        let (block, local) = p.block_of(NodeId::new(node));

        // 1. Advance this block's copy of the inner counter (recursively
        // prepared) on the block's window of the view, like `step`.
        let block_states = received.block(block * n, self.regs_bits);
        let next_inner =
            self.inner()
                .step_prepared_in(local, block_states, &mut prep.inner[block], ctx);

        // 2. The three-stage majority vote, patching only what the faulty
        // senders told this receiver: bᵢ per block, then B over them.
        prep.seen.clear();
        prep.seen
            .extend(prep.faulty.iter().map(|&v| received.get(v)));
        let inner_value =
            |at: usize, i: usize| self.inner_value(prep.faulty[at] - i * n, prep.seen[at]);
        for (i, tally) in prep.b_votes.iter().enumerate() {
            prep.patch.clear();
            for at in prep.block_at[i]..prep.block_at[i + 1] {
                prep.patch.push(p.pointer(i, inner_value(at, i)).b as u64);
            }
            let support = tally.patched(&prep.patch).majority().unwrap_or(0);
            prep.support.push(support);
        }
        let leader = majority_or(prep.support.iter().copied(), 0) as usize;
        prep.support.clear();

        // R = majority of the leader block's slot votes.
        prep.patch.clear();
        for at in prep.block_at[leader]..prep.block_at[leader + 1] {
            prep.patch
                .push(p.pointer(leader, inner_value(at, leader)).r);
        }
        let slot = prep.r_votes[leader].patched(&prep.patch).majority();
        let slot = slot.unwrap_or(0);

        // 3. Instruction set I_R on the patched a-register tally; the king
        // slot I_{3ℓ+2} reads the king's value and no tally (Table 2).
        prep.patch.clear();
        if slot % 3 != 2 {
            let votes = prep.seen.iter().map(|&state| self.regs_of(state).a);
            prep.patch.extend(votes);
        }
        let king = p.pk().king_of_group(slot / 3);
        let regs = execute_slot(
            p.pk(),
            self.regs_of(received.get(node)),
            slot,
            &prep.a_votes.patched(&prep.patch),
            self.regs_of(received.get(king.index())).a,
            IncrementMode::Counting,
        );
        prep.patch.clear();
        prep.seen.clear();
        self.with(next_inner, regs)
    }
}

impl Algorithm {
    fn layout(&self, faulty: &[usize]) -> RoundPrep {
        match self {
            Algorithm::Trivial(_) | Algorithm::Lut(_) => RoundPrep::Passthrough,
            Algorithm::Boosted(b) => RoundPrep::Boosted(Box::new(b.layout(faulty))),
        }
    }

    fn refill(&self, prep: &mut RoundPrep, base: Window<'_, '_>) {
        if let (Algorithm::Boosted(b), RoundPrep::Boosted(prep)) = (self, prep) {
            b.refill(prep, base);
        }
    }

    fn step_prepared_in(
        &self,
        node: usize,
        received: Window<'_, '_>,
        prep: &mut RoundPrep,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        match (self, prep) {
            (Algorithm::Boosted(b), RoundPrep::Boosted(prep)) => {
                b.step_with(node, received, prep, ctx)
            }
            (algo, RoundPrep::Passthrough) => algo.step_in(node, received, ctx),
            (_, RoundPrep::Boosted(_)) => {
                panic!("round preparation belongs to a different algorithm kind")
            }
        }
    }
}

impl PreparedProtocol for Algorithm {
    type RoundPrep = RoundPrep;

    fn prepare_round(&self, base: Broadcast<'_, CounterState>, faulty: &[NodeId]) -> RoundPrep {
        let faulty: Vec<usize> = faulty.iter().map(|id| id.index()).collect();
        let mut prep = self.layout(&faulty);
        self.refill_round(&mut prep, base, &[]);
        prep
    }

    fn refill_round(
        &self,
        prep: &mut RoundPrep,
        base: Broadcast<'_, CounterState>,
        _faulty: &[NodeId],
    ) {
        self.refill(prep, Window::top(&MessageView::from(base)));
    }

    fn step_prepared(
        &self,
        node: NodeId,
        view: &MessageView<'_, CounterState>,
        prep: &mut RoundPrep,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        self.step_prepared_in(node.index(), Window::top(view), prep, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sc_protocol::SyncProtocol as _;

    /// Fault-free agreement between `step` and `step_prepared` on the
    /// Figure-2 stack A(4,1) → A(12,3) → A(36,7) from arbitrary
    /// configurations, with one preparation per algorithm refilled from
    /// round to round rather than rebuilt — the way a runtime node keeps
    /// it. (The full multi-round, multi-adversary gate lives in the
    /// `engine_equivalence` integration tests.)
    #[test]
    fn prepared_step_matches_plain_step() {
        let a4 = CounterBuilder::corollary1(1, 2).unwrap();
        let a12 = a4.clone().boost(3).unwrap();
        let a36 = a12.clone().boost(3).unwrap();
        for algo in [a4, a12, a36].map(|b| b.build().unwrap()) {
            let n = algo.n();
            let random_states = |seed: u64| -> Vec<CounterState> {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..n)
                    .map(|i| algo.random_state(NodeId::new(i), &mut rng))
                    .collect()
            };
            let mut prep = algo.prepare_round(Broadcast::States(&random_states(99)), &[]);
            for seed in 0..20u64 {
                let states = random_states(seed);
                algo.refill_round(&mut prep, Broadcast::States(&states), &[]);
                for i in 0..n {
                    let view = MessageView::new(&states, &[]);
                    let mut rng_a = SmallRng::seed_from_u64(0);
                    let mut rng_b = SmallRng::seed_from_u64(0);
                    let plain = algo.step(NodeId::new(i), &view, &mut StepContext::new(&mut rng_a));
                    let prepared = algo.step_prepared(
                        NodeId::new(i),
                        &view,
                        &mut prep,
                        &mut StepContext::new(&mut rng_b),
                    );
                    assert_eq!(plain, prepared, "n = {n}, node {i}, seed {seed}");
                }
            }
        }
    }

    /// The patch-and-undo discipline must leave the preparation unchanged,
    /// including with faulty senders present.
    #[test]
    fn prepared_step_restores_the_preparation() {
        let algo = CounterBuilder::corollary1(1, 2).unwrap().build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let states: Vec<CounterState> = (0..4)
            .map(|i| algo.random_state(NodeId::new(i), &mut rng))
            .collect();
        let faulty = [NodeId::new(2)];
        let lie = algo.random_state(NodeId::new(2), &mut rng);
        let overrides = [(NodeId::new(2), lie)];
        let mut prep = algo.prepare_round(Broadcast::States(&states), &faulty);
        let snapshot = format!("{prep:?}");
        for i in [0usize, 1, 3] {
            let view = MessageView::new(&states, &overrides);
            let mut rng = SmallRng::seed_from_u64(0);
            let _ = algo.step_prepared(
                NodeId::new(i),
                &view,
                &mut prep,
                &mut StepContext::new(&mut rng),
            );
            assert_eq!(format!("{prep:?}"), snapshot, "receiver {i} leaked patches");
        }
    }
}
