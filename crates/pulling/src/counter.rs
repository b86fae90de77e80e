//! The pulling-model counter of Theorem 4.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sc_consensus::instructions::{execute_slot, IncrementMode};
use sc_consensus::{PhaseKingParams, PkRegisters, INFINITY};
use sc_core::{Algorithm, BoostParams, TrivialCounter};
use sc_protocol::{
    bits_for, majority_or, BitReader, BitVec, CodecError, NodeId, ParamError, StepContext, Tally,
};

use crate::protocol::{PullProtocol, PullResponses};

/// How a level of the pulling counter gathers information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Pull every other node: deterministic, message cost `N − 1` per round
    /// (the broadcast construction transplanted into the pulling model).
    Full,
    /// §5.3 sampling: `m` states per block for the leader votes, `m` states
    /// overall for the phase-king tally, with thresholds `⅔m` / `⅓m`.
    Sampled {
        /// Samples per majority vote, `M = Θ(log η)` in the analysis.
        m: usize,
        /// How the king's value is pulled.
        king_mode: KingPullMode,
        /// `Some(seed)`: the pseudo-random variant of Corollary 5 — every
        /// node fixes its sample targets once (derived from the seed) and
        /// reuses them forever. `None`: fresh samples every round
        /// (Theorem 4).
        fixed_seed: Option<u64>,
    },
}

/// How the phase-king value `a[ℓ]` is obtained in a sampled level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KingPullMode {
    /// Pull all `F+2+s` king candidates every round: always correct, costs
    /// `O(F)` extra pulls (fine for small `F`).
    All,
    /// Predict next round's slot from this round's majority-voted slot and
    /// pull a single king. Requires `king_slack ≥ 1`: the prediction can be
    /// wrong in the first round of the common window, spending one king
    /// group, and the slack restores the "some complete group has a correct
    /// king" pigeonhole (DESIGN.md §4).
    Predicted,
}

/// A synchronous counter in the pulling model: either the trivial base or a
/// boosted level with its own [`Sampling`] policy.
///
/// Build one from a deterministic [`Algorithm`] via
/// [`PullCounter::from_algorithm`]; see the crate-level example.
#[derive(Clone, Debug)]
pub enum PullCounter {
    /// The trivial one-node counter (no pulls at all).
    Trivial(TrivialCounter),
    /// A boosted level.
    Boosted(Box<PullBoosted>),
}

/// One boosted level of a [`PullCounter`].
#[derive(Clone, Debug)]
pub struct PullBoosted {
    inner: PullCounter,
    params: BoostParams,
    sampling: Sampling,
    /// Phase-king parameters with the thresholds this level actually uses
    /// (broadcast `N−F`/`F+1` for [`Sampling::Full`], `⅔m`/`⅓m` sampled).
    pk: PhaseKingParams,
}

/// Per-node state of a [`PullCounter`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PullState {
    /// Trivial counter value.
    Trivial(u64),
    /// Boosted level state.
    Boosted(Box<PullBoostedState>),
}

/// State of one node at a boosted level: the inner state, the phase-king
/// registers, and the slot voted in the previous round (used only by
/// [`KingPullMode::Predicted`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PullBoostedState {
    /// Inner counter state.
    pub inner: PullState,
    /// Phase-king registers.
    pub regs: PkRegisters,
    /// The slot this node voted last round (`∈ [τ]`).
    pub prev_slot: u64,
}

impl PullState {
    /// The trivial value.
    ///
    /// # Panics
    ///
    /// Panics on a state of a different level kind.
    #[track_caller]
    pub fn as_trivial(&self) -> u64 {
        match self {
            PullState::Trivial(v) => *v,
            other => panic!("expected trivial pull state, got {other:?}"),
        }
    }

    /// The boosted-level state.
    ///
    /// # Panics
    ///
    /// Panics on a state of a different level kind.
    #[track_caller]
    pub fn boosted(&self) -> &PullBoostedState {
        match self {
            PullState::Boosted(b) => b,
            other => panic!("expected boosted pull state, got {other:?}"),
        }
    }
}

impl PullCounter {
    /// Transplants a deterministic counter stack into the pulling model,
    /// applying `sampling` at every boosted level.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the stack contains a LUT level (not
    /// supported in the pulling model), when a sampled level has `m < 3`,
    /// or when [`KingPullMode::Predicted`] is requested without
    /// `king_slack ≥ 1`.
    pub fn from_algorithm(algo: &Algorithm, sampling: Sampling) -> Result<Self, ParamError> {
        Self::from_algorithm_with(algo, &mut |_| sampling)
    }

    /// Like [`PullCounter::from_algorithm`] with a per-level policy: the
    /// paper's §5.4 prescription is to sample only where the level is large
    /// (`N ≫ log η`) and pull deterministically below — pass a chooser
    /// inspecting each level's [`BoostParams`].
    ///
    /// # Example
    ///
    /// ```
    /// use sc_core::CounterBuilder;
    /// use sc_pulling::{KingPullMode, PullCounter, Sampling};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let algo = CounterBuilder::corollary1(1, 576)?.boost_with_resilience(3, 1)?.build()?;
    /// // Sample only levels with more than 8 nodes.
    /// let pc = PullCounter::from_algorithm_with(&algo, &mut |p| {
    ///     if p.n_total() > 8 {
    ///         Sampling::Sampled { m: 9, king_mode: KingPullMode::All, fixed_seed: None }
    ///     } else {
    ///         Sampling::Full
    ///     }
    /// })?;
    /// assert!(pc.boosting_layer().is_some());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`PullCounter::from_algorithm`].
    pub fn from_algorithm_with(
        algo: &Algorithm,
        chooser: &mut dyn FnMut(&BoostParams) -> Sampling,
    ) -> Result<Self, ParamError> {
        match algo {
            Algorithm::Trivial(t) => Ok(PullCounter::Trivial(*t)),
            Algorithm::Lut(_) => Err(ParamError::constraint(
                "LUT counters have no pulling-model translation",
            )),
            Algorithm::Boosted(b) => {
                let inner = PullCounter::from_algorithm_with(b.inner(), chooser)?;
                let params = b.params().clone();
                let sampling = chooser(&params);
                let pk = match sampling {
                    Sampling::Full => *params.pk(),
                    Sampling::Sampled { m, king_mode, .. } => {
                        if king_mode == KingPullMode::Predicted && params.king_slack() < 1 {
                            return Err(ParamError::constraint(
                                "predicted king pulls require king_slack ≥ 1 \
                                 (build with CounterBuilder::with_king_slack)",
                            ));
                        }
                        PhaseKingParams::sampled(
                            params.n_total(),
                            params.f_total(),
                            params.c_out(),
                            m,
                            params.pk().king_groups(),
                        )?
                    }
                };
                Ok(PullCounter::Boosted(Box::new(PullBoosted {
                    inner,
                    params,
                    sampling,
                    pk,
                })))
            }
        }
    }

    /// Counter modulus `c`.
    pub fn modulus(&self) -> u64 {
        match self {
            PullCounter::Trivial(t) => t.modulus(),
            PullCounter::Boosted(b) => b.params.c_out(),
        }
    }

    /// Resilience `f` (against worst-case faults for [`Sampling::Full`],
    /// with high probability for sampled levels — Theorem 4).
    pub fn resilience(&self) -> usize {
        match self {
            PullCounter::Trivial(_) => 0,
            PullCounter::Boosted(b) => b.params.f_total(),
        }
    }

    /// Stabilisation bound `T` (deterministic for full pulling; holds with
    /// high probability per round for sampled levels).
    pub fn stabilization_bound(&self) -> u64 {
        match self {
            PullCounter::Trivial(_) => 0,
            PullCounter::Boosted(b) => b.inner.stabilization_bound() + b.params.time_overhead(),
        }
    }

    /// State bits, including the `⌈log τ⌉` bits of the previous-slot field
    /// carried for king prediction.
    pub fn state_bits(&self) -> u32 {
        match self {
            PullCounter::Trivial(t) => t.state_bits(),
            PullCounter::Boosted(b) => {
                b.inner.state_bits() + b.params.state_overhead_bits() + bits_for(b.params.tau())
            }
        }
    }

    /// The boosted top level, if any.
    pub fn boosting_layer(&self) -> Option<&PullBoosted> {
        match self {
            PullCounter::Boosted(b) => Some(b),
            PullCounter::Trivial(_) => None,
        }
    }

    /// Whether every level's pull plan is a deterministic function of the
    /// node and its state: [`Sampling::Full`] everywhere, or sampled levels
    /// running the pseudo-random variant (`fixed_seed`). This is the typed
    /// soundness marker gating early-decision sweeps — fresh-sampling
    /// levels (Theorem 4) draw from the step RNG and must never take a
    /// cycle-based early exit.
    pub fn deterministic_plans(&self) -> bool {
        match self {
            PullCounter::Trivial(_) => true,
            PullCounter::Boosted(b) => {
                let level = match b.sampling {
                    Sampling::Full => true,
                    Sampling::Sampled { fixed_seed, .. } => fixed_seed.is_some(),
                };
                level && b.inner.deterministic_plans()
            }
        }
    }

    /// Encodes `state` into exactly [`PullCounter::state_bits`] bits —
    /// inner state, phase-king registers, then the previous-slot field.
    pub fn encode_state(&self, node: NodeId, state: &PullState, out: &mut BitVec) {
        match self {
            PullCounter::Trivial(t) => out.push_bits(state.as_trivial(), t.state_bits()),
            PullCounter::Boosted(b) => {
                let s = state.boosted();
                let (_, local) = b.params.block_of(node);
                b.inner.encode_state(NodeId::new(local), &s.inner, out);
                s.regs.encode(b.params.c_out(), out);
                out.push_bits(s.prev_slot, bits_for(b.params.tau()));
            }
        }
    }

    /// Decodes a state previously produced by [`PullCounter::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bit string is too short or a field
    /// is outside its domain.
    pub fn decode_state(
        &self,
        node: NodeId,
        input: &mut BitReader<'_>,
    ) -> Result<PullState, CodecError> {
        match self {
            PullCounter::Trivial(t) => {
                let raw = input.read_bits(t.state_bits())?;
                if raw >= t.modulus() {
                    return Err(CodecError::InvalidField {
                        field: "trivial pull counter",
                        value: raw,
                    });
                }
                Ok(PullState::Trivial(raw))
            }
            PullCounter::Boosted(b) => {
                let (_, local) = b.params.block_of(node);
                let inner = b.inner.decode_state(NodeId::new(local), input)?;
                let regs = PkRegisters::decode(b.params.c_out(), input)?;
                let prev_slot = input.read_bits(bits_for(b.params.tau()))?;
                if prev_slot >= b.params.tau() {
                    return Err(CodecError::InvalidField {
                        field: "previous slot",
                        value: prev_slot,
                    });
                }
                Ok(PullState::Boosted(Box::new(PullBoostedState {
                    inner,
                    regs,
                    prev_slot,
                })))
            }
        }
    }
}

impl PullBoosted {
    /// The construction parameters of this level.
    pub fn params(&self) -> &BoostParams {
        &self.params
    }

    /// The sampling policy of this level.
    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// RNG used for planning: fresh randomness, or the per-node fixed stream
    /// of the pseudo-random variant.
    fn plan_rng(&self, node: NodeId, rng: &mut dyn RngCore) -> SmallRng {
        match self.sampling {
            Sampling::Sampled {
                fixed_seed: Some(seed),
                ..
            } => SmallRng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(node.index() as u64 + 1),
            ),
            _ => SmallRng::seed_from_u64(rng.next_u64()),
        }
    }

    fn king_pull_count(&self) -> usize {
        match self.sampling {
            Sampling::Full => 0, // kings are covered by the full pull
            Sampling::Sampled {
                king_mode: KingPullMode::All,
                ..
            } => self.params.pk().king_groups() as usize,
            Sampling::Sampled {
                king_mode: KingPullMode::Predicted,
                ..
            } => 1,
        }
    }
}

impl PullProtocol for PullCounter {
    type State = PullState;

    fn n(&self) -> usize {
        match self {
            PullCounter::Trivial(_) => 1,
            PullCounter::Boosted(b) => b.params.n_total(),
        }
    }

    fn plan_len(&self) -> usize {
        match self {
            PullCounter::Trivial(_) => 0,
            PullCounter::Boosted(b) => match b.sampling {
                Sampling::Full => b.params.n_total() - 1,
                Sampling::Sampled { m, .. } => {
                    b.inner.plan_len() + b.params.k() * m + m + b.king_pull_count()
                }
            },
        }
    }

    fn plan_into(
        &self,
        node: NodeId,
        state: &Self::State,
        rng: &mut dyn RngCore,
        out: &mut Vec<NodeId>,
    ) {
        match self {
            PullCounter::Trivial(_) => {}
            PullCounter::Boosted(b) => {
                let p = &b.params;
                match b.sampling {
                    Sampling::Full => {
                        out.extend((0..p.n_total()).map(NodeId::new).filter(|&u| u != node));
                    }
                    Sampling::Sampled { m, king_mode, .. } => {
                        let mut plan_rng = b.plan_rng(node, rng);
                        let (block, _local) = p.block_of(node);
                        let start = block * p.n_inner();
                        let me = state.boosted();
                        // 1. The inner counter's own pulls, appended in
                        //    place and then block-offset — no inner vector.
                        let inner_from = out.len();
                        b.inner.plan_into(
                            NodeId::new(node.index() - start),
                            &me.inner,
                            &mut plan_rng,
                            out,
                        );
                        for target in &mut out[inner_from..] {
                            *target = NodeId::new(start + target.index());
                        }
                        // 2. m samples per block for the leader votes.
                        for i in 0..p.k() {
                            for _ in 0..m {
                                let j = plan_rng.random_range(0..p.n_inner());
                                out.push(p.member(i, j));
                            }
                        }
                        // 3. m samples over all nodes for the phase-king tally.
                        for _ in 0..m {
                            out.push(NodeId::new(plan_rng.random_range(0..p.n_total())));
                        }
                        // 4. King candidates.
                        match king_mode {
                            KingPullMode::All => {
                                for g in 0..p.pk().king_groups() {
                                    out.push(p.pk().king_of_group(g));
                                }
                            }
                            KingPullMode::Predicted => {
                                let next_slot = (me.prev_slot + 1) % p.tau();
                                out.push(p.pk().king_of_group(next_slot / 3));
                            }
                        }
                    }
                }
            }
        }
    }

    fn pull_step(
        &self,
        node: NodeId,
        state: &Self::State,
        responses: &dyn PullResponses<Self::State>,
        ctx: &mut StepContext<'_>,
    ) -> Self::State {
        match self {
            PullCounter::Trivial(t) => PullState::Trivial(t.next(state.as_trivial())),
            PullCounter::Boosted(b) => {
                PullState::Boosted(Box::new(b.pull_step(node, state.boosted(), responses, ctx)))
            }
        }
    }

    fn output(&self, _node: NodeId, state: &Self::State) -> u64 {
        match self {
            PullCounter::Trivial(t) => state.as_trivial() % t.modulus(),
            PullCounter::Boosted(b) => state.boosted().regs.output(b.params.c_out()),
        }
    }

    fn random_state(&self, node: NodeId, rng: &mut dyn RngCore) -> Self::State {
        match self {
            PullCounter::Trivial(t) => PullState::Trivial(rng.next_u64() % t.modulus()),
            PullCounter::Boosted(b) => {
                let (_, local) = b.params.block_of(node);
                let inner = b.inner.random_state(NodeId::new(local), rng);
                let c = b.params.c_out();
                let a = if rng.random_bool(0.125) {
                    INFINITY
                } else {
                    rng.random_range(0..c)
                };
                PullState::Boosted(Box::new(PullBoostedState {
                    inner,
                    regs: PkRegisters::new(a, rng.random_bool(0.5)),
                    prev_slot: rng.random_range(0..b.params.tau()),
                }))
            }
        }
    }
}

/// Zero-allocation projection of a contiguous response range onto an inner
/// level: ids are rebased to block-local, states project to the inner field.
struct ProjectedInner<'a> {
    base: &'a dyn PullResponses<PullState>,
    offset: usize,
    len: usize,
    id_base: usize,
}

impl PullResponses<PullState> for ProjectedInner<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn target(&self, i: usize) -> NodeId {
        NodeId::new(self.base.target(self.offset + i).index() - self.id_base)
    }

    fn state(&self, i: usize) -> &PullState {
        &self.base.state(self.offset + i).boosted().inner
    }
}

/// Zero-allocation inner responses of a full-mode block: the block mates'
/// states in id order, skipping the node itself.
struct BlockResponses<'a> {
    states: &'a [&'a PullBoostedState],
    skip: usize,
}

impl BlockResponses<'_> {
    fn slot(&self, i: usize) -> usize {
        if i < self.skip {
            i
        } else {
            i + 1
        }
    }
}

impl PullResponses<PullState> for BlockResponses<'_> {
    fn len(&self) -> usize {
        self.states.len() - 1
    }

    fn target(&self, i: usize) -> NodeId {
        NodeId::new(self.slot(i))
    }

    fn state(&self, i: usize) -> &PullState {
        &self.states[self.slot(i)].inner
    }
}

impl PullBoosted {
    /// The transition of one node at this level.
    fn pull_step(
        &self,
        node: NodeId,
        me: &PullBoostedState,
        responses: &dyn PullResponses<PullState>,
        ctx: &mut StepContext<'_>,
    ) -> PullBoostedState {
        match self.sampling {
            Sampling::Full => self.full_step(node, me, responses, ctx),
            Sampling::Sampled { m, king_mode, .. } => {
                self.sampled_step(node, me, responses, ctx, m, king_mode)
            }
        }
    }

    /// Full pulling: reconstruct the broadcast view and run the
    /// deterministic §3 logic verbatim.
    fn full_step(
        &self,
        node: NodeId,
        me: &PullBoostedState,
        responses: &dyn PullResponses<PullState>,
        ctx: &mut StepContext<'_>,
    ) -> PullBoostedState {
        let p = &self.params;
        let n_total = p.n_total();
        // Rebuild the full state vector: responses are (all others, in id
        // order); own state fills the gap.
        let mut all: Vec<&PullBoostedState> = Vec::with_capacity(n_total);
        let mut next_response = 0;
        for v in 0..n_total {
            if v == node.index() {
                all.push(me);
            } else {
                debug_assert!(next_response < responses.len(), "full plan covers all");
                debug_assert_eq!(responses.target(next_response).index(), v);
                all.push(responses.state(next_response).boosted());
                next_response += 1;
            }
        }

        // 1. Inner update on the own block (full information).
        let (block, local) = p.block_of(node);
        let start = block * p.n_inner();
        let next_inner = self.full_inner_step(local, &all[start..start + p.n_inner()], ctx);

        // 2. Three-stage majority vote (§3.3).
        let b_of = |i: usize, j: usize| {
            let s = all[p.member(i, j).index()];
            let value = self.inner_output(j, &s.inner);
            p.pointer(i, value)
        };
        let mut block_support = Vec::with_capacity(p.k());
        for i in 0..p.k() {
            block_support.push(majority_or(
                (0..p.n_inner()).map(|j| b_of(i, j).b as u64),
                0,
            ));
        }
        let leader = majority_or(block_support.iter().copied(), 0) as usize;
        let slot = majority_or((0..p.n_inner()).map(|j| b_of(leader, j).r), 0);

        // 3. Phase king in counting mode.
        let tally: Tally = all.iter().map(|s| s.regs.a).collect();
        let king = p.pk().king_of_group(slot / 3);
        let king_value = all[king.index()].regs.a;
        let regs = execute_slot(
            &self.pk,
            me.regs,
            slot,
            &tally,
            king_value,
            IncrementMode::Counting,
        );

        PullBoostedState {
            inner: next_inner,
            regs,
            prev_slot: slot,
        }
    }

    /// Inner update in full mode: the inner protocol also runs in full mode,
    /// so its "responses" are the block-mates' states — projected by
    /// reference through a positional adapter, never cloned or collected.
    fn full_inner_step(
        &self,
        local: usize,
        block_states: &[&PullBoostedState],
        ctx: &mut StepContext<'_>,
    ) -> PullState {
        let inner_responses = BlockResponses {
            states: block_states,
            skip: local,
        };
        self.inner.pull_step(
            NodeId::new(local),
            &block_states[local].inner,
            &inner_responses,
            ctx,
        )
    }

    fn inner_output(&self, local: usize, state: &PullState) -> u64 {
        self.inner.output(NodeId::new(local), state)
    }

    /// §5.3 sampled step.
    fn sampled_step(
        &self,
        node: NodeId,
        me: &PullBoostedState,
        responses: &dyn PullResponses<PullState>,
        ctx: &mut StepContext<'_>,
        m: usize,
        king_mode: KingPullMode,
    ) -> PullBoostedState {
        let p = &self.params;
        let (block, _) = p.block_of(node);
        let start = block * p.n_inner();

        // Split the response vector structurally, by position.
        let inner_len = self.inner.plan_len();
        let block_off = inner_len;
        let pk_off = block_off + p.k() * m;
        let king_off = pk_off + m;
        let king_len = responses.len() - king_off;

        // 1. Inner update on the inner counter's own samples, projected to
        //    the inner state space by reference (the pulled nodes answered
        //    with their full state at *this* level).
        let inner_responses = ProjectedInner {
            base: responses,
            offset: 0,
            len: inner_len,
            id_base: start,
        };
        let next_inner = self.inner.pull_step(
            NodeId::new(node.index() - start),
            &me.inner,
            &inner_responses,
            ctx,
        );

        // 2. Sampled leader votes (Lemma 9): per-block majorities over the m
        //    samples, then the leader block, then its slot counter.
        let pointer_of = |sample: usize| {
            let (i, j) = p.block_of(responses.target(block_off + sample));
            let value = self.inner_output(j, &responses.state(block_off + sample).boosted().inner);
            p.pointer(i, value)
        };
        let mut block_support = Vec::with_capacity(p.k());
        for i in 0..p.k() {
            block_support.push(majority_or(
                (i * m..(i + 1) * m).map(|s| pointer_of(s).b as u64),
                0,
            ));
        }
        let leader = majority_or(block_support.iter().copied(), 0) as usize;
        let slot = majority_or((leader * m..(leader + 1) * m).map(|s| pointer_of(s).r), 0);

        // 3. Sampled phase king (Lemma 8): thresholds ⅔m / ⅓m.
        let tally: Tally = (0..m)
            .map(|i| responses.state(pk_off + i).boosted().regs.a)
            .collect();
        let king = p.pk().king_of_group(slot / 3);
        let king_pull = (0..king_len).find(|&i| responses.target(king_off + i) == king);
        let king_value = match king_mode {
            KingPullMode::All => {
                let i = king_pull.expect("all king candidates pulled");
                responses.state(king_off + i).boosted().regs.a
            }
            KingPullMode::Predicted => {
                king_pull.map_or(INFINITY, |i| responses.state(king_off + i).boosted().regs.a)
            }
        };
        let regs = execute_slot(
            &self.pk,
            me.regs,
            slot,
            &tally,
            king_value,
            IncrementMode::Counting,
        );

        PullBoostedState {
            inner: next_inner,
            regs,
            prev_slot: slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::CounterBuilder;

    fn a4() -> Algorithm {
        CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
    }

    #[test]
    fn full_plan_covers_all_other_nodes() {
        let pc = PullCounter::from_algorithm(&a4(), Sampling::Full).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let state = pc.random_state(NodeId::new(1), &mut rng);
        let plan = pc.plan(NodeId::new(1), &state, &mut rng);
        assert_eq!(plan.len(), pc.plan_len());
        assert_eq!(plan.len(), 3);
        assert!(!plan.contains(&NodeId::new(1)));
    }

    #[test]
    fn sampled_plan_has_the_declared_structure() {
        let sampling = Sampling::Sampled {
            m: 6,
            king_mode: KingPullMode::All,
            fixed_seed: None,
        };
        let pc = PullCounter::from_algorithm(&a4(), sampling).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let state = pc.random_state(NodeId::new(2), &mut rng);
        let plan = pc.plan(NodeId::new(2), &state, &mut rng);
        // inner (trivial: 0) + k·m (4·6) + m (6) + kings (F+2 = 3).
        assert_eq!(plan.len(), 24 + 6 + 3);
        assert_eq!(plan.len(), pc.plan_len());
    }

    #[test]
    fn predicted_kings_require_slack() {
        let sampling = Sampling::Sampled {
            m: 6,
            king_mode: KingPullMode::Predicted,
            fixed_seed: None,
        };
        assert!(PullCounter::from_algorithm(&a4(), sampling).is_err());
        let slack = CounterBuilder::trivial()
            .with_modulus(8)
            .with_king_slack(1)
            .boost_with_resilience(4, 1)
            .unwrap()
            .build()
            .unwrap();
        let pc = PullCounter::from_algorithm(&slack, sampling).unwrap();
        // One king pull instead of F+2+s = 4.
        assert_eq!(pc.plan_len(), 4 * 6 + 6 + 1);
    }

    #[test]
    fn fixed_seed_plans_repeat_every_round() {
        let sampling = Sampling::Sampled {
            m: 5,
            king_mode: KingPullMode::All,
            fixed_seed: Some(99),
        };
        let pc = PullCounter::from_algorithm(&a4(), sampling).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let state = pc.random_state(NodeId::new(0), &mut rng);
        let p1 = pc.plan(NodeId::new(0), &state, &mut rng);
        let p2 = pc.plan(NodeId::new(0), &state, &mut rng);
        assert_eq!(p1, p2);
        // Different nodes still sample differently.
        let s3 = pc.random_state(NodeId::new(3), &mut rng);
        let p3 = pc.plan(NodeId::new(3), &s3, &mut rng);
        assert_ne!(p1, p3);
    }

    #[test]
    fn lut_stacks_are_rejected() {
        use sc_core::LutSpec;
        let lut = Algorithm::lut(LutSpec {
            n: 1,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![vec![1, 0]],
            output: vec![vec![0, 1]],
            stabilization_bound: 0,
        })
        .unwrap();
        assert!(PullCounter::from_algorithm(&lut, Sampling::Full).is_err());
    }
}
