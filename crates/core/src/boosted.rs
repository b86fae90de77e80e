//! The resilience-boosting construction (Theorem 1, §3).

use rand::{Rng, RngCore};
use sc_consensus::instructions::{execute_slot, IncrementMode};
use sc_consensus::{PkRegisters, INFINITY};
use sc_protocol::{
    majority_or, Counter as _, MessageView, NodeId, ParamError, Rescan, StepContext,
    SyncProtocol as _,
};

use crate::algorithm::{Algorithm, CounterState, Window};
use crate::params::{BoostParams, Pointer};

/// One application of Theorem 1: a `C`-counter on `N = k·n` nodes tolerating
/// `F < (f+1)·⌈k/2⌉` faults, built from `k` block-local copies of an
/// `(n, f)`-counter.
///
/// Every round, node `v = (i, j)` (§3.5):
///
/// 1. advances its block's copy `A_i` of the inner counter on the states
///    received from its own block;
/// 2. interprets every received inner counter through the `(r, y, b)`
///    decomposition of §3.2 and takes the three-stage majority vote of §3.3
///    — per-block leader support `bᵢ`, global leader block `B`, and the
///    leader's slot counter `R`;
/// 3. executes instruction set `I_R` of the phase-king protocol (Table 2)
///    in counting mode on its `(a, d)` registers.
///
/// Once some honest-king group runs to completion inside a window where `R`
/// is common and incrementing (Lemmas 2–4), all correct registers agree and
/// count modulo `C` forever (Lemma 5).
///
/// Constructed via [`Algorithm::boosted`] or [`crate::CounterBuilder`].
#[derive(Clone, Debug)]
pub struct BoostedCounter {
    inner: Algorithm,
    params: BoostParams,
    /// Width of the `(a, d)` field, `⌈log₂(C+1)⌉ + 1`: how far below a
    /// node's word its inner counter's word starts.
    pub(crate) regs_bits: u32,
    /// `S(B) = S(A) + ⌈log(C+1)⌉ + 1`, the width of the whole word.
    pub(crate) state_bits: u32,
}

/// One node's view of the three-stage majority vote of §3.3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteObservation {
    /// `bᵢ` — the leader block each block currently supports (majority of
    /// its members' pointers; 0 when no majority exists).
    pub block_support: Vec<u64>,
    /// `B` — the elected leader block.
    pub leader: usize,
    /// `R` — the leader block's slot counter, selecting the phase-king
    /// instruction set `I_R`.
    pub slot: u64,
}

impl BoostedCounter {
    /// Wraps `inner` with the boosting layer described by `params`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when `inner` does not match `params`: its size
    /// must equal `params.n_inner()`, its resilience must be at least
    /// `params.f_inner()`, and its modulus must be a multiple of
    /// `params.c_req()`; or when the boosted state would not fit the 128
    /// bits of a [`CounterState`].
    pub fn new(inner: Algorithm, params: BoostParams) -> Result<Self, ParamError> {
        if inner.n() != params.n_inner() {
            return Err(ParamError::constraint(format!(
                "inner counter has {} nodes, blocks have {}",
                inner.n(),
                params.n_inner()
            )));
        }
        if inner.resilience() < params.f_inner() {
            return Err(ParamError::constraint(format!(
                "inner counter tolerates {} faults, construction assumes {}",
                inner.resilience(),
                params.f_inner()
            )));
        }
        if !inner.modulus().is_multiple_of(params.c_req()) {
            return Err(ParamError::constraint(format!(
                "inner modulus {} is not a multiple of c_req = {}",
                inner.modulus(),
                params.c_req()
            )));
        }
        let regs_bits = params.state_overhead_bits();
        let state_bits = inner.state_bits() + regs_bits;
        if state_bits > u128::BITS {
            return Err(ParamError::overflow(format!(
                "S = {} + {regs_bits} state bits in a {}-bit state word",
                inner.state_bits(),
                u128::BITS
            )));
        }
        Ok(BoostedCounter {
            inner,
            params,
            regs_bits,
            state_bits,
        })
    }

    /// The inner counter run by every block.
    pub fn inner(&self) -> &Algorithm {
        &self.inner
    }

    /// The construction parameters.
    pub fn params(&self) -> &BoostParams {
        &self.params
    }

    /// The block-local inner counter's state inside `state`.
    #[inline]
    pub fn inner_of(&self, state: CounterState) -> CounterState {
        CounterState::new(state.word() >> self.regs_bits)
    }

    /// The phase-king registers `(a, d)` inside `state`.
    #[inline]
    pub fn regs_of(&self, state: CounterState) -> PkRegisters {
        let raw = ((state.word() >> 1) & ((1 << (self.regs_bits - 1)) - 1)) as u64;
        let a = if raw == self.params.c_out() {
            INFINITY
        } else {
            raw
        };
        PkRegisters::new(a, state.word() & 1 == 1)
    }

    /// The state made of the inner counter's state `inner` and the registers
    /// `regs`: the `S(A) + ⌈log(C+1)⌉ + 1` bits of Theorem 1.
    ///
    /// # Panics
    ///
    /// Panics if `regs.a` is outside `[C] ∪ {∞}` (it would spill into the
    /// inner counter's bits).
    #[inline]
    pub fn with(&self, inner: CounterState, regs: PkRegisters) -> CounterState {
        let c = self.params.c_out();
        let raw = if regs.a == INFINITY { c } else { regs.a };
        assert!(raw <= c, "register a = {raw} outside [C] ∪ {{∞}}");
        debug_assert!(inner.word() >> (self.state_bits - self.regs_bits) == 0);
        CounterState::new(
            (inner.word() << self.regs_bits) | (u128::from(raw) << 1) | u128::from(regs.d),
        )
    }

    /// Lemma 5's configuration: at most F nodes lie outside `honest`, and
    /// every correct node of `honest` holds the same registers `(a, d = 1)`
    /// with a finite `a < C`.
    ///
    /// Table 2 maps such a node's `(a, 1)` to `(a + 1 mod C, 1)` in every
    /// instruction set, whatever slot it executes and whatever the ≤ F
    /// faulty nodes send: `I_{3ℓ}` sees ≥ N − F copies of `a`, `I_{3ℓ+1}`
    /// finds `a` the only value with more than F support, and `I_{3ℓ+2}`
    /// ignores the king when `d = 1`. The configuration therefore recurs
    /// every round, and the output — a function of `a` alone — counts
    /// modulo C from here to any horizon. (`sc-consensus`'s
    /// `table2_closure` suite checks the instruction sets exhaustively at
    /// small N.) With more than F faulty nodes the thresholds no longer
    /// hold, and the faulty nodes can break the agreement.
    pub fn closed(&self, states: &[CounterState], honest: &[NodeId]) -> bool {
        if honest.len() + self.params.f_total() < self.params.n_total() {
            return false;
        }
        // The registers are the low `regs_bits` of the word: `a` with
        // `∞ ↦ C` above `d` in bit 0.
        let regs = |id: &NodeId| states[id.index()].word() & ((1 << self.regs_bits) - 1);
        let Some(first) = honest.first().map(regs) else {
            return false;
        };
        first & 1 == 1
            && first >> 1 < u128::from(self.params.c_out())
            && honest.iter().all(|id| regs(id) == first)
    }

    /// The raw inner counter value node `local` of a block announces with
    /// this level's `state`: `h(j, state)` before any block-modulus
    /// reduction. The plain and the prepared step both vote with it.
    pub(crate) fn inner_value(&self, local: usize, state: CounterState) -> u64 {
        self.inner.output(NodeId::new(local), &self.inner_of(state))
    }

    /// The majority of what block `i`'s members vote — `vote` picks `b`
    /// (leader support `bᵢ`) or `r` (slot) off each member's pointer — or
    /// 0 without a majority.
    fn block_vote(&self, received: Window<'_, '_>, i: usize, vote: impl Fn(Pointer) -> u64) -> u64 {
        let p = &self.params;
        let votes = (0..p.n_inner()).map(|j| {
            let state = received.get(p.member(i, j).index());
            vote(p.pointer(i, self.inner_value(j, state)))
        });
        majority_or(votes, 0)
    }

    /// The three-stage majority vote of §3.3 as computed from a received
    /// state vector: per-block leader support `bᵢ`, the elected leader
    /// block `B`, and its slot counter `R`.
    ///
    /// This is exactly the voting step of the transition function, exposed
    /// for instrumentation — Lemma 3 (all correct nodes eventually share an
    /// incrementing `R` for ≥ τ rounds) is verified live against these
    /// observations in the integration tests and the E2 harness.
    pub fn observe(&self, view: &MessageView<'_, CounterState>) -> VoteObservation {
        let received = Window::top(view);
        let block_support: Vec<u64> = (0..self.params.k())
            .map(|i| self.block_vote(received, i, |ptr| ptr.b as u64))
            .collect();
        // B = majority{ bᵢ : i ∈ [k] }, R = majority{ r[B, j] : j ∈ [n] }.
        let leader = majority_or(block_support.iter().copied(), 0) as usize;
        VoteObservation {
            slot: self.block_vote(received, leader, |ptr| ptr.r),
            block_support,
            leader,
        }
    }

    /// The transition of this level's node `node` (§3.5). Called through
    /// [`Algorithm::step`](sc_protocol::SyncProtocol::step).
    pub(crate) fn step(
        &self,
        node: usize,
        received: Window<'_, '_>,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        let p = &self.params;
        let (block, local) = p.block_of(NodeId::new(node));

        // 1. Advance this block's copy of the inner counter on the block's
        // own window of the view: same words, read further down.
        let block_states = received.block(p.member(block, 0).index(), self.regs_bits);
        let next_inner = self.inner.step_in(local, block_states, ctx);

        // 2. Majority-vote the current slot R: `observe` without the record.
        let support = (0..p.k()).map(|i| self.block_vote(received, i, |ptr| ptr.b as u64));
        let slot = self.block_vote(received, majority_or(support, 0) as usize, |ptr| ptr.r);

        // 3. Execute instruction set I_R in counting mode on the received
        // a-registers as they stand: the tally z of Table 2, never tabled.
        let votes = Rescan((0..p.n_total()).map(|u| self.regs_of(received.get(u)).a));
        let king = p.pk().king_of_group(slot / 3);
        let king_value = self.regs_of(received.get(king.index())).a;
        let regs = execute_slot(
            p.pk(),
            self.regs_of(received.get(node)),
            slot,
            &votes,
            king_value,
            IncrementMode::Counting,
        );
        self.with(next_inner, regs)
    }

    /// Samples an arbitrary representable state (for self-stabilisation
    /// testing and adversarial message fabrication). No counter of the
    /// family has node-specific states, so none is named.
    pub(crate) fn random_state(&self, rng: &mut dyn RngCore) -> CounterState {
        let inner = self.inner.random_state(NodeId::new(0), rng);
        let c = self.params.c_out();
        let a = if rng.random_bool(0.125) {
            INFINITY
        } else {
            rng.random_range(0..c)
        };
        self.with(inner, PkRegisters::new(a, rng.random_bool(0.5)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterBuilder;

    #[test]
    fn construction_validates_the_inner_counter() {
        let params = BoostParams::new(1, 0, 4, 1, 8, 0).unwrap();
        // Wrong modulus: trivial counter must count mod a multiple of 2304.
        let bad = Algorithm::trivial(100).unwrap();
        assert!(BoostedCounter::new(bad, params.clone()).is_err());
        // Wrong size.
        let params12 = BoostParams::new(3, 0, 4, 1, 8, 0).unwrap();
        let small = Algorithm::trivial(params12.c_req()).unwrap();
        assert!(BoostedCounter::new(small, params12).is_err());
        // Correct.
        let good = Algorithm::trivial(2304).unwrap();
        assert!(BoostedCounter::new(good, params).is_ok());
    }

    #[test]
    fn theorem_1_cost_recurrences_hold() {
        // The next level (k = 3, F = 3) needs an inner modulus divisible by
        // c_req = 3(F+2)(2m)^k = 15 * 64 = 960.
        let a4 = CounterBuilder::corollary1(1, 960).unwrap().build().unwrap();
        let b = Algorithm::boosted(a4.clone(), 3, 3, 16, 0).unwrap();
        // S(B) = S(A) + ⌈log(C+1)⌉ + 1.
        assert_eq!(
            b.state_bits(),
            a4.state_bits() + sc_protocol::bits_for(17) + 1
        );
        // T(B) = T(A) + 3(F+2)(2m)^k.
        assert_eq!(b.stabilization_bound(), a4.stabilization_bound() + 960);
        assert_eq!(b.n(), 12);
        assert_eq!(b.resilience(), 3);
        assert_eq!(b.modulus(), 16);
    }
}
