//! The runtime-recursive counter algorithm type.

use rand::RngCore;
use sc_consensus::INFINITY;
use sc_protocol::{
    BitReader, BitVec, CodecError, Counter, MessageView, NodeId, ParamError, StepContext,
    SyncProtocol,
};

use crate::boosted::BoostedCounter;
use crate::lut::{LutCounter, LutSpec};
use crate::params::BoostParams;
use crate::trivial::TrivialCounter;

/// A self-stabilising synchronous counter of this paper's family.
///
/// The recursion depth of Theorems 2–3 is chosen at runtime, so the
/// counter algebra is a closed enum rather than nested generic types:
///
/// * [`Algorithm::trivial`] — the one-node base counter,
/// * [`Algorithm::lut`] — a table-driven (synthesised) small counter,
/// * [`Algorithm::boosted`] — Theorem 1 applied to any inner `Algorithm`.
///
/// `Algorithm` implements [`SyncProtocol`] and [`Counter`], so any level of
/// the recursion runs directly on the simulator and reports its proven
/// bounds. Use [`crate::CounterBuilder`] for whole recursive stacks.
///
/// # Example
///
/// ```
/// use sc_core::Algorithm;
/// use sc_protocol::{Counter, SyncProtocol};
///
/// // A(4, 1): 4 blocks of the trivial counter (Corollary 1, f = 1).
/// let inner = Algorithm::trivial(2304)?; // 2304 = 3(F+2)·(2m)^k = 9·4^4
/// let a4 = Algorithm::boosted(inner, 4, 1, 8, 0)?;
/// assert_eq!(a4.n(), 4);
/// assert_eq!(a4.resilience(), 1);
/// assert_eq!(a4.modulus(), 8);
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// The trivial one-node counter.
    Trivial(TrivialCounter),
    /// A table-driven small counter.
    Lut(LutCounter),
    /// A Theorem 1 boosting layer over an inner algorithm.
    Boosted(Box<BoostedCounter>),
}

/// The state of one node running an [`Algorithm`]: the `S(A)` bits of the
/// paper as one machine word — the integer the codec writes, nothing else.
///
/// A trivial counter's word is its value, a table-driven counter's its
/// state index; a boosted counter's holds, from the top down, the inner
/// counter's word, the register `a` (`∞ ↦ C`) and the flag `d` in bit 0.
/// Only the algorithm knows the field widths, so fields are read through
/// it — [`Algorithm::trivial_of`], [`Algorithm::lut_of`],
/// [`BoostedCounter::inner_of`] and [`regs_of`](BoostedCounter::regs_of) —
/// and put together by [`BoostedCounter::with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CounterState(u128);

impl CounterState {
    /// The state whose packed word is `word`.
    pub const fn new(word: u128) -> Self {
        CounterState(word)
    }

    /// The packed word.
    pub const fn word(self) -> u128 {
        self.0
    }
}

/// One level's received vector inside the outermost view: the nodes
/// `offset..` of `view`, each word shifted down to that level's state. A
/// block's inner counter reads a deeper window of the same view, so no
/// level ever copies or collects states.
#[derive(Clone, Copy)]
pub(crate) struct Window<'v, 'a> {
    view: &'v MessageView<'a, CounterState>,
    offset: usize,
    shift: u32,
}

impl<'v, 'a> Window<'v, 'a> {
    /// The whole view, as the outermost algorithm receives it.
    pub(crate) fn top(view: &'v MessageView<'a, CounterState>) -> Self {
        Window {
            view,
            offset: 0,
            shift: 0,
        }
    }

    /// The state received from node `j` of this level.
    pub(crate) fn get(&self, j: usize) -> CounterState {
        CounterState(self.view.get(NodeId::new(self.offset + j)).0 >> self.shift)
    }

    /// The inner states of the block starting at this level's node
    /// `first`, `below` bits further down the words.
    pub(crate) fn block(&self, first: usize, below: u32) -> Self {
        Window {
            view: self.view,
            offset: self.offset + first,
            shift: self.shift + below,
        }
    }
}

impl Algorithm {
    /// The trivial one-node `c`-counter (§4.1).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when `c < 2`.
    pub fn trivial(c: u64) -> Result<Self, ParamError> {
        Ok(Algorithm::Trivial(TrivialCounter::new(c)?))
    }

    /// A table-driven counter from explicit transition/output tables.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the tables are malformed (see
    /// [`LutCounter::new`]).
    pub fn lut(spec: LutSpec) -> Result<Self, ParamError> {
        Ok(Algorithm::Lut(LutCounter::new(spec)?))
    }

    /// Theorem 1: boosts `inner` with `k` blocks to resilience `f_total`,
    /// output modulus `c_out`, and `king_slack` extra king groups
    /// (0 = paper-exact).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the preconditions of Theorem 1 fail (see
    /// [`BoostParams::new`]), `inner` does not match them (see
    /// [`BoostedCounter::new`]), or the boosted state would need more than
    /// the 128 bits of a [`CounterState`].
    pub fn boosted(
        inner: Algorithm,
        k: usize,
        f_total: usize,
        c_out: u64,
        king_slack: u64,
    ) -> Result<Self, ParamError> {
        let params =
            BoostParams::new(inner.n(), inner.resilience(), k, f_total, c_out, king_slack)?;
        Ok(Algorithm::Boosted(Box::new(BoostedCounter::new(
            inner, params,
        )?)))
    }

    /// The boosting layer, if this algorithm is a boosted counter.
    pub fn boosting_layer(&self) -> Option<&BoostedCounter> {
        match self {
            Algorithm::Boosted(b) => Some(b),
            _ => None,
        }
    }

    /// Number of boosting layers above the base counter.
    pub fn depth(&self) -> usize {
        match self {
            Algorithm::Boosted(b) => 1 + b.inner().depth(),
            _ => 0,
        }
    }

    /// The value a trivial counter's `state` holds.
    pub fn trivial_of(&self, state: CounterState) -> u64 {
        state.0 as u64
    }

    /// The state number a table-driven counter's `state` holds.
    pub fn lut_of(&self, state: CounterState) -> u8 {
        state.0 as u8
    }

    /// [`SyncProtocol::step`] of this level's node `node` on its window of
    /// the outermost view.
    pub(crate) fn step_in(
        &self,
        node: usize,
        received: Window<'_, '_>,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        match self {
            Algorithm::Trivial(t) => CounterState(t.next(received.get(node).0 as u64).into()),
            Algorithm::Lut(l) => {
                let received = (0..l.spec().n).map(|u| l.clamp(received.get(u).0 as u8));
                CounterState(l.next(node, received).into())
            }
            Algorithm::Boosted(b) => b.step(node, received, ctx),
        }
    }

    /// Checks every field of `state` against its domain, innermost first
    /// (the order the codec writes them).
    fn validate(&self, state: CounterState) -> Result<(), CodecError> {
        let word = state.0 as u64;
        let (field, value, valid) = match self {
            Algorithm::Trivial(t) => ("trivial counter", word, word < t.modulus()),
            Algorithm::Lut(l) => ("LUT state", word, word < u64::from(l.states())),
            Algorithm::Boosted(b) => {
                b.inner().validate(b.inner_of(state))?;
                let a = b.regs_of(state).a;
                let valid = a == INFINITY || a < b.params().c_out();
                ("phase-king register a", a, valid)
            }
        };
        if valid {
            Ok(())
        } else {
            Err(CodecError::InvalidField { field, value })
        }
    }
}

impl SyncProtocol for Algorithm {
    type State = CounterState;

    fn n(&self) -> usize {
        match self {
            Algorithm::Trivial(_) => 1,
            Algorithm::Lut(l) => l.spec().n,
            Algorithm::Boosted(b) => b.params().n_total(),
        }
    }

    fn step(
        &self,
        node: NodeId,
        view: &MessageView<'_, CounterState>,
        ctx: &mut StepContext<'_>,
    ) -> CounterState {
        self.step_in(node.index(), Window::top(view), ctx)
    }

    #[inline]
    fn output(&self, node: NodeId, state: &CounterState) -> u64 {
        match self {
            // In range unless fabricated; the division is for those.
            Algorithm::Trivial(t) if (state.0 as u64) < t.modulus() => state.0 as u64,
            Algorithm::Trivial(t) => state.0 as u64 % t.modulus(),
            Algorithm::Lut(l) => l.output(node.index(), state.0 as u8),
            Algorithm::Boosted(b) => b.regs_of(*state).output(b.params().c_out()),
        }
    }

    fn random_state(&self, node: NodeId, rng: &mut dyn RngCore) -> CounterState {
        assert!(node.index() < self.n(), "node {node} outside the network");
        match self {
            Algorithm::Trivial(t) => CounterState((rng.next_u64() % t.modulus()).into()),
            Algorithm::Lut(l) => CounterState(l.clamp(rng.next_u64() as u8).into()),
            Algorithm::Boosted(b) => b.random_state(rng),
        }
    }
}

impl Counter for Algorithm {
    fn modulus(&self) -> u64 {
        match self {
            Algorithm::Trivial(t) => t.modulus(),
            Algorithm::Lut(l) => l.spec().c,
            Algorithm::Boosted(b) => b.params().c_out(),
        }
    }

    fn resilience(&self) -> usize {
        match self {
            Algorithm::Trivial(_) => 0,
            Algorithm::Lut(l) => l.spec().f,
            Algorithm::Boosted(b) => b.params().f_total(),
        }
    }

    fn state_bits(&self) -> u32 {
        match self {
            Algorithm::Trivial(t) => t.state_bits(),
            Algorithm::Lut(l) => l.state_bits(),
            Algorithm::Boosted(b) => b.state_bits,
        }
    }

    fn stabilization_bound(&self) -> u64 {
        match self {
            Algorithm::Trivial(_) => 0,
            Algorithm::Lut(l) => l.spec().stabilization_bound,
            Algorithm::Boosted(b) => b.inner().stabilization_bound() + b.params().time_overhead(),
        }
    }

    fn encode_state(&self, _node: NodeId, state: &CounterState, out: &mut BitVec) {
        out.push_wide(state.0, self.state_bits());
    }

    /// Trivial: always — the one node increments its own value. Boosted:
    /// the outermost layer's registers agree on a finite `a` with `d = 1`
    /// ([`BoostedCounter::closed`], Lemma 5); the output reads `a` alone,
    /// so the layers beneath need not have stabilised. Table-driven: never,
    /// until a table's closed set is derived.
    fn closed(&self, states: &[CounterState], honest: &[NodeId]) -> bool {
        match self {
            Algorithm::Trivial(_) => true,
            Algorithm::Lut(_) => false,
            Algorithm::Boosted(b) => b.closed(states, honest),
        }
    }

    fn deterministic_transition(&self) -> bool {
        // Every counter of the §3–§4 constructions is deterministic: the
        // trivial counter increments, LUT counters index tables, and the
        // boosted transition is majority votes + phase-king instructions —
        // none touches the `StepContext` entropy source (the
        // `deterministic_protocols_replay_identically` tests enforce this).
        true
    }

    fn decode_state(
        &self,
        _node: NodeId,
        input: &mut BitReader<'_>,
    ) -> Result<CounterState, CodecError> {
        let state = CounterState(input.read_wide(self.state_bits())?);
        self.validate(state)?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sc_consensus::PkRegisters;

    #[test]
    fn trivial_counts_through_the_trait() {
        let a = Algorithm::trivial(5).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let states = vec![CounterState::new(4)];
        let view = MessageView::new(&states, &[]);
        let mut ctx = StepContext::new(&mut rng);
        let next = a.step(NodeId::new(0), &view, &mut ctx);
        assert_eq!(next, CounterState::new(0));
        assert_eq!(a.output(NodeId::new(0), &next), 0);
    }

    #[test]
    fn trivial_bounds() {
        let a = Algorithm::trivial(2304).unwrap();
        assert_eq!(a.state_bits(), 12);
        assert_eq!(a.stabilization_bound(), 0);
        assert_eq!(a.resilience(), 0);
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn codec_round_trip_trivial() {
        let a = Algorithm::trivial(100).unwrap();
        for v in [0u64, 1, 63, 99] {
            let s = CounterState::new(v.into());
            let mut bits = BitVec::new();
            a.encode_state(NodeId::new(0), &s, &mut bits);
            assert_eq!(bits.len() as u32, a.state_bits());
            let back = a.decode_state(NodeId::new(0), &mut bits.reader()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn codec_rejects_out_of_range_trivial() {
        let a = Algorithm::trivial(100).unwrap();
        let mut bits = BitVec::new();
        bits.push_bits(101, 7);
        assert!(a.decode_state(NodeId::new(0), &mut bits.reader()).is_err());
    }

    #[test]
    fn boosted_codec_round_trips_random_states() {
        let inner = Algorithm::trivial(2304).unwrap();
        let a = Algorithm::boosted(inner, 4, 1, 8, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        for node in 0..4 {
            for _ in 0..50 {
                let id = NodeId::new(node);
                let s = a.random_state(id, &mut rng);
                let mut bits = BitVec::new();
                a.encode_state(id, &s, &mut bits);
                assert_eq!(bits.len() as u32, a.state_bits(), "codec width = S(A)");
                let back = a.decode_state(id, &mut bits.reader()).unwrap();
                assert_eq!(back, s);
            }
        }
    }

    #[test]
    fn a_state_is_the_word_the_codec_writes() {
        let a4 = Algorithm::boosted(Algorithm::trivial(2304).unwrap(), 4, 1, 8, 0).unwrap();
        let b = a4.boosting_layer().unwrap();
        // 12 bits of inner counter, a = 5 in 4 bits, d = 1.
        let s = b.with(CounterState::new(2303), PkRegisters::new(5, true));
        assert_eq!(s.word(), 2303 << 5 | 5 << 1 | 1);
        assert_eq!(b.inner().trivial_of(b.inner_of(s)), 2303);
        assert_eq!(b.regs_of(s), PkRegisters::new(5, true));
        // ∞ is stored as C.
        let reset = b.with(CounterState::new(0), PkRegisters::reset());
        assert_eq!(reset.word(), 8 << 1);
        assert_eq!(b.regs_of(reset), PkRegisters::reset());
        assert_eq!(Algorithm::lut_of(&lut2(), CounterState::new(1)), 1);
    }

    fn lut2() -> Algorithm {
        Algorithm::lut(LutSpec {
            n: 1,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![vec![1, 0]],
            output: vec![vec![0, 1]],
            stabilization_bound: 0,
        })
        .unwrap()
    }

    #[test]
    fn states_wider_than_the_word_are_refused() {
        // Two levels whose registers alone take 65 bits each: 12 + 65 fits,
        // 12 + 65 + 65 = 142 bits does not.
        let wide = 960u64 << 54; // a multiple of the next level's c_req = 960
        let a4 = Algorithm::boosted(Algorithm::trivial(2304).unwrap(), 4, 1, wide, 0).unwrap();
        assert_eq!(a4.state_bits(), 12 + 65);
        let err = Algorithm::boosted(a4.clone(), 3, 3, wide, 0).unwrap_err();
        assert!(matches!(err, ParamError::Overflow { .. }), "{err}");
        // At an ordinary modulus the same stack builds.
        assert_eq!(Algorithm::boosted(a4, 3, 3, 2, 0).unwrap().state_bits(), 80);
    }
}
