//! Lowering [`Algorithm`] transitions to bit-sliced round programs.
//!
//! This is the compiler half of the sliced execution engine: given a counter
//! of the paper's family and a fault set, [`SlicedAlgorithm`] emits one
//! [`Program`] per distinct adversarial face pattern, advancing 64 scenarios
//! per machine word through the *exact* transition of §3–§4:
//!
//! * the trivial counter increments as a mux'd adder;
//! * LUT counters become one-hot row selectors over their tables;
//! * the boosted transition lowers the three-stage majority vote of §3.3 to
//!   popcount/threshold networks and the phase-king instruction sets of
//!   Table 2 to comparator trees over the *encoded* register domain, where
//!   the codec's `∞ ↦ C` mapping turns `min{C, a[ℓ]}` into the identity and
//!   the two increment flavours (guarded on `∞`, unguarded after a king
//!   adoption) into small mux networks.
//!
//! Two structural tricks keep programs small. With `m = ⌈k/2⌉ = 2` blocks
//! worth of leader candidates (every stack built by [`crate::CounterBuilder`]
//! has `k ∈ {3, 4}`), the leader pointer `b = (⌊v/τ⌋ / (2m)^i) mod m` of a
//! member of block `i` is just *bit `2i`* of the quotient `⌊v/τ⌋`, so block
//! support votes are single-plane popcounts. And for the innermost trivial
//! counter the lowering tracks `(⌊v/τ⌋, v mod τ)` incrementally in derived
//! "ext" planes of each bundle — updated by two mux'd adders per round
//! instead of a restoring division per member per compile.
//!
//! The scalar engine stays the oracle: `SlicedBatch` runs produce verdicts
//! through the same [`sc_sim::OnlineDetector`], and the tests here assert
//! bundle-for-bundle equality against [`Algorithm::step`] on every stack of
//! the paper's Figure 2.

use std::collections::HashMap;
use std::sync::Arc;

use sc_protocol::{
    bits_for, BitVec, Counter, FaceRef, NodeId, Program, RoundFaces, SlicedLayout, Space,
    SyncProtocol,
};
use sc_sim::{RoundProgramSource, SlicedProtocol};

use crate::algorithm::{Algorithm, CounterState};
use crate::boosted::BoostedCounter;
use crate::dag::{Builder, NodeRef};
use crate::params::BoostParams;

/// Largest LUT row count (`|X|^n`) the lowering will unroll into one-hot
/// selectors; larger tables fall back to the scalar engine.
const MAX_LUT_ROWS: u64 = 4096;

/// Round-program cache capacity. Search loops mutate scripts between
/// evaluations, so the stream of distinct face tables is unbounded; when
/// the cache fills it is dropped wholesale (hot tables recompile in one
/// round) rather than tracking recency per entry.
const MAX_CACHED_PROGRAMS: usize = 512;

/// Derived-plane tracking for the innermost trivial counter: its value `v`
/// is carried alongside as `(q, r) = (⌊v/τ⌋, v mod τ)` w.r.t. the parent
/// boosting layer's slot period `τ`, so the §3.2 pointer decomposition reads
/// ext planes instead of dividing.
#[derive(Clone, Copy, Debug)]
struct ExtSpec {
    /// Parent slot period `τ`.
    tau: u64,
    /// Quotient width: `v < c` and `c/τ` is a power of two, so `q` wraps
    /// naturally in `log₂(c/τ)` planes.
    qw: u16,
    /// Remainder width `bits_for(τ)`.
    rw: u16,
    /// Codec width of the trivial value (offset 0 of every bundle).
    trivial_bits: u16,
}

/// The ext planes apply when the innermost base is a trivial counter under
/// at least one boosting layer and its modulus is `τ · 2^j` — true for every
/// `CounterBuilder` stack, where `c = c_req = τ(2m)^k`.
fn ext_spec(algo: &Algorithm) -> Option<ExtSpec> {
    let mut parent: Option<&BoostedCounter> = None;
    let mut cur = algo;
    while let Algorithm::Boosted(b) = cur {
        parent = Some(b);
        cur = b.inner();
    }
    let (p, t) = match (parent, cur) {
        (Some(p), Algorithm::Trivial(t)) => (p, t),
        _ => return None,
    };
    let tau = p.params().tau();
    let c = t.modulus();
    if c % tau != 0 || !(c / tau).is_power_of_two() || c == tau {
        return None;
    }
    Some(ExtSpec {
        tau,
        qw: bits_for(c / tau) as u16,
        rw: bits_for(tau) as u16,
        trivial_bits: t.state_bits() as u16,
    })
}

/// Whether every layer of `algo` lowers: boosting layers need `m = 2`
/// (single-bit leader pointers) and LUT tables must be small enough to
/// unroll.
fn supported(algo: &Algorithm) -> bool {
    match algo {
        Algorithm::Trivial(_) => true,
        Algorithm::Lut(l) => (l.states() as u64)
            .checked_pow(l.spec().n as u32)
            .is_some_and(|rows| rows <= MAX_LUT_ROWS),
        Algorithm::Boosted(b) => b.params().m() == 2 && supported(b.inner()),
    }
}

/// Output field width of the whole protocol (values in `[0, c)`).
fn out_width(algo: &Algorithm) -> u32 {
    bits_for(algo.modulus()).max(1)
}

/// MSB-first integer value of bits `off..off+w` of a codec bit string.
fn field_value(bits: &BitVec, off: u32, w: u32) -> u64 {
    (0..w).fold(0, |acc, i| {
        (acc << 1) | u64::from(bits.bit((off + i) as usize))
    })
}

/// One received bundle as seen by one receiver: either live planes of an
/// input arena, or a lane-uniform constant bit string (which folds whole
/// sub-circuits away in the builder).
#[derive(Clone)]
enum BundleRef {
    Planes { space: Space, base: u32 },
    Uniform(Arc<BitVec>),
}

/// Next-state fields of one receiver, in codec encode order, plus the ext
/// planes of the innermost trivial counter (empty when untracked).
struct Lowered {
    state: Vec<NodeRef>,
    ext: Vec<NodeRef>,
}

/// Builder context threading the DAG and the bundle geometry through the
/// recursive lowering.
struct Ctx {
    b: Builder,
    ext: Option<ExtSpec>,
    state_bits: u32,
}

impl Ctx {
    /// Bits `off..off+w` of a bundle (state prefix offsets).
    fn field(&mut self, r: &BundleRef, off: u32, w: u16) -> NodeRef {
        match r {
            BundleRef::Planes { space, base } => self.b.input(*space, base + off, w),
            BundleRef::Uniform(bits) => {
                let v = field_value(bits, off, w as u32);
                self.b.constant(v, w)
            }
        }
    }

    /// Bits of the derived ext region (offsets relative to its base).
    fn ext_field(&mut self, r: &BundleRef, off: u32, w: u16) -> NodeRef {
        let sb = self.state_bits;
        self.field(r, sb + off, w)
    }

    /// A mux-chain table lookup `table[key]` (exactly one row matches a
    /// valid key; invalid keys resolve to row 0, unreachable for codec
    /// states).
    fn lookup(&mut self, key: NodeRef, table: &[u64], w: u16) -> NodeRef {
        let mut acc = self.b.constant(table[0], w);
        for (s, &v) in table.iter().enumerate().skip(1) {
            let e = self.b.eq_const(key, s as u64);
            let c = self.b.constant(v, w);
            acc = self.b.mux(e, c, acc);
        }
        acc
    }

    /// The raw inner counter value member `j` announces with bundle `r`
    /// (`h(j, state)` of the level's inner algorithm, in the encoded
    /// domain).
    fn member_value(&mut self, inner: &Algorithm, j: usize, r: &BundleRef) -> NodeRef {
        match inner {
            Algorithm::Trivial(t) => self.field(r, 0, t.state_bits() as u16),
            Algorithm::Lut(l) => {
                let st = self.field(r, 0, l.state_bits() as u16);
                let table: Vec<u64> = (0..l.states()).map(|s| l.output(j, s)).collect();
                self.lookup(st, &table, bits_for(l.spec().c).max(1) as u16)
            }
            Algorithm::Boosted(bc) => {
                let c = bc.params().c_out();
                let aw = bits_for(c + 1) as u16;
                let a = self.field(r, bc.inner().state_bits(), aw);
                let e = self.b.eq_const(a, c);
                let z = self.b.constant(0, aw);
                self.b.mux(e, z, a)
            }
        }
    }

    /// The leader-pointer bit of member `j` of `block`: with `m = 2`,
    /// `b = (⌊v/τ⌋ / 4^i) mod 2` is bit `2i` of the quotient.
    fn pointer_b_bit(
        &mut self,
        inner: &Algorithm,
        p: &BoostParams,
        block: usize,
        j: usize,
        r: &BundleRef,
    ) -> NodeRef {
        if let (Algorithm::Trivial(_), Some(e)) = (inner, self.ext) {
            debug_assert_eq!(e.tau, p.tau(), "ext tracks the innermost parent's τ");
            let q = self.ext_field(r, 0, e.qw);
            return self.b.slice(q, 2 * block as u16, 1);
        }
        if let Algorithm::Lut(l) = inner {
            let st = self.field(r, 0, l.state_bits() as u16);
            let table: Vec<u64> = (0..l.states())
                .map(|s| p.pointer(block, l.output(j, s)).b as u64)
                .collect();
            return self.lookup(st, &table, 1);
        }
        let v = self.member_value(inner, j, r);
        let (q, _) = self.b.divmod_const(v, p.tau());
        self.b.slice(q, 2 * block as u16, 1)
    }

    /// The slot residue `r = v mod τ` of member `j` (block-independent).
    fn pointer_r(
        &mut self,
        inner: &Algorithm,
        p: &BoostParams,
        j: usize,
        r: &BundleRef,
    ) -> NodeRef {
        if let (Algorithm::Trivial(_), Some(e)) = (inner, self.ext) {
            return self.ext_field(r, e.qw as u32, e.rw);
        }
        if let Algorithm::Lut(l) = inner {
            let st = self.field(r, 0, l.state_bits() as u16);
            let table: Vec<u64> = (0..l.states()).map(|s| l.output(j, s) % p.tau()).collect();
            return self.lookup(st, &table, bits_for(p.tau()) as u16);
        }
        let v = self.member_value(inner, j, r);
        self.b.divmod_const(v, p.tau()).1
    }

    /// Popcount with inputs split into receiver-shared and
    /// receiver-specific parts. A program lowers every receiver against
    /// the same honest bundles, so summing the shared bits as their own
    /// subtree makes it intern to one node across all receivers; a single
    /// mixed-order tree would interleave specific bits and break that
    /// sharing. The value is the plain sum either way.
    fn popcount_split(&mut self, shared: &[NodeRef], specific: &[NodeRef]) -> NodeRef {
        if shared.is_empty() {
            return self.b.popcount(specific);
        }
        if specific.is_empty() {
            return self.b.popcount(shared);
        }
        let s = self.b.popcount(shared);
        let x = self.b.popcount(specific);
        let w = self.b.width(s).max(self.b.width(x)) + 1;
        self.b.add_width(s, x, w)
    }

    /// The three-stage majority vote of §3.3: per-block support bits, the
    /// elected leader (one bit, `m = 2`), and the leader block's slot
    /// counter `R` as a strict-majority-or-zero select.
    ///
    /// `mask[u]` flags refs that vary per receiver (faulty senders); it
    /// steers the popcount splits only, never the values.
    fn vote_slot(&mut self, bc: &BoostedCounter, refs: &[BundleRef], mask: &[bool]) -> NodeRef {
        let p = bc.params();
        let (k, n) = (p.k(), p.n_inner());
        let rw = bits_for(p.tau()) as u16;

        let mut support = Vec::with_capacity(k);
        let mut support_shared = Vec::with_capacity(k);
        for i in 0..k {
            let mut shared = Vec::with_capacity(n);
            let mut specific = Vec::new();
            for j in 0..n {
                let u = p.member(i, j).index();
                let bit = self.pointer_b_bit(bc.inner(), p, i, j, &refs[u]);
                if mask[u] {
                    specific.push(bit);
                } else {
                    shared.push(bit);
                }
            }
            let all_shared = specific.is_empty();
            let pc = self.popcount_split(&shared, &specific);
            support.push(self.b.gt_const(pc, (n / 2) as u64));
            support_shared.push(all_shared);
        }
        let mut shared = Vec::with_capacity(k);
        let mut specific = Vec::new();
        for (&s, &is_shared) in support.iter().zip(&support_shared) {
            if is_shared {
                shared.push(s);
            } else {
                specific.push(s);
            }
        }
        let pc = self.popcount_split(&shared, &specific);
        let leader = self.b.gt_const(pc, (k / 2) as u64);

        // majority_or(·, 0): the strict-majority value is unique, so an
        // OR-fold of masked candidates reproduces it (and 0 by default).
        //
        // The leader bit is uniform across j, so the select distributes
        // over the whole majority network: compute majority_or per leader
        // candidate on the raw pointer arrays (mostly receiver-shared
        // nodes) and mux once at the end — majority over leader-muxed
        // values would poison every eq/popcount with the
        // receiver-specific leader bit and defeat cross-receiver CSE.
        let zero = self.b.constant(0, rw);
        let mut slots = [zero; 2];
        for (m, slot_m) in slots.iter_mut().enumerate() {
            let rs: Vec<NodeRef> = (0..n)
                .map(|j| {
                    let r = self.pointer_r(bc.inner(), p, j, &refs[p.member(m, j).index()]);
                    self.b.zext(r, rw)
                })
                .collect();
            let spec: Vec<bool> = (0..n).map(|j| mask[p.member(m, j).index()]).collect();
            let mut acc = zero;
            for j in 0..n {
                let mut shared = Vec::with_capacity(n);
                let mut specific = Vec::new();
                for u in 0..n {
                    let e = self.b.eq(rs[j], rs[u]);
                    if spec[u] {
                        specific.push(e);
                    } else {
                        shared.push(e);
                    }
                }
                let cnt = self.popcount_split(&shared, &specific);
                let maj = self.b.gt_const(cnt, (n / 2) as u64);
                let val = self.b.mux(maj, rs[j], zero);
                acc = self.b.or(acc, val);
            }
            *slot_m = acc;
        }
        self.b.mux(leader, slots[1], slots[0])
    }

    /// `(a + 1) mod C` on an encoded register that is known to hold a real
    /// value (possibly the transient cap `C` after a king adoption):
    /// `C ↦ 0`, `C + 1 ↦ 1`.
    fn inc_unguarded(&mut self, x: NodeRef, c: u64, aw: u16) -> NodeRef {
        let one = self.b.constant(1, 1);
        let t = self.b.add_width(x, one, aw + 1);
        let low = self.b.slice(t, 0, aw);
        let hit_c = self.b.eq_const(t, c);
        let hit_c1 = self.b.eq_const(t, c + 1);
        let zero = self.b.constant(0, aw);
        let onew = self.b.constant(1, aw);
        let wrapped = self.b.mux(hit_c1, onew, low);
        self.b.mux(hit_c, zero, wrapped)
    }

    /// The paper's `increment a[v]`: a no-op on `∞` (encoded as `C`),
    /// `(a + 1) mod C` otherwise.
    fn inc_guarded(&mut self, x: NodeRef, c: u64, aw: u16) -> NodeRef {
        let inc = self.inc_unguarded(x, c, aw);
        let is_inf = self.b.eq_const(x, c);
        let cap = self.b.constant(c, aw);
        self.b.mux(is_inf, cap, inc)
    }

    /// One phase-king slot (Table 2) in counting mode over the encoded
    /// register domain, selected per lane by the voted `slot`.
    fn pk_step(
        &mut self,
        bc: &BoostedCounter,
        local: usize,
        refs: &[BundleRef],
        slot: NodeRef,
        mask: &[bool],
    ) -> (NodeRef, NodeRef) {
        let p = bc.params();
        let pk = p.pk();
        let c = p.c_out();
        let aw = bits_for(c + 1) as u16;
        let a_off = bc.inner().state_bits();
        let n = p.n_total();

        let a_self = self.field(&refs[local], a_off, aw);
        let d_self = self.field(&refs[local], a_off + u32::from(aw), 1);
        let a_all: Vec<NodeRef> = (0..n).map(|u| self.field(&refs[u], a_off, aw)).collect();

        let (g, s3) = self.b.divmod_const(slot, 3);
        let is_collect = self.b.eq_const(s3, 0);
        let is_propose = self.b.eq_const(s3, 1);

        // z_{a[v]}, shared by I_{3ℓ} (keep test) and I_{3ℓ+1} (d update).
        // Split like the adoption counts below so the tree interns with
        // the `u == local` iteration there.
        let mut eq_shared = Vec::with_capacity(n);
        let mut eq_specific = Vec::new();
        for (v, &au) in a_all.iter().enumerate() {
            let e = self.b.eq(au, a_self);
            if mask[v] {
                eq_specific.push(e);
            } else {
                eq_shared.push(e);
            }
        }
        let cnt_own = self.popcount_split(&eq_shared, &eq_specific);
        let keep_own = self.b.ge_const(cnt_own, pk.keep_threshold() as u64);
        let cap = self.b.constant(c, aw);

        // I_{3ℓ}: reset to ∞ unless N−F support, then increment.
        let a_kept = self.b.mux(keep_own, a_self, cap);
        let a_collect = self.inc_guarded(a_kept, c, aw);

        // I_{3ℓ+1}: d from the keep test; adopt min{j : z_j > F} (∞ when
        // nothing qualifies — the fold's initial value, since enc(∞) = C
        // sorts above every real value).
        let mut a_min = cap;
        for u in 0..n {
            let mut shared = Vec::with_capacity(n);
            let mut specific = Vec::new();
            // Split on the *column* flag only: even when a_all[u] itself is
            // receiver-specific, the honest-column subtree coincides across
            // receivers whenever faulty sender u shows them the same face.
            for (v, &av) in a_all.iter().enumerate() {
                let e = self.b.eq(a_all[u], av);
                if mask[v] {
                    specific.push(e);
                } else {
                    shared.push(e);
                }
            }
            let cnt = self.popcount_split(&shared, &specific);
            let qual = self.b.gt_const(cnt, pk.adopt_threshold() as u64);
            let less = self.b.lt(a_all[u], a_min);
            let better = self.b.and(qual, less);
            a_min = self.b.mux(better, a_all[u], a_min);
        }
        let a_propose = self.inc_guarded(a_min, c, aw);

        // I_{3ℓ+2}: undecided nodes adopt min{C, a[ℓ]} — the identity on the
        // encoded king register — then increment as a *real* value; decided
        // nodes keep a (guarded increment).
        let groups = pk.king_groups();
        let mut king = a_all[groups as usize - 1];
        for l in (0..groups - 1).rev() {
            let e = self.b.eq_const(g, l);
            king = self.b.mux(e, a_all[l as usize], king);
        }
        let is_inf = self.b.eq_const(a_self, c);
        let nd = self.b.not(d_self);
        let undecided = self.b.or(is_inf, nd);
        let adopted = self.inc_unguarded(king, c, aw);
        let kept = self.inc_guarded(a_self, c, aw);
        let a_king = self.b.mux(undecided, adopted, kept);
        let one = self.b.constant(1, 1);

        let a_pk = self.b.mux(is_propose, a_propose, a_king);
        let a_next = self.b.mux(is_collect, a_collect, a_pk);
        let d_pk = self.b.mux(is_propose, keep_own, one);
        let d_next = self.b.mux(is_collect, d_self, d_pk);
        (a_next, d_next)
    }

    /// The full transition of `local` at one recursion level: next-state
    /// fields in encode order. `mask[u]` flags receiver-specific refs
    /// (see [`Ctx::popcount_split`]).
    fn step(
        &mut self,
        algo: &Algorithm,
        local: usize,
        refs: &[BundleRef],
        mask: &[bool],
    ) -> Lowered {
        match algo {
            Algorithm::Trivial(t) => {
                let tb = t.state_bits() as u16;
                let me = refs[local].clone();
                let v = self.field(&me, 0, tb);
                let one = self.b.constant(1, 1);
                let inc = self.b.add_width(v, one, tb);
                let wrap = self.b.eq_const(v, t.modulus() - 1);
                let zero = self.b.constant(0, tb);
                let next = self.b.mux(wrap, zero, inc);
                let mut ext = Vec::new();
                if let Some(e) = self.ext {
                    let q = self.ext_field(&me, 0, e.qw);
                    let r = self.ext_field(&me, e.qw as u32, e.rw);
                    let r_wrap = self.b.eq_const(r, e.tau - 1);
                    let rz = self.b.constant(0, e.rw);
                    let r_inc = self.b.add_width(r, one, e.rw);
                    let r_next = self.b.mux(r_wrap, rz, r_inc);
                    // q wraps naturally: c/τ is a power of two.
                    let q_inc = self.b.add_width(q, one, e.qw);
                    let q_next = self.b.mux(r_wrap, q_inc, q);
                    ext.push(q_next);
                    ext.push(r_next);
                }
                Lowered {
                    state: vec![next],
                    ext,
                }
            }
            Algorithm::Lut(l) => {
                let n = l.spec().n;
                let sb = l.state_bits() as u16;
                let states = l.states() as u64;
                let recv: Vec<NodeRef> = (0..n).map(|u| self.field(&refs[u], 0, sb)).collect();
                let rows = states.pow(n as u32);
                let mut acc = {
                    let v = l.next(local, vec![0u8; n]);
                    self.b.constant(u64::from(v), sb)
                };
                for row in 1..rows {
                    let mut x = row;
                    let mut cond: Option<NodeRef> = None;
                    let mut digits = Vec::with_capacity(n);
                    for &rcv in &recv {
                        let d = (x % states) as u8;
                        x /= states;
                        digits.push(d);
                        let e = self.b.eq_const(rcv, u64::from(d));
                        cond = Some(match cond {
                            None => e,
                            Some(cd) => self.b.and(cd, e),
                        });
                    }
                    let nxt = l.next(local, &digits);
                    let cv = self.b.constant(u64::from(nxt), sb);
                    acc = self.b.mux(cond.expect("n ≥ 1"), cv, acc);
                }
                Lowered {
                    state: vec![acc],
                    ext: Vec::new(),
                }
            }
            Algorithm::Boosted(bc) => {
                let p = bc.params();
                let (block, inner_local) = p.block_of(NodeId::new(local));
                let block_refs: Vec<BundleRef> = (0..p.n_inner())
                    .map(|j| refs[p.member(block, j).index()].clone())
                    .collect();
                let block_mask: Vec<bool> = (0..p.n_inner())
                    .map(|j| mask[p.member(block, j).index()])
                    .collect();
                let mut lowered = self.step(bc.inner(), inner_local, &block_refs, &block_mask);
                let slot = self.vote_slot(bc, refs, mask);
                let (a, d) = self.pk_step(bc, local, refs, slot, mask);
                lowered.state.push(a);
                lowered.state.push(d);
                lowered
            }
        }
    }

    /// The protocol output `h(node, next_state)` from the lowered next-state
    /// fields, at [`out_width`] planes.
    fn output_field(&mut self, algo: &Algorithm, node: usize, state: &[NodeRef]) -> NodeRef {
        let ow = out_width(algo) as u16;
        match algo {
            Algorithm::Trivial(_) => state[0],
            Algorithm::Lut(l) => {
                let table: Vec<u64> = (0..l.states()).map(|s| l.output(node, s)).collect();
                self.lookup(state[0], &table, ow)
            }
            Algorithm::Boosted(bc) => {
                let c = bc.params().c_out();
                let aw = bits_for(c + 1) as u16;
                let a = state[state.len() - 2];
                debug_assert_eq!(self.b.width(a), aw);
                let e = self.b.eq_const(a, c);
                let z = self.b.constant(0, aw);
                let out = self.b.mux(e, z, a);
                self.b.slice(out, 0, ow)
            }
        }
    }
}

/// Compiled sliced model of one ([`Algorithm`], fault set) pair: lowers the
/// exact recursive transition to word-op [`Program`]s, one per distinct
/// adversarial face pattern, and caches them.
///
/// Built through [`sc_sim::SlicedProtocol::sliced_model`] (implemented for
/// [`Algorithm`]); unsupported structures (a boosting layer with `m ≠ 2`, or
/// LUT tables above `MAX_LUT_ROWS` rows) return `None` there, keeping the
/// scalar engine as the semantic source of truth.
pub struct SlicedAlgorithm {
    algo: Algorithm,
    layout: SlicedLayout,
    faulty: Vec<NodeId>,
    ext: Option<ExtSpec>,
    packed: HashMap<u16, Option<Arc<BitVec>>>,
    cache: HashMap<RoundFaces, Arc<Program>>,
}

impl SlicedAlgorithm {
    fn new(algo: Algorithm, faulty: &[NodeId]) -> Option<Self> {
        if !supported(&algo) {
            return None;
        }
        let ext = ext_spec(&algo);
        let layout = SlicedLayout {
            n: algo.n() as u32,
            state_bits: algo.state_bits(),
            ext_bits: ext.map_or(0, |e| u32::from(e.qw) + u32::from(e.rw)),
            out_bits: out_width(&algo),
        };
        Some(SlicedAlgorithm {
            algo,
            layout,
            faulty: faulty.to_vec(),
            ext,
            packed: HashMap::new(),
            cache: HashMap::new(),
        })
    }

    /// Resolves what receiver `v` sees from sender `u` under `faces`.
    fn resolve(&self, u: usize, v: usize, faces: &RoundFaces) -> BundleRef {
        let n = self.layout.n as usize;
        match self.faulty.binary_search(&NodeId::new(u)) {
            Err(_) => BundleRef::Planes {
                space: Space::Cur,
                base: self.layout.node_base(u as u32),
            },
            Ok(g) => match faces.face(g, n, v) {
                FaceRef::Honest(d) => BundleRef::Planes {
                    space: Space::Cur,
                    base: self.layout.node_base(d),
                },
                FaceRef::Ring { lag, donor } => BundleRef::Planes {
                    space: Space::Ring(lag),
                    base: self.layout.node_base(donor),
                },
                FaceRef::Packed(id) => match self.packed.get(&id) {
                    Some(Some(bits)) => BundleRef::Uniform(bits.clone()),
                    _ => BundleRef::Planes {
                        space: Space::Packed(id),
                        base: 0,
                    },
                },
                FaceRef::Gather(t) => BundleRef::Planes {
                    space: Space::Gather(t),
                    base: 0,
                },
            },
        }
    }
}

impl RoundProgramSource for SlicedAlgorithm {
    fn layout(&self) -> SlicedLayout {
        self.layout
    }

    fn extend_bundle(&self, node: u32, bundle: &mut BitVec) {
        debug_assert_eq!(bundle.len() as u32, self.layout.state_bits);
        if let Some(e) = self.ext {
            let v = field_value(bundle, 0, u32::from(e.trivial_bits));
            bundle.push_bits(v / e.tau, u32::from(e.qw));
            bundle.push_bits(v % e.tau, u32::from(e.rw));
        }
        let state = bundle.reader().read_wide(self.layout.state_bits);
        let state = CounterState::new(state.expect("the bundle starts with a whole state"));
        let out = self.algo.output(NodeId::new(node as usize), &state);
        bundle.push_bits(out, self.layout.out_bits);
    }

    fn packed_registered(&self, id: u16) -> bool {
        self.packed.contains_key(&id)
    }

    fn register_packed(&mut self, id: u16, uniform: Option<&BitVec>) {
        let entry = uniform.map(|b| Arc::new(b.clone()));
        if let Some(prev) = self.packed.get(&id) {
            let same = match (prev, &entry) {
                (None, None) => true,
                (Some(a), Some(b)) => a.as_ref() == b.as_ref(),
                _ => false,
            };
            assert!(
                same,
                "packed bundle {id} re-registered with different content"
            );
            return;
        }
        self.packed.insert(id, entry);
    }

    fn round_program(&mut self, faces: &RoundFaces) -> Arc<Program> {
        if let Some(p) = self.cache.get(faces) {
            return p.clone();
        }
        let n = self.layout.n as usize;
        let mut ctx = Ctx {
            b: Builder::new(),
            ext: self.ext,
            state_bits: self.layout.state_bits,
        };
        let mut stores = Vec::new();
        // Faulty senders' refs depend on the receiver (their faces differ
        // per v); honest bundles are the same planes for every receiver.
        let mask: Vec<bool> = (0..n)
            .map(|u| self.faulty.binary_search(&NodeId::new(u)).is_ok())
            .collect();
        for v in 0..n {
            if self.faulty.binary_search(&NodeId::new(v)).is_ok() {
                continue;
            }
            let refs: Vec<BundleRef> = (0..n).map(|u| self.resolve(u, v, faces)).collect();
            let lowered = ctx.step(&self.algo, v, &refs, &mask);
            let mut off = self.layout.node_base(v as u32);
            for &f in &lowered.state {
                stores.push((f, off));
                off += u32::from(ctx.b.width(f));
            }
            assert_eq!(
                off,
                self.layout.node_base(v as u32) + self.layout.state_bits,
                "state fields must tile the codec width"
            );
            let mut eoff = self.layout.ext_base(v as u32);
            for &f in &lowered.ext {
                stores.push((f, eoff));
                eoff += u32::from(ctx.b.width(f));
            }
            assert_eq!(eoff, self.layout.ext_base(v as u32) + self.layout.ext_bits);
            let out = ctx.output_field(&self.algo, v, &lowered.state);
            debug_assert_eq!(u32::from(ctx.b.width(out)), self.layout.out_bits);
            stores.push((out, self.layout.out_base(v as u32)));
        }
        let program = Arc::new(ctx.b.finalize(&stores));
        if self.cache.len() >= MAX_CACHED_PROGRAMS {
            self.cache.clear();
        }
        self.cache.insert(faces.clone(), program.clone());
        program
    }
}

impl SlicedProtocol for Algorithm {
    fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>> {
        SlicedAlgorithm::new(self.clone(), faulty)
            .map(|m| Box::new(m) as Box<dyn RoundProgramSource + Send>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterBuilder, CounterState, LutSpec};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sc_protocol::{ExecSpaces, MessageView, PlaneBuf, StepContext};
    use sc_sim::{
        adversaries, sliced_crash, sliced_replay, sliced_two_faced_periodic, two_faced_periodic,
        Batch, BatchReport, Scenario, SimError, SlicedBatch,
    };

    fn a4() -> Algorithm {
        CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
    }

    fn a12() -> Algorithm {
        CounterBuilder::corollary1(1, 2)
            .unwrap()
            .boost(3)
            .unwrap()
            .build()
            .unwrap()
    }

    fn a36() -> Algorithm {
        CounterBuilder::corollary1(1, 2)
            .unwrap()
            .boost(3)
            .unwrap()
            .boost(3)
            .unwrap()
            .build()
            .unwrap()
    }

    /// Packs random configurations, advances `rounds` rounds through the
    /// all-honest round program, and asserts every node's full bundle
    /// (state, ext, out) equals the scalar `Algorithm::step` result
    /// re-extended from the codec — the strongest per-bit oracle we have.
    fn program_matches_scalar_step(algo: &Algorithm, rounds: usize, lanes: usize) {
        let n = algo.n();
        let mut model = algo.sliced_model(&[]).expect("stack should lower");
        let layout = model.layout();
        let mut rng = SmallRng::seed_from_u64(0xfeed);
        let mut states: Vec<Vec<CounterState>> = (0..lanes)
            .map(|_| {
                (0..n)
                    .map(|v| algo.random_state(NodeId::new(v), &mut rng))
                    .collect()
            })
            .collect();
        let mut cur = PlaneBuf::new(layout.total_planes() as usize, lanes.div_ceil(64));
        for (lane, config) in states.iter().enumerate() {
            for (v, state) in config.iter().enumerate() {
                let mut bits = BitVec::new();
                algo.encode_state(NodeId::new(v), state, &mut bits);
                model.extend_bundle(v as u32, &mut bits);
                cur.pack_lane(lane, layout.node_base(v as u32) as usize, &bits);
            }
        }
        let program = model.round_program(&RoundFaces::new(0, n));
        let mut scratch = Vec::new();
        for round in 0..rounds {
            let mut next = cur.clone();
            let spaces = ExecSpaces {
                cur: &cur,
                ring: &[],
                packed: &[],
                gather: &[],
            };
            program.exec(&spaces, &mut next, &mut scratch);
            for (lane, config) in states.iter_mut().enumerate() {
                let view = MessageView::new(config, &[]);
                let mut step_rng = SmallRng::seed_from_u64(0);
                let mut ctx = StepContext::new(&mut step_rng);
                let stepped: Vec<CounterState> = (0..n)
                    .map(|v| algo.step(NodeId::new(v), &view, &mut ctx))
                    .collect();
                for (v, state) in stepped.iter().enumerate() {
                    let mut want = BitVec::new();
                    algo.encode_state(NodeId::new(v), state, &mut want);
                    model.extend_bundle(v as u32, &mut want);
                    let mut got = BitVec::new();
                    next.unpack_lane(
                        lane,
                        layout.node_base(v as u32) as usize,
                        layout.node_planes() as usize,
                        &mut got,
                    );
                    assert_eq!(got, want, "round {round}, lane {lane}, node {v}");
                }
                *config = stepped;
            }
            cur = next;
        }
    }

    #[test]
    fn trivial_program_matches_scalar_step() {
        program_matches_scalar_step(&Algorithm::trivial(6).unwrap(), 8, 70);
    }

    #[test]
    fn lut_program_matches_scalar_step() {
        // A 2-node follow-the-max 4-counter as explicit tables.
        let states = 4u8;
        let rows =
            |f: &dyn Fn(u8, u8) -> u8| -> Vec<u8> { (0..16u8).map(|i| f(i % 4, i / 4)).collect() };
        let spec = LutSpec {
            n: 2,
            f: 0,
            c: 4,
            states,
            transition: vec![
                rows(&|a, b| (a.max(b) + 1) % 4),
                rows(&|a, b| (a.max(b) + 1) % 4),
            ],
            output: vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3]],
            stabilization_bound: 1,
        };
        program_matches_scalar_step(&Algorithm::lut(spec).unwrap(), 6, 64);
    }

    #[test]
    fn a4_program_matches_scalar_step() {
        program_matches_scalar_step(&a4(), 24, 64);
    }

    #[test]
    fn a12_program_matches_scalar_step() {
        program_matches_scalar_step(&a12(), 8, 64);
    }

    #[test]
    fn a36_program_matches_scalar_step() {
        program_matches_scalar_step(&a36(), 3, 64);
    }

    #[test]
    fn figure2_programs_write_every_plane_before_reading_it() {
        // The Figure-2 stacks with their fault sets, lowered under every
        // kind of face a strategy can show (honest echo, replay ring,
        // per-lane and lane-uniform packed bundles, gather tables): `exec`
        // reuses its arena unzeroed, which is sound only if no op reads a
        // plane an earlier op has not written.
        for (algo, faulty) in [
            (a4(), vec![1]),
            (a12(), vec![0, 1, 4]),
            (a36(), vec![0, 1, 2, 3, 4, 12, 24]),
        ] {
            let n = algo.n();
            let faulty: Vec<NodeId> = faulty.into_iter().map(NodeId::new).collect();
            let honest: Vec<u32> = (0..n as u32)
                .filter(|&v| !faulty.contains(&NodeId::new(v as usize)))
                .collect();
            let mut model = algo.sliced_model(&faulty).expect("stack should lower");
            let mut uniform = BitVec::new();
            algo.encode_state(
                NodeId::new(0),
                &algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(5)),
                &mut uniform,
            );
            model.extend_bundle(0, &mut uniform);
            model.register_packed(0, None);
            model.register_packed(1, Some(&uniform));
            let sources: [fn(u32, usize) -> FaceRef; 4] = [
                |d, _| FaceRef::Honest(d),
                |d, _| FaceRef::Ring { lag: 1, donor: d },
                |_, v| FaceRef::Packed((v % 2) as u16),
                |_, v| FaceRef::Gather((v % 3) as u8),
            ];
            let mut mixed = RoundFaces::new(faulty.len(), n);
            for (pattern, source) in sources.iter().enumerate() {
                let mut faces = RoundFaces::new(faulty.len(), n);
                for g in 0..faulty.len() {
                    for v in 0..n {
                        let donor = honest[(g + v) % honest.len()];
                        faces.set_face(g, n, v, source(donor, v));
                        if (g + v) % sources.len() == pattern {
                            mixed.set_face(g, n, v, source(donor, v));
                        }
                    }
                }
                let program = model.round_program(&faces);
                assert_eq!(program.unwritten_read(), None, "n = {n}, pattern {pattern}");
            }
            let program = model.round_program(&mixed);
            assert_eq!(program.unwritten_read(), None, "n = {n}, mixed faces");
        }
    }

    #[test]
    fn unsupported_structures_fall_back_to_none() {
        // k = 5 gives m = 3: leader pointers are no longer single bits.
        let inner = Algorithm::trivial(9 * 6u64.pow(5) * 4).unwrap();
        let wide = Algorithm::boosted(inner, 5, 1, 8, 0).unwrap();
        assert_eq!(wide.boosting_layer().unwrap().params().m(), 3);
        assert!(wide.sliced_model(&[]).is_none());
        // Supported stacks lower regardless of the fault set.
        assert!(a4().sliced_model(&[NodeId::new(1)]).is_some());
    }

    fn verdicts(report: &BatchReport) -> Vec<(u64, String)> {
        report
            .outcomes
            .iter()
            .map(|o| (o.seed, format!("{:?}", o.result)))
            .collect()
    }

    fn assert_sliced_matches_scalar<A, F, St>(
        algo: &Algorithm,
        horizon: u64,
        scenarios: &[Scenario<CounterState>],
        scalar: F,
        strategy: &St,
        label: &str,
    ) where
        A: sc_sim::Adversary<CounterState>,
        F: Fn(&Scenario<CounterState>) -> A + Sync,
        St: sc_sim::SlicedStrategy<CounterState> + Sync,
    {
        let scalar_report = Batch::new(algo, horizon).run(scenarios, scalar);
        let sliced_report = SlicedBatch::new(algo, horizon)
            .lane_words(1)
            .run(scenarios, strategy)
            .expect("stack should lower");
        assert_eq!(
            verdicts(&scalar_report),
            verdicts(&sliced_report),
            "{label}"
        );
    }

    #[test]
    fn a4_crash_matches_scalar_batch() {
        let algo = a4();
        let scenarios = Scenario::seeds(0..48);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&algo, [1], &seeds);
        assert_sliced_matches_scalar(
            &algo,
            2400,
            &scenarios,
            |s| adversaries::crash(&algo, [1], s.seed),
            &strategy,
            "crash",
        );
    }

    #[test]
    fn a4_replay_matches_scalar_batch() {
        let algo = a4();
        let scenarios = Scenario::seeds(0..32);
        for delay in [1usize, 3] {
            let strategy = sliced_replay(algo.n(), [3], delay);
            assert_sliced_matches_scalar(
                &algo,
                1200,
                &scenarios,
                |_| adversaries::replay::<CounterState>([3], delay),
                &strategy,
                &format!("replay delay {delay}"),
            );
        }
    }

    #[test]
    fn a4_two_faced_matches_scalar_batch() {
        let algo = a4();
        let scenarios = Scenario::seeds(0..32);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_two_faced_periodic(algo.n(), [0], &seeds, 2);
        assert_sliced_matches_scalar(
            &algo,
            1200,
            &scenarios,
            |s| two_faced_periodic([0], s.seed, 2),
            &strategy,
            "two-faced",
        );
    }

    #[test]
    fn a12_crash_matches_scalar_batch() {
        let algo = a12();
        let scenarios = Scenario::seeds(0..16);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&algo, [2, 7], &seeds);
        assert_sliced_matches_scalar(
            &algo,
            400,
            &scenarios,
            |s| adversaries::crash(&algo, [2, 7], s.seed),
            &strategy,
            "a12 crash",
        );
    }

    #[test]
    fn horizon_too_short_matches_scalar_contract() {
        let algo = a4();
        let scenarios = Scenario::seeds(0..3);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&algo, [1], &seeds);
        let report = SlicedBatch::new(&algo, 4)
            .run(&scenarios, &strategy)
            .unwrap();
        for outcome in &report.outcomes {
            assert!(matches!(
                outcome.result,
                Err(SimError::HorizonTooShort { .. })
            ));
        }
    }
}
