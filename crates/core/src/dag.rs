//! Hash-consing DAG builder lowering transitions to bit-sliced word ops.
//!
//! The sliced engine (`sc-sim`'s `SlicedBatch`) executes flat
//! [`sc_protocol::Program`] bytecode; this module is the compiler that
//! produces it. A [`Builder`] grows an SSA DAG of word-level nodes
//! (AND/OR/XOR/MUX, comparators, ripple adders, slices, and two fused
//! nodes: division by a constant and an at-least-`k`-of-a-multiset
//! threshold) with two load-bearing properties:
//!
//! * **Hash-consing (CSE).** Every node is canonicalised (commutative
//!   operand ordering, threshold operands sorted as a multiset) and
//!   deduplicated, so the per-receiver lowering in
//!   [`crate::SlicedAlgorithm`](crate::Algorithm) can be written naively —
//!   shared honest sub-computations (pairwise equalities, thresholds,
//!   divmods) collapse into a single node automatically.
//! * **Constant folding.** Lane-uniform inputs (packed raw-value palettes,
//!   crash faces) are [`Builder::constant`]s, and every operator folds
//!   constant operands, so entire adversarial sub-circuits evaporate at
//!   compile time instead of costing word ops every round.
//!
//! [`Builder::finalize`] dead-code-eliminates from the store roots, assigns
//! contiguous scratch planes per live node (MSB-first, matching
//! [`sc_protocol::PlaneBuf`] packing) and emits the bytecode.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sc_protocol::{bits_for, Op, Program, Space};

/// Multiply-xor hasher (the rustc-hash idiom). Interning is the compile
/// hot path — every lowered sub-expression probes the CSE map — and the
/// default SipHash dominates it; node keys are small fixed-size structs,
/// exactly the shape this hasher is good at. The sliced model's program
/// cache keys on face tables with it too (one probe per executed round).
#[derive(Default)]
pub(crate) struct FxHasher(u64);

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

/// Reference to a node in a [`Builder`] DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

/// The node kinds of the word-op DAG. Internal; exposed only through
/// [`Builder`] methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Input {
        space: Space,
        off: u32,
        w: u16,
    },
    Const {
        value: u64,
        w: u16,
    },
    Not(NodeRef),
    And(NodeRef, NodeRef),
    Or(NodeRef, NodeRef),
    Xor(NodeRef, NodeRef),
    Mux {
        c: NodeRef,
        a: NodeRef,
        b: NodeRef,
    },
    Eq(NodeRef, NodeRef),
    Lt(NodeRef, NodeRef),
    Add {
        a: NodeRef,
        b: NodeRef,
        w: u16,
    },
    /// `a / d` (high planes) and `a mod d` (low `bits_for(d)` planes).
    DivMod {
        a: NodeRef,
        d: u32,
    },
    /// At least `k` of the single planes `lists[list..list + len]`.
    AtLeast {
        list: u32,
        len: u16,
        k: u16,
    },
    /// `(a >> lo) & ((1 << w) - 1)` — contiguous planes in MSB-first layout.
    Slice {
        a: NodeRef,
        lo: u16,
        w: u16,
    },
}

/// Hash-consing builder of bit-sliced word-op programs.
///
/// # Example
///
/// ```
/// use sc_core::Builder;
/// use sc_protocol::Space;
///
/// let mut b = Builder::new();
/// let x = b.input(Space::Cur, 0, 4);
/// let one = b.constant(1, 1);
/// let inc = b.add_width(x, one, 5);
/// let prog = b.finalize(&[(inc, 0)]);
/// assert!(prog.arena_planes >= 5);
/// ```
#[derive(Default)]
pub struct Builder {
    nodes: Vec<Node>,
    widths: Vec<u16>,
    cache: FxHashMap<Node, NodeRef>,
    /// Threshold operand lists, back to back; a node names its range.
    lists: Vec<NodeRef>,
    /// Interned lists (sorted multisets) to their start in `lists`, so
    /// equal multisets give equal [`Node::AtLeast`] keys.
    list_starts: FxHashMap<Vec<NodeRef>, u32>,
}

impl Builder {
    /// An empty DAG.
    pub fn new() -> Self {
        Builder::default()
    }

    /// Result width (in planes) of `a`.
    pub fn width(&self, a: NodeRef) -> u16 {
        self.widths[a.0 as usize]
    }

    /// The constant value of `a`, when it folded to one.
    pub fn as_const(&self, a: NodeRef) -> Option<u64> {
        match self.nodes[a.0 as usize] {
            Node::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Number of nodes built so far (CSE-deduplicated).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been built.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn intern(&mut self, node: Node, w: u16) -> NodeRef {
        if let Some(&r) = self.cache.get(&node) {
            return r;
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.widths.push(w);
        self.cache.insert(node, r);
        r
    }

    /// A load from an input arena: `w` planes at `off` in `space`.
    pub fn input(&mut self, space: Space, off: u32, w: u16) -> NodeRef {
        self.intern(Node::Input { space, off, w }, w)
    }

    /// A lane-uniform constant of `w` planes.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `w` bits.
    pub fn constant(&mut self, value: u64, w: u16) -> NodeRef {
        assert!(
            w as u32 >= 64 || value < (1u64 << w),
            "constant {value} does not fit in {w} bits"
        );
        self.intern(Node::Const { value, w }, w)
    }

    fn mask(w: u16) -> u64 {
        if w as u32 >= 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: NodeRef) -> NodeRef {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(!v & Self::mask(w), w);
        }
        if let Node::Not(inner) = self.nodes[a.0 as usize] {
            return inner;
        }
        self.intern(Node::Not(a), w)
    }

    fn logic(
        &mut self,
        a: NodeRef,
        b: NodeRef,
        f: fn(u64, u64) -> u64,
        make: fn(NodeRef, NodeRef) -> Node,
    ) -> NodeRef {
        let w = self.width(a);
        assert_eq!(w, self.width(b), "logic op width mismatch");
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(f(x, y) & Self::mask(w), w);
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(make(a, b), w)
    }

    /// Bitwise AND (equal widths).
    pub fn and(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return a;
        }
        for (x, y) in [(a, b), (b, a)] {
            match self.as_const(x) {
                Some(0) => return self.constant(0, w),
                Some(v) if v == Self::mask(w) => return y,
                _ => {}
            }
        }
        self.logic(a, b, |x, y| x & y, Node::And)
    }

    /// Bitwise OR (equal widths).
    pub fn or(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return a;
        }
        for (x, y) in [(a, b), (b, a)] {
            match self.as_const(x) {
                Some(0) => return y,
                Some(v) if v == Self::mask(w) => return self.constant(Self::mask(w), w),
                _ => {}
            }
        }
        self.logic(a, b, |x, y| x | y, Node::Or)
    }

    /// Bitwise XOR (equal widths).
    pub fn xor(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        let w = self.width(a);
        if a == b {
            return self.constant(0, w);
        }
        for (x, y) in [(a, b), (b, a)] {
            if self.as_const(x) == Some(0) {
                return y;
            }
        }
        self.logic(a, b, |x, y| x ^ y, Node::Xor)
    }

    /// Per-lane select: `c ? a : b`. `c` must be 1 plane; `a`/`b` equal
    /// widths.
    pub fn mux(&mut self, c: NodeRef, a: NodeRef, b: NodeRef) -> NodeRef {
        assert_eq!(self.width(c), 1, "mux condition must be one plane");
        let w = self.width(a);
        assert_eq!(w, self.width(b), "mux arm width mismatch");
        match self.as_const(c) {
            Some(1) => return a,
            Some(0) => return b,
            _ => {}
        }
        if a == b {
            return a;
        }
        if w == 1 {
            // 1-bit arms reduce to pure logic, unlocking further folding.
            if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
                return match (x, y) {
                    (1, 0) => c,
                    (0, 1) => self.not(c),
                    _ => unreachable!("consts folded by the arms above"),
                };
            }
        }
        self.intern(Node::Mux { c, a, b }, w)
    }

    /// Single-plane `a == b`; the narrower operand is zero-extended.
    pub fn eq(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == b {
            return self.constant(1, 1);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from(x == y), 1);
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Node::Eq(a, b), 1)
    }

    /// Single-plane unsigned `a < b`; the narrower operand is zero-extended.
    pub fn lt(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        if a == b {
            return self.constant(0, 1);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from(x < y), 1);
        }
        self.intern(Node::Lt(a, b), 1)
    }

    /// `(a + b) mod 2^w` with result width `w`; operands zero-extend.
    pub fn add_width(&mut self, a: NodeRef, b: NodeRef, w: u16) -> NodeRef {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.wrapping_add(y) & Self::mask(w), w);
        }
        if self.as_const(a) == Some(0) && self.width(b) == w {
            return b;
        }
        if self.as_const(b) == Some(0) && self.width(a) == w {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.intern(Node::Add { a, b, w }, w)
    }

    /// `(a >> lo) & ((1 << w) - 1)`: bits `lo..lo+w` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the slice reaches past `a`'s width.
    pub fn slice(&mut self, a: NodeRef, lo: u16, w: u16) -> NodeRef {
        let aw = self.width(a);
        assert!(lo + w <= aw, "slice {lo}..{} exceeds width {aw}", lo + w);
        if lo == 0 && w == aw {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant((v >> lo) & Self::mask(w), w);
        }
        if let Node::Slice {
            a: inner, lo: l0, ..
        } = self.nodes[a.0 as usize]
        {
            return self.slice(inner, l0 + lo, w);
        }
        self.intern(Node::Slice { a, lo, w }, w)
    }

    // ---- derived helpers ------------------------------------------------

    /// `a == v` for a constant `v` (any width relation).
    pub fn eq_const(&mut self, a: NodeRef, v: u64) -> NodeRef {
        let w = (bits_for(v + 1).max(1)) as u16;
        let c = self.constant(v, w);
        self.eq(a, c)
    }

    /// Single-plane "at least `k` of `bits` are set", one fused
    /// [`Op::AtLeast`]. `bits` is a multiset of single planes: order does
    /// not matter (it is sorted for CSE) and a repeated node counts once per
    /// occurrence. Constant bits fold into `k`, and thresholds every lane
    /// meets (`k = 0`) or none can (`k` above the remaining count) fold to
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics if an input is wider than one plane or more than `u16::MAX`
    /// inputs remain after folding.
    pub fn at_least(&mut self, bits: &[NodeRef], k: usize) -> NodeRef {
        let mut k = k;
        let mut list = Vec::with_capacity(bits.len());
        for &b in bits {
            assert_eq!(self.width(b), 1, "threshold inputs must be single planes");
            match self.as_const(b) {
                Some(1) => k = k.saturating_sub(1),
                Some(_) => {}
                None => list.push(b),
            }
        }
        if k == 0 {
            return self.constant(1, 1);
        }
        if k > list.len() {
            return self.constant(0, 1);
        }
        if list.len() == 1 {
            return list[0];
        }
        list.sort_unstable();
        let len = u16::try_from(list.len()).expect("threshold list exceeds u16::MAX planes");
        let list = match self.list_starts.get(&list) {
            Some(&start) => start,
            None => {
                let start = self.lists.len() as u32;
                self.lists.extend_from_slice(&list);
                self.list_starts.insert(list, start);
                start
            }
        };
        self.intern(
            Node::AtLeast {
                list,
                len,
                k: k as u16,
            },
            1,
        )
    }

    /// Division by a constant: returns `(a / d, a % d)`, both slices of one
    /// fused [`Op::DivMod`] node.
    ///
    /// The remainder has width `bits_for(d)`, the quotient `width(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2` or `d ≥ 2^31`.
    pub fn divmod_const(&mut self, a: NodeRef, d: u64) -> (NodeRef, NodeRef) {
        assert!((2..1 << 31).contains(&d), "divisor {d} out of range");
        let qw = self.width(a);
        let rw = bits_for(d) as u16;
        if let Some(v) = self.as_const(a) {
            return (self.constant(v / d, qw), self.constant(v % d, rw));
        }
        let node = self.intern(Node::DivMod { a, d: d as u32 }, qw + rw);
        (self.slice(node, rw, qw), self.slice(node, 0, rw))
    }

    /// DCE from the store roots, then emits bytecode.
    ///
    /// `stores` lists `(node, next_arena_plane_offset)` pairs; each live
    /// node gets a contiguous scratch range, topologically ordered by
    /// construction.
    pub fn finalize(&mut self, stores: &[(NodeRef, u32)]) -> Program {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeRef> = stores.iter().map(|&(r, _)| r).collect();
        while let Some(r) = stack.pop() {
            let i = r.0 as usize;
            if live[i] {
                continue;
            }
            live[i] = true;
            match self.nodes[i] {
                Node::Input { .. } | Node::Const { .. } => {}
                Node::Not(a) | Node::Slice { a, .. } | Node::DivMod { a, .. } => stack.push(a),
                Node::And(a, b)
                | Node::Or(a, b)
                | Node::Xor(a, b)
                | Node::Eq(a, b)
                | Node::Lt(a, b)
                | Node::Add { a, b, .. } => {
                    stack.push(a);
                    stack.push(b);
                }
                Node::AtLeast { list, len, .. } => {
                    stack.extend_from_slice(&self.lists[list as usize..][..len as usize]);
                }
                Node::Mux { c, a, b } => {
                    stack.push(c);
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        let mut offset = vec![u32::MAX; self.nodes.len()];
        let mut arena = 0u32;
        for i in 0..self.nodes.len() {
            if !live[i] {
                continue;
            }
            // A slice is a contiguous sub-range of its (earlier, hence
            // already placed) operand: alias it instead of copying. The
            // arena is SSA — every plane is written exactly once — so
            // read-only aliases are safe.
            if let Node::Slice { a, lo, w } = self.nodes[i] {
                let aw = self.widths[a.0 as usize];
                offset[i] = offset[a.0 as usize] + (aw - lo - w) as u32;
                continue;
            }
            offset[i] = arena;
            arena += self.widths[i] as u32;
        }
        let mut ops = Vec::new();
        let mut operands = Vec::new();
        // Each interned list is emitted once, however many thresholds use it.
        let mut emitted: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..self.nodes.len() {
            if !live[i] {
                continue;
            }
            let dst = offset[i];
            let w = self.widths[i];
            let pos = |r: NodeRef| offset[r.0 as usize];
            let wid = |r: NodeRef| self.widths[r.0 as usize];
            match self.nodes[i] {
                Node::Input { space, off, w } => ops.push(Op::Load { dst, space, off, w }),
                Node::Const { value, w } => ops.push(Op::Const { dst, value, w }),
                Node::Not(a) => ops.push(Op::Not { dst, a: pos(a), w }),
                Node::And(a, b) => ops.push(Op::And {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Or(a, b) => ops.push(Op::Or {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Xor(a, b) => ops.push(Op::Xor {
                    dst,
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Mux { c, a, b } => ops.push(Op::Mux {
                    dst,
                    c: pos(c),
                    a: pos(a),
                    b: pos(b),
                    w,
                }),
                Node::Eq(a, b) => ops.push(Op::Eq {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                }),
                Node::Lt(a, b) => ops.push(Op::Lt {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                }),
                Node::Add { a, b, w } => ops.push(Op::Add {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    b: pos(b),
                    bw: wid(b),
                    w,
                }),
                Node::DivMod { a, d } => ops.push(Op::DivMod {
                    dst,
                    a: pos(a),
                    aw: wid(a),
                    d,
                }),
                Node::AtLeast { list, len, k } => {
                    let list = *emitted.entry(list).or_insert_with(|| {
                        let at = operands.len() as u32;
                        let members = &self.lists[list as usize..][..len as usize];
                        operands.extend(members.iter().map(|&r| pos(r)));
                        at
                    });
                    ops.push(Op::AtLeast { dst, list, len, k });
                }
                // Slices are offset aliases into their operand (resolved
                // during placement above): no op, no copy.
                Node::Slice { .. } => {}
            }
        }
        for &(r, off) in stores {
            ops.push(Op::Store {
                src: offset[r.0 as usize],
                off,
                w: self.widths[r.0 as usize],
            });
        }
        let program = Program {
            ops,
            operands,
            arena_planes: arena,
        };
        // Nodes are emitted in creation order, which is topological, and
        // each writes its whole range (slices alias a written range), so
        // every plane is written before it is read — what lets
        // `Program::exec` skip zeroing its arena.
        debug_assert_eq!(
            program.unwritten_read(),
            None,
            "a finalized op reads a scratch plane no earlier op wrote"
        );
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_protocol::{BitVec, ExecSpaces, PlaneBuf};

    fn run_on_lanes(prog: &Program, cur: &PlaneBuf, out_planes: usize) -> PlaneBuf {
        let mut next = PlaneBuf::new(out_planes, cur.lane_words());
        let spaces = ExecSpaces {
            cur,
            ring: &[],
            packed: &[],
            gather: &[],
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        next
    }

    fn pack_values(values: &[u64], width: u32) -> PlaneBuf {
        let mut buf = PlaneBuf::new(width as usize, values.len().div_ceil(64));
        for (lane, &v) in values.iter().enumerate() {
            let mut bits = BitVec::new();
            bits.push_bits(v, width);
            buf.pack_lane(lane, 0, &bits);
        }
        buf
    }

    #[test]
    fn cse_dedups_and_canonicalises() {
        let mut b = Builder::new();
        let x = b.input(Space::Cur, 0, 3);
        let y = b.input(Space::Cur, 3, 3);
        let p = b.and(x, y);
        let q = b.and(y, x);
        assert_eq!(p, q);
        let before = b.len();
        let _again = b.and(x, y);
        assert_eq!(b.len(), before);
    }

    #[test]
    fn constant_folding_collapses_subtrees() {
        let mut b = Builder::new();
        let c5 = b.constant(5, 4);
        let c3 = b.constant(3, 4);
        let sum = b.add_width(c5, c3, 4);
        assert_eq!(b.as_const(sum), Some(8));
        let (q, r) = b.divmod_const(sum, 3);
        assert_eq!(b.as_const(q), Some(2));
        assert_eq!(b.as_const(r), Some(2));
        let x = b.input(Space::Cur, 0, 4);
        let t = b.constant(1, 1);
        let m = b.mux(t, c5, x);
        assert_eq!(b.as_const(m), Some(5));
    }

    #[test]
    fn divmod_matches_scalar() {
        for d in [2u64, 3, 9, 15, 27] {
            let values: Vec<u64> = (0..128).map(|i| (i * 37 + 11) % 512).collect();
            let mut b = Builder::new();
            let a = b.input(Space::Cur, 0, 9);
            let (q, r) = b.divmod_const(a, d);
            let qw = b.width(q) as u32;
            let rw = b.width(r) as u32;
            let prog = b.finalize(&[(q, 0), (r, qw)]);
            let cur = pack_values(&values, 9);
            let next = run_on_lanes(&prog, &cur, (qw + rw) as usize);
            for (lane, &v) in values.iter().enumerate() {
                assert_eq!(
                    next.read_value(lane, 0, qw as usize),
                    v / d,
                    "q lane {lane} d {d}"
                );
                assert_eq!(
                    next.read_value(lane, qw as usize, rw as usize),
                    v % d,
                    "r lane {lane} d {d}"
                );
            }
        }
    }

    #[test]
    fn at_least_matches_scalar() {
        let values: Vec<u64> = (0..128).map(|i| (i * 97 + 13) % 128).collect();
        let mut b = Builder::new();
        let bits: Vec<NodeRef> = (0..7).map(|i| b.input(Space::Cur, i, 1)).collect();
        // Bit 2 twice: a multiset, not a set.
        let mut multiset = bits.clone();
        multiset.push(bits[2]);
        let thresholds: Vec<NodeRef> = (1..=8).map(|k| b.at_least(&multiset, k)).collect();
        let stores: Vec<(NodeRef, u32)> =
            thresholds.iter().zip(0..).map(|(&t, i)| (t, i)).collect();
        let prog = b.finalize(&stores);
        // One operand list serves every threshold.
        assert_eq!(prog.operands.len(), multiset.len());
        let cur = pack_values(&values, 7);
        let next = run_on_lanes(&prog, &cur, thresholds.len());
        for (lane, &v) in values.iter().enumerate() {
            let count = v.count_ones() + ((v >> 4) & 1) as u32;
            for (i, k) in (1..=8u32).enumerate() {
                assert_eq!(next.lane_bit(i, lane), count >= k, "lane {lane} k {k}");
            }
        }
    }

    #[test]
    fn at_least_folds_constants_and_dedups_multisets() {
        let mut b = Builder::new();
        let x = b.input(Space::Cur, 0, 1);
        let y = b.input(Space::Cur, 1, 1);
        let one = b.constant(1, 1);
        let zero = b.constant(0, 1);
        let mut folded = |bits: &[NodeRef], k| {
            let t = b.at_least(bits, k);
            b.as_const(t)
        };
        assert_eq!(folded(&[x, y], 0), Some(1));
        assert_eq!(folded(&[x, y], 3), Some(0));
        // A set constant bit meets one unit of the threshold, a clear one
        // none; a single remaining bit at k = 1 is that bit.
        assert_eq!(folded(&[x, one, one], 2), Some(1));
        assert_eq!(folded(&[x, zero, y], 3), Some(0));
        assert_eq!(b.at_least(&[zero, x, one], 2), x);
        // Operand order is irrelevant; multiplicity is not.
        let xy = b.at_least(&[x, y, one], 2);
        assert_eq!(b.at_least(&[y, one, x], 2), xy);
        assert_eq!(b.at_least(&[x, y], 1), xy);
        assert_ne!(b.at_least(&[x, y, x], 2), xy);
    }

    #[test]
    fn divmod_slices_one_fused_op() {
        let mut b = Builder::new();
        let a = b.input(Space::Cur, 0, 9);
        let (q, r) = b.divmod_const(a, 15);
        assert_eq!((b.width(q), b.width(r)), (9, 4));
        // The same division again is the same node.
        assert_eq!(b.divmod_const(a, 15), (q, r));
        let prog = b.finalize(&[(q, 0), (r, 9)]);
        let fused = prog
            .ops
            .iter()
            .filter(|op| matches!(op, Op::DivMod { d: 15, .. }))
            .count();
        // Load, DivMod, two stores.
        assert_eq!((fused, prog.ops.len()), (1, 4));
    }

    #[test]
    fn slices_alias_their_operand() {
        let values: Vec<u64> = (0..100).map(|i| (i * 73 + 5) % 256).collect();
        let mut b = Builder::new();
        let a = b.input(Space::Cur, 0, 8);
        let hi = b.slice(a, 4, 4);
        let lo = b.slice(a, 0, 4);
        let mid = b.slice(hi, 1, 2);
        let prog = b.finalize(&[(hi, 0), (lo, 4), (mid, 8)]);
        // One load; the slices cost no op.
        assert_eq!(prog.ops.len(), 4);
        let cur = pack_values(&values, 8);
        let next = run_on_lanes(&prog, &cur, 10);
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(next.read_value(lane, 0, 4), v >> 4, "hi lane {lane}");
            assert_eq!(next.read_value(lane, 4, 4), v & 0xf, "lo lane {lane}");
            assert_eq!(next.read_value(lane, 8, 2), (v >> 5) & 3, "mid lane {lane}");
        }
    }

    #[test]
    fn comparisons_match_scalar() {
        let values: Vec<u64> = (0..128).map(|i| i % 20).collect();
        let mut b = Builder::new();
        let a = b.input(Space::Cur, 0, 5);
        let seven = b.constant(7, 3);
        let eq7 = b.eq_const(a, 7);
        let lt7 = b.lt(a, seven);
        let gt7 = b.lt(seven, a);
        let prog = b.finalize(&[(eq7, 0), (lt7, 1), (gt7, 2)]);
        let cur = pack_values(&values, 5);
        let next = run_on_lanes(&prog, &cur, 3);
        for (lane, &v) in values.iter().enumerate() {
            assert_eq!(next.lane_bit(0, lane), v == 7, "eq lane {lane}");
            assert_eq!(next.lane_bit(1, lane), v < 7, "lt lane {lane}");
            assert_eq!(next.lane_bit(2, lane), v > 7, "gt lane {lane}");
        }
    }

    #[test]
    fn mux_folds() {
        let mut b = Builder::new();
        let c2 = b.constant(2, 3);
        let c5 = b.constant(5, 3);
        let one = b.constant(1, 1);
        let zero = b.constant(0, 1);
        assert_eq!(b.mux(zero, c5, c2), c2);
        // 1-bit mux with constant arms reduces to the condition itself.
        let c = b.input(Space::Cur, 0, 1);
        assert_eq!(b.mux(c, one, zero), c);
        let n = b.mux(c, zero, one);
        let nn = b.not(n);
        assert_eq!(nn, c);
    }

    #[test]
    fn dce_drops_unreferenced_nodes() {
        let mut b = Builder::new();
        let x = b.input(Space::Cur, 0, 4);
        let y = b.input(Space::Cur, 4, 4);
        let _dead = b.add_width(x, y, 5);
        let keep = b.not(x);
        let prog = b.finalize(&[(keep, 0)]);
        // Only the input load, the not, and the store should survive.
        assert_eq!(prog.ops.len(), 3);
    }
}
