//! Bit-sliced state planes and the word-op program they are evaluated with.
//!
//! The scalar engine steps one scenario at a time; this module stores
//! scenario state *column-wise* instead: one `u64` word per state bit holds
//! that bit for 64 scenarios ("lanes") at once, and a protocol transition
//! lowered to word ops (see `sc-core`'s DAG builder) advances all lanes with
//! a single pass of AND/OR/XOR/MUX, adder, divider and threshold networks.
//! The layout follows the codec in [`crate::BitVec`]: bit `i` of an encoded
//! state maps to plane `i` of its bundle, so plane order is MSB-first
//! exactly like `push_bits`.
//!
//! The pieces:
//!
//! * [`PlaneBuf`] — a `planes × lane_words` transposed arena with
//!   pack/unpack converters from the codec bit strings.
//! * [`Op`] / [`Program`] — a flat bytecode of word operations over plane
//!   ranges, executed by [`Program::exec`] against an [`ExecSpaces`] bundle
//!   of input arenas (current state, replay ring, packed constants, gather
//!   tables). The ops:
//!   - data movement: [`Op::Load`] from an input arena, [`Op::Const`],
//!     [`Op::Store`] into the next-state arena;
//!   - plane-wise logic: [`Op::Not`], [`Op::And`], [`Op::Or`], [`Op::Xor`],
//!     [`Op::Mux`];
//!   - arithmetic on MSB-first fields: [`Op::Eq`], [`Op::Lt`], [`Op::Add`];
//!   - fused ops that compute a whole sub-circuit in registers in one
//!     dispatch: [`Op::DivMod`] (quotient and remainder by a constant) and
//!     [`Op::AtLeast`] (at least `k` of a list of planes, the list kept in
//!     [`Program::operands`]).
//! * [`FaceRef`] / [`RoundFaces`] — how one round's adversarial faces are
//!   named when compiling a round program: each (faulty sender, receiver)
//!   pair resolves to an honest broadcast, a ring lag, a packed bundle, or a
//!   gather table.
//! * [`SlicedLayout`] — the per-node bundle layout (state, derived "ext"
//!   planes, output field) shared between the lowering and the engine.

use crate::bits::BitVec;
use crate::bits_for;

/// Transposed scenario state: `planes × lane_words` words of 64 lanes each.
///
/// Plane `p`, lane `ℓ` lives at bit `ℓ % 64` of word `ℓ / 64` of plane `p`.
/// Plane indices are MSB-first per field, matching [`BitVec::push_bits`]:
/// packing an encoded state at `base_plane` puts codec bit `i` into plane
/// `base_plane + i`, so the *first* plane of a `w`-bit field is the value's
/// most significant bit.
///
/// # Example
///
/// ```
/// use sc_protocol::{BitVec, PlaneBuf};
///
/// let mut buf = PlaneBuf::new(4, 2); // 4 planes, 128 lanes
/// let mut bits = BitVec::new();
/// bits.push_bits(0b1011, 4);
/// buf.pack_lane(70, 0, &bits);
/// assert_eq!(buf.read_value(70, 0, 4), 0b1011);
/// assert_eq!(buf.read_value(69, 0, 4), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlaneBuf {
    planes: usize,
    lane_words: usize,
    data: Vec<u64>,
}

impl PlaneBuf {
    /// Creates a zeroed arena of `planes` bit planes spanning
    /// `lane_words * 64` lanes.
    pub fn new(planes: usize, lane_words: usize) -> Self {
        PlaneBuf {
            planes,
            lane_words,
            data: vec![0; planes * lane_words],
        }
    }

    /// Number of bit planes.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Words per plane (64 lanes each).
    pub fn lane_words(&self) -> usize {
        self.lane_words
    }

    /// Number of lanes (`lane_words * 64`).
    pub fn lanes(&self) -> usize {
        self.lane_words * 64
    }

    /// The word holding lanes `64k..64k+64` of plane `p`.
    #[inline]
    pub fn word(&self, plane: usize, k: usize) -> u64 {
        debug_assert!(plane < self.planes && k < self.lane_words);
        self.data[plane * self.lane_words + k]
    }

    /// Mutable access to one plane word.
    #[inline]
    pub fn word_mut(&mut self, plane: usize, k: usize) -> &mut u64 {
        debug_assert!(plane < self.planes && k < self.lane_words);
        &mut self.data[plane * self.lane_words + k]
    }

    /// One full plane as a word slice.
    pub fn plane(&self, plane: usize) -> &[u64] {
        &self.data[plane * self.lane_words..(plane + 1) * self.lane_words]
    }

    /// Zeroes every plane, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|w| *w = 0);
    }

    /// Reads the bit of `lane` in `plane`.
    #[inline]
    pub fn lane_bit(&self, plane: usize, lane: usize) -> bool {
        (self.word(plane, lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Sets or clears the bit of `lane` in `plane`.
    #[inline]
    pub fn set_lane_bit(&mut self, plane: usize, lane: usize, bit: bool) {
        let mask = 1u64 << (lane % 64);
        let w = self.word_mut(plane, lane / 64);
        if bit {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Transposes one codec bit string into this arena: codec bit `i` of
    /// `bits` lands in plane `base_plane + i` at `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the planes or the lane are out of range.
    pub fn pack_lane(&mut self, lane: usize, base_plane: usize, bits: &BitVec) {
        assert!(lane < self.lanes(), "lane {lane} out of range");
        assert!(
            base_plane + bits.len() <= self.planes,
            "field of {} bits at plane {base_plane} exceeds {} planes",
            bits.len(),
            self.planes
        );
        for i in 0..bits.len() {
            self.set_lane_bit(base_plane + i, lane, bits.bit(i));
        }
    }

    /// Transposes `width` planes of one lane back into a codec bit string,
    /// appending to `out` (plane `base_plane + i` becomes the `i`-th pushed
    /// bit, restoring MSB-first field order).
    pub fn unpack_lane(&self, lane: usize, base_plane: usize, width: usize, out: &mut BitVec) {
        for i in 0..width {
            out.push_bit(self.lane_bit(base_plane + i, lane));
        }
    }

    /// Reads a `width ≤ 64`-bit field of one lane as an integer, treating
    /// `base_plane` as the most significant bit (codec order).
    pub fn read_value(&self, lane: usize, base_plane: usize, width: usize) -> u64 {
        assert!(width <= 64, "width {width} exceeds u64");
        let mut v = 0u64;
        for i in 0..width {
            v = (v << 1) | u64::from(self.lane_bit(base_plane + i, lane));
        }
        v
    }

    /// Broadcasts one codec bit string into **all** lanes: codec bit `i`
    /// sets plane `base_plane + i` to all-ones or all-zeroes.
    pub fn fill_uniform(&mut self, base_plane: usize, bits: &BitVec) {
        assert!(base_plane + bits.len() <= self.planes);
        for i in 0..bits.len() {
            let fill = if bits.bit(i) { u64::MAX } else { 0 };
            let p = base_plane + i;
            self.data[p * self.lane_words..(p + 1) * self.lane_words]
                .iter_mut()
                .for_each(|w| *w = fill);
        }
    }

    /// Copies the whole arena of `other` over this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &PlaneBuf) {
        assert_eq!(self.planes, other.planes);
        assert_eq!(self.lane_words, other.lane_words);
        self.data.copy_from_slice(&other.data);
    }
}

/// Which input arena a [`Op::Load`] reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// The current-round state arena.
    Cur,
    /// The replay ring: `Ring(lag)` is the state arena `lag ≥ 1` rounds ago.
    Ring(u8),
    /// A packed constant bundle (crash freezes, scripted raw palettes).
    Packed(u16),
    /// A per-round gather table materialised by the engine (lane-varying
    /// donor selection, e.g. two-faced schedules).
    Gather(u8),
}

/// One word operation over plane ranges of the scratch arena.
///
/// All `dst`/`a`/`b`/`c` fields are plane offsets into the program's scratch
/// arena; widths count planes. Multi-plane operands are MSB-first (plane
/// `a + 0` is the most significant bit), matching [`PlaneBuf`] packing.
/// Comparison and arithmetic ops carry per-operand widths and zero-extend
/// the shorter operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst[0..w] = space[off..off+w]`.
    Load {
        /// Destination plane offset.
        dst: u32,
        /// Source arena.
        space: Space,
        /// Source plane offset.
        off: u32,
        /// Planes copied.
        w: u16,
    },
    /// `dst[0..w] = value` broadcast to every lane (plane `dst` holds bit
    /// `w-1` of `value`).
    Const {
        /// Destination plane offset.
        dst: u32,
        /// Lane-uniform value.
        value: u64,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = !a`, plane-wise over `w` planes.
    Not {
        /// Destination plane offset.
        dst: u32,
        /// Operand plane offset.
        a: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a & b`, plane-wise over `w` planes.
    And {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a | b`, plane-wise over `w` planes.
    Or {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = a ^ b`, plane-wise over `w` planes.
    Xor {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Right operand plane offset.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// `dst = c ? a : b` per lane; `c` is a single plane.
    Mux {
        /// Destination plane offset.
        dst: u32,
        /// Single-plane lane condition.
        c: u32,
        /// Taken when the condition bit is set.
        a: u32,
        /// Taken when the condition bit is clear.
        b: u32,
        /// Field width in planes.
        w: u16,
    },
    /// Single-plane `dst = (a == b)` with zero-extension of the narrower
    /// operand.
    Eq {
        /// Destination plane offset (1 plane).
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
    },
    /// Single-plane unsigned `dst = (a < b)` with zero-extension.
    Lt {
        /// Destination plane offset (1 plane).
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
    },
    /// `dst = (a + b) mod 2^w`, a ripple-carry adder over `w` result planes.
    Add {
        /// Destination plane offset.
        dst: u32,
        /// Left operand plane offset.
        a: u32,
        /// Left operand width.
        aw: u16,
        /// Right operand plane offset.
        b: u32,
        /// Right operand width.
        bw: u16,
        /// Result width in planes.
        w: u16,
    },
    /// Restoring division of the `aw`-plane value at `a` by the constant
    /// `d ≥ 2`: writes the `aw` quotient planes at `dst`, then the
    /// `bits_for(d)` remainder planes right after them.
    DivMod {
        /// Destination plane offset (quotient, then remainder).
        dst: u32,
        /// Dividend plane offset.
        a: u32,
        /// Dividend width (= quotient width).
        aw: u16,
        /// The constant divisor.
        d: u32,
    },
    /// Single-plane threshold: set in every lane where at least `k` of the
    /// `len` single planes listed at [`Program::operands`]`[list..]` are
    /// set. The list is a multiset; a plane listed twice counts twice.
    AtLeast {
        /// Destination plane offset (1 plane).
        dst: u32,
        /// First index of the operand list in [`Program::operands`].
        list: u32,
        /// Number of listed planes.
        len: u16,
        /// The threshold.
        k: u16,
    },
    /// Writes `src[0..w]` of the scratch arena into the *next-state* arena
    /// at plane `off`.
    Store {
        /// Source plane offset in the scratch arena.
        src: u32,
        /// Destination plane offset in the next-state arena.
        off: u32,
        /// Planes written.
        w: u16,
    },
}

/// The read-only input arenas one round program executes against.
pub struct ExecSpaces<'a> {
    /// Current-round state (all node bundles).
    pub cur: &'a PlaneBuf,
    /// Replay ring: `ring[lag - 1]` is the state `lag` rounds ago. May be
    /// shorter than the deepest lag only if no op references deeper lags.
    pub ring: &'a [PlaneBuf],
    /// Packed constant bundles, indexed by [`Space::Packed`] id.
    pub packed: &'a [PlaneBuf],
    /// Per-round gather tables, indexed by [`Space::Gather`] id.
    pub gather: &'a [PlaneBuf],
}

/// A compiled round program: a flat op list over a scratch arena.
///
/// Produced once per distinct face pattern by the lowering in `sc-core` and
/// executed every round by the sliced engine. Execution is deterministic and
/// branch-free: every op touches whole plane words, so one pass advances
/// `64 × lane_words` scenarios.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The operations, in execution order (already topologically sorted).
    pub ops: Vec<Op>,
    /// Scratch plane offsets of the list operands ([`Op::AtLeast`]): an op
    /// names its list as a range of this vector.
    pub operands: Vec<u32>,
    /// Scratch arena height in planes.
    pub arena_planes: u32,
}

/// Widest divisor [`Op::DivMod`] takes, in bits: its working remainder is
/// one plane wider and lives in a fixed register array.
const MAX_DIVISOR_BITS: usize = 31;

/// Remainder width of [`Op::DivMod`] by `d`: `bits_for(d)` planes.
fn remainder_width(d: u32) -> u16 {
    bits_for(d.into()) as u16
}

/// A scratch-arena plane range: `(first plane, planes)`.
type PlaneRange = (u32, u16);

impl Op {
    /// The scratch-arena plane ranges this op reads (unused slots are
    /// empty), the single planes its operand list reads (`None` when the
    /// list runs past `operands`), and the range it writes ([`Op::Store`]
    /// writes the next-state arena instead: empty).
    fn scratch_planes<'a>(
        &self,
        operands: &'a [u32],
    ) -> ([PlaneRange; 3], Option<&'a [u32]>, PlaneRange) {
        const NONE: PlaneRange = (0, 0);
        let (reads, write) = match *self {
            Op::Load { dst, w, .. } | Op::Const { dst, w, .. } => ([NONE; 3], (dst, w)),
            Op::Not { dst, a, w } => ([(a, w), NONE, NONE], (dst, w)),
            Op::And { dst, a, b, w } | Op::Or { dst, a, b, w } | Op::Xor { dst, a, b, w } => {
                ([(a, w), (b, w), NONE], (dst, w))
            }
            Op::Mux { dst, c, a, b, w } => ([(c, 1), (a, w), (b, w)], (dst, w)),
            Op::Eq { dst, a, aw, b, bw } | Op::Lt { dst, a, aw, b, bw } => {
                ([(a, aw), (b, bw), NONE], (dst, 1))
            }
            Op::Add {
                dst,
                a,
                aw,
                b,
                bw,
                w,
            } => ([(a, aw), (b, bw), NONE], (dst, w)),
            Op::DivMod { dst, a, aw, d } => ([(a, aw), NONE, NONE], (dst, aw + remainder_width(d))),
            Op::AtLeast { dst, list, len, .. } => {
                let list = operands.get(list as usize..list as usize + len as usize);
                return ([NONE; 3], list, (dst, 1));
            }
            Op::Store { src, w, .. } => ([(src, w), NONE, NONE], NONE),
        };
        (reads, Some(&[]), write)
    }
}

impl Program {
    /// The index of the first op that reads a scratch plane no earlier op
    /// wrote, if any — the write-before-read contract that lets
    /// [`Program::exec`] reuse its arena without zeroing it. Every program
    /// the SSA lowering emits satisfies it (`None`).
    pub fn unwritten_read(&self) -> Option<usize> {
        let mut written = vec![false; self.arena_planes as usize];
        for (index, op) in self.ops.iter().enumerate() {
            let (reads, list, (dst, w)) = op.scratch_planes(&self.operands);
            let unread = |p: u32| written.get(p as usize) != Some(&true);
            let unwritten = reads
                .iter()
                .any(|&(at, w)| (at..at + u32::from(w)).any(unread))
                || list.is_none_or(|list| list.iter().any(|&p| unread(p)));
            if unwritten {
                return Some(index);
            }
            for p in dst..dst + u32::from(w) {
                if let Some(plane) = written.get_mut(p as usize) {
                    *plane = true;
                }
            }
        }
        None
    }

    /// Runs the program: reads `spaces`, writes stored fields into `next`.
    ///
    /// `scratch` is grown to the program's arena and reused across calls,
    /// but never cleared or zeroed: a program writes every scratch plane
    /// before any op reads it ([`Program::unwritten_read`] is `None` — SSA
    /// placement guarantees it for every lowered program), so whatever a
    /// previous round left behind is overwritten before it can be seen.
    /// Planes of `next` that no [`Op::Store`] covers are left untouched, so
    /// the engine pre-copies `cur` into `next` for carried-over planes (the
    /// lowering stores every live plane, making that copy belt-and-braces).
    pub fn exec(&self, spaces: &ExecSpaces<'_>, next: &mut PlaneBuf, scratch: &mut Vec<u64>) {
        let lw = spaces.cur.lane_words();
        debug_assert_eq!(next.lane_words(), lw);
        let planes = self.arena_planes as usize * lw;
        if scratch.len() < planes {
            scratch.resize(planes, 0);
        }
        if lw == 1 {
            // The dominant attack-sweep shape (≤ 64 scenarios): one word
            // per plane, so the plane arithmetic collapses to direct
            // indexing and the per-word inner loops disappear.
            return self.exec_single(spaces, next, scratch);
        }
        let idx = |p: u32, k: usize| p as usize * lw + k;
        for op in &self.ops {
            match *op {
                Op::Load { dst, space, off, w } => {
                    let src = match space {
                        Space::Cur => spaces.cur,
                        Space::Ring(lag) => &spaces.ring[lag as usize - 1],
                        Space::Packed(id) => &spaces.packed[id as usize],
                        Space::Gather(id) => &spaces.gather[id as usize],
                    };
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = src.word((off + i) as usize, k);
                        }
                    }
                }
                Op::Const { dst, value, w } => {
                    for i in 0..w as u32 {
                        let bit = (value >> (w as u32 - 1 - i)) & 1;
                        let fill = if bit == 1 { u64::MAX } else { 0 };
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = fill;
                        }
                    }
                }
                Op::Not { dst, a, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] = !scratch[idx(a + i, k)];
                        }
                    }
                }
                Op::And { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] & scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Or { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] | scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Xor { dst, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            scratch[idx(dst + i, k)] =
                                scratch[idx(a + i, k)] ^ scratch[idx(b + i, k)];
                        }
                    }
                }
                Op::Mux { dst, c, a, b, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            let sel = scratch[idx(c, k)];
                            scratch[idx(dst + i, k)] =
                                (sel & scratch[idx(a + i, k)]) | (!sel & scratch[idx(b + i, k)]);
                        }
                    }
                }
                Op::Eq { dst, a, aw, b, bw } => {
                    let nbits = aw.max(bw) as u32;
                    for k in 0..lw {
                        let mut acc = u64::MAX;
                        for j in 0..nbits {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            acc &= !(av ^ bv);
                        }
                        scratch[idx(dst, k)] = acc;
                    }
                }
                Op::Lt { dst, a, aw, b, bw } => {
                    let nbits = aw.max(bw) as u32;
                    for k in 0..lw {
                        let mut lt = 0u64;
                        let mut eqm = u64::MAX;
                        // MSB-first scan: a < b at the first differing bit.
                        for j in (0..nbits).rev() {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            lt |= eqm & !av & bv;
                            eqm &= !(av ^ bv);
                        }
                        scratch[idx(dst, k)] = lt;
                    }
                }
                Op::Add {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    for k in 0..lw {
                        let mut carry = 0u64;
                        // LSB-first ripple over the result planes.
                        for j in 0..w as u32 {
                            let av = operand_bit(scratch, &idx, a, aw, j, k);
                            let bv = operand_bit(scratch, &idx, b, bw, j, k);
                            let sum = av ^ bv ^ carry;
                            carry = (av & bv) | (carry & (av ^ bv));
                            scratch[idx(dst + (w as u32 - 1 - j), k)] = sum;
                        }
                    }
                }
                Op::DivMod { dst, a, aw, d } => {
                    // SSA: the dividend lies below `dst`.
                    let (lo, hi) = scratch.split_at_mut(dst as usize * lw);
                    let a = a as usize;
                    for k in 0..lw {
                        divmod_kernel(
                            aw as usize,
                            d,
                            |j| lo[(a + j) * lw + k],
                            |i, word| hi[i * lw + k] = word,
                        );
                    }
                }
                Op::AtLeast {
                    dst,
                    list,
                    len,
                    k: at,
                } => {
                    let list = &self.operands[list as usize..][..len as usize];
                    for k in 0..lw {
                        let word = at_least_kernel(at, list.iter().map(|&p| scratch[idx(p, k)]));
                        scratch[idx(dst, k)] = word;
                    }
                }
                Op::Store { src, off, w } => {
                    for i in 0..w as u32 {
                        for k in 0..lw {
                            *next.word_mut((off + i) as usize, k) = scratch[idx(src + i, k)];
                        }
                    }
                }
            }
        }
    }

    /// [`Program::exec`] specialised to `lane_words == 1`: every plane is
    /// one u64, operands index the scratch arena directly, and the
    /// bitwise ops run over bounds-check-free slice windows. The windows
    /// are sound because the arena is SSA and placed in topological
    /// order: every operand plane lies strictly below `dst`, so
    /// `split_at_mut(dst)` separates reads from writes.
    fn exec_single(&self, spaces: &ExecSpaces<'_>, next: &mut PlaneBuf, scratch: &mut [u64]) {
        /// Value bit `j` (LSB-indexed) of the MSB-first operand at `a`,
        /// zero-extended past its width.
        #[inline]
        fn bit1(lo: &[u64], a: u32, aw: u16, j: u32) -> u64 {
            if j < aw as u32 {
                lo[(a + (aw as u32 - 1 - j)) as usize]
            } else {
                0
            }
        }
        /// Operand window `a .. a + w` below the split point.
        #[inline]
        fn win(lo: &[u64], a: u32, w: u16) -> &[u64] {
            &lo[a as usize..a as usize + w as usize]
        }
        for op in &self.ops {
            match *op {
                Op::Load { dst, space, off, w } => {
                    let src = match space {
                        Space::Cur => spaces.cur,
                        Space::Ring(lag) => &spaces.ring[lag as usize - 1],
                        Space::Packed(id) => &spaces.packed[id as usize],
                        Space::Gather(id) => &spaces.gather[id as usize],
                    };
                    for i in 0..w as u32 {
                        scratch[(dst + i) as usize] = src.word((off + i) as usize, 0);
                    }
                }
                Op::Const { dst, value, w } => {
                    for i in 0..w as u32 {
                        let bit = (value >> (w as u32 - 1 - i)) & 1;
                        scratch[(dst + i) as usize] = if bit == 1 { u64::MAX } else { 0 };
                    }
                }
                Op::Not { dst, a, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for (d, &x) in hi[..w as usize].iter_mut().zip(win(lo, a, w)) {
                        *d = !x;
                    }
                }
                Op::And { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x & y;
                    }
                }
                Op::Or { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x | y;
                    }
                }
                Op::Xor { dst, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = x ^ y;
                    }
                }
                Op::Mux { dst, c, a, b, w } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let sel = lo[c as usize];
                    for ((d, &x), &y) in hi[..w as usize]
                        .iter_mut()
                        .zip(win(lo, a, w))
                        .zip(win(lo, b, w))
                    {
                        *d = (sel & x) | (!sel & y);
                    }
                }
                Op::Eq { dst, a, aw, b, bw } => {
                    let mut acc = u64::MAX;
                    if aw == bw {
                        for (&x, &y) in win(scratch, a, aw).iter().zip(win(scratch, b, bw)) {
                            acc &= !(x ^ y);
                        }
                    } else {
                        for j in 0..aw.max(bw) as u32 {
                            acc &= !(bit1(scratch, a, aw, j) ^ bit1(scratch, b, bw, j));
                        }
                    }
                    scratch[dst as usize] = acc;
                }
                Op::Lt { dst, a, aw, b, bw } => {
                    let mut lt = 0u64;
                    let mut eqm = u64::MAX;
                    if aw == bw {
                        // MSB-first scan: a < b at the first differing bit.
                        for (&x, &y) in win(scratch, a, aw).iter().zip(win(scratch, b, bw)) {
                            lt |= eqm & !x & y;
                            eqm &= !(x ^ y);
                        }
                    } else {
                        for j in (0..aw.max(bw) as u32).rev() {
                            let av = bit1(scratch, a, aw, j);
                            let bv = bit1(scratch, b, bw, j);
                            lt |= eqm & !av & bv;
                            eqm &= !(av ^ bv);
                        }
                    }
                    scratch[dst as usize] = lt;
                }
                Op::Add {
                    dst,
                    a,
                    aw,
                    b,
                    bw,
                    w,
                } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let (a, b) = (a as usize, b as usize);
                    let (w, aw, bw) = (w as usize, aw as usize, bw as usize);
                    let hi = &mut hi[..w];
                    // LSB-first ripple. While both operands have real bits
                    // the loop runs over plain reversed slices — no
                    // zero-extension checks, no bounds checks.
                    let m = w.min(aw).min(bw);
                    let mut carry = 0u64;
                    let xs = lo[a + aw - m..a + aw].iter().rev();
                    let ys = lo[b + bw - m..b + bw].iter().rev();
                    for ((d, &x), &y) in hi.iter_mut().rev().zip(xs).zip(ys) {
                        *d = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                    // Tail: at least one operand is exhausted (reads 0).
                    for j in m..w {
                        let x = if j < aw { lo[a + aw - 1 - j] } else { 0 };
                        let y = if j < bw { lo[b + bw - 1 - j] } else { 0 };
                        hi[w - 1 - j] = x ^ y ^ carry;
                        carry = (x & y) | (carry & (x ^ y));
                    }
                }
                Op::DivMod { dst, a, aw, d } => {
                    let (lo, hi) = scratch.split_at_mut(dst as usize);
                    let dividend = win(lo, a, aw);
                    divmod_kernel(aw as usize, d, |j| dividend[j], |i, word| hi[i] = word);
                }
                Op::AtLeast { dst, list, len, k } => {
                    let list = &self.operands[list as usize..][..len as usize];
                    let word = at_least_kernel(k, list.iter().map(|&p| scratch[p as usize]));
                    scratch[dst as usize] = word;
                }
                Op::Store { src, off, w } => {
                    for i in 0..w as u32 {
                        *next.word_mut((off + i) as usize, 0) = scratch[(src + i) as usize];
                    }
                }
            }
        }
    }
}

/// Value bit `j` (LSB-indexed) of a width-`aw` MSB-first operand at plane
/// `a`, zero-extended past its width.
#[inline]
fn operand_bit(
    scratch: &[u64],
    idx: &impl Fn(u32, usize) -> usize,
    a: u32,
    aw: u16,
    j: u32,
    k: usize,
) -> u64 {
    if j < aw as u32 {
        scratch[idx(a + (aw as u32 - 1 - j), k)]
    } else {
        0
    }
}

/// One lane word of [`Op::DivMod`]: restoring division of the MSB-first
/// dividend (`dividend(j)` is plane `j` of `aw`) by `d`, all in registers.
/// `put(i, word)` receives result plane `i`: the `aw` quotient planes, then
/// the `bits_for(d)` remainder planes, both MSB-first.
///
/// The working remainder is a fixed-size array sized from the divisor's
/// width, so the compiler unrolls every per-step loop over registers.
#[inline(always)]
fn divmod_kernel(aw: usize, d: u32, dividend: impl Fn(usize) -> u64, put: impl FnMut(usize, u64)) {
    match remainder_width(d) {
        0..=1 => divmod_fixed::<2>(aw, d, dividend, put),
        2 => divmod_fixed::<3>(aw, d, dividend, put),
        3 => divmod_fixed::<4>(aw, d, dividend, put),
        4 => divmod_fixed::<5>(aw, d, dividend, put),
        5 => divmod_fixed::<6>(aw, d, dividend, put),
        _ => divmod_fixed::<{ MAX_DIVISOR_BITS + 1 }>(aw, d, dividend, put),
    }
}

/// [`divmod_kernel`] over a `W`-plane working remainder, `W > bits_for(d)`:
/// `2r + bit < 2d ≤ 2^(bits_for(d) + 1)`, and planes above that stay 0.
#[inline(always)]
fn divmod_fixed<const W: usize>(
    aw: usize,
    d: u32,
    dividend: impl Fn(usize) -> u64,
    mut put: impl FnMut(usize, u64),
) {
    let rw = usize::from(remainder_width(d));
    assert!(d >= 2 && rw < W, "divisor {d} out of range");
    // The divisor's bits as lane masks, LSB-first.
    let dm: [u64; W] = std::array::from_fn(|i| 0u64.wrapping_sub(u64::from(d >> i & 1)));
    // Working remainder, LSB-first.
    let mut r = [0u64; W];
    // The largest value `r` can hold in any lane.
    let mut bound = 0u32;
    for j in 0..aw {
        // `2r + bit`: `r < d`, so its top plane is 0 and the shift drops
        // nothing. Whole-array rebuilds (never an in-place shift) keep `r`
        // in registers.
        let bit = dividend(j);
        let shifted: [u64; W] = std::array::from_fn(|i| if i == 0 { bit } else { r[i - 1] });
        bound = 2 * bound + 1;
        if bound < d {
            // Below the divisor in every lane: quotient bit 0, no subtract.
            r = shifted;
            put(j, 0);
            continue;
        }
        // `r - d` by a borrow chain; no borrow out ⇔ `r ≥ d`.
        let mut diff = [0u64; W];
        let mut borrow = 0u64;
        for i in 0..W {
            let (x, t) = (shifted[i], shifted[i] ^ dm[i]);
            diff[i] = t ^ borrow;
            borrow = (!x & dm[i]) | (!t & borrow);
        }
        let ge = !borrow;
        r = std::array::from_fn(|i| shifted[i] ^ (ge & (diff[i] ^ shifted[i])));
        bound = d - 1;
        put(j, ge);
    }
    for (i, &plane) in r.iter().enumerate().take(rw) {
        put(aw + rw - 1 - i, plane);
    }
}

/// One lane word of [`Op::AtLeast`]: whether at least `k` of `bits` are
/// set. The bits are summed into a bit-sliced counter just wide enough for
/// their number, a fixed-size array the compiler keeps in registers.
#[inline(always)]
fn at_least_kernel(k: u16, bits: impl ExactSizeIterator<Item = u64>) -> u64 {
    let len = bits.len();
    if usize::from(k) > len {
        return 0;
    }
    // Planes to hold a count of `len`: `bits_for(len + 1)`.
    match usize::BITS - len.leading_zeros() {
        0..=2 => at_least_fixed::<2>(k, bits),
        3 => at_least_fixed::<3>(k, bits),
        4 => at_least_fixed::<4>(k, bits),
        5 => at_least_fixed::<5>(k, bits),
        6 => at_least_fixed::<6>(k, bits),
        // A u16 list length needs at most 16 planes.
        _ => at_least_fixed::<16>(k, bits),
    }
}

/// [`at_least_kernel`] over a `B`-plane counter, `k ≤ len < 2^B`.
#[inline(always)]
fn at_least_fixed<const B: usize>(k: u16, bits: impl Iterator<Item = u64>) -> u64 {
    // LSB-first.
    let mut count = [0u64; B];
    for mut carry in bits {
        for c in &mut count {
            let sum = *c ^ carry;
            carry &= *c;
            *c = sum;
        }
    }
    // `count < k`, scanning from the most significant plane.
    let (mut lt, mut eq) = (0u64, u64::MAX);
    for (i, &c) in count.iter().enumerate().rev() {
        if u32::from(k) >> i & 1 == 1 {
            lt |= eq & !c;
            eq &= c;
        } else {
            eq &= !c;
        }
    }
    !lt
}

/// Where one (faulty sender, receiver) face of a round comes from.
///
/// A *face* is the state a faulty node shows one particular receiver this
/// round. Compiling a round program resolves every face to one of four
/// sources; two [`RoundFaces`] that resolve identically compile to the same
/// program, which is what makes the per-pattern program cache effective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaceRef {
    /// Echo the current broadcast of honest node `i` (global index).
    Honest(u32),
    /// Echo what `donor` (global index, honest) broadcast `lag ≥ 1` rounds
    /// ago, served from the replay ring.
    Ring {
        /// Rounds back (1 = previous round).
        lag: u8,
        /// Honest donor's global node index.
        donor: u32,
    },
    /// A packed bundle (lane-uniform or per-lane constant states).
    Packed(u16),
    /// A per-round gather table materialised by the engine.
    Gather(u8),
}

/// The resolved faces of one round: `rows[g * n + v]` is what the `g`-th
/// faulty node shows receiver `v`.
///
/// Receivers that are themselves faulty still get a row (it is never read);
/// strategies fill them with any value, canonically `Honest(0)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct RoundFaces {
    /// Face sources, row-major over (faulty index, receiver).
    pub rows: Vec<FaceRef>,
}

impl RoundFaces {
    /// A face table of `faulty * n` rows, all `Honest(0)`.
    pub fn new(faulty: usize, n: usize) -> Self {
        RoundFaces {
            rows: vec![FaceRef::Honest(0); faulty * n],
        }
    }

    /// The face the `g`-th faulty node shows receiver `v`.
    pub fn face(&self, g: usize, n: usize, v: usize) -> FaceRef {
        self.rows[g * n + v]
    }

    /// Sets the face the `g`-th faulty node shows receiver `v`.
    pub fn set_face(&mut self, g: usize, n: usize, v: usize, face: FaceRef) {
        self.rows[g * n + v] = face;
    }
}

/// Per-node bundle layout of a sliced protocol arena.
///
/// Each node owns `state_bits + ext_bits + out_bits` consecutive planes:
/// the codec-encoded state, derived planes the lowering tracks
/// incrementally (e.g. divmod residues), and the lane-wise output field the
/// stabilisation detector reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlicedLayout {
    /// Number of nodes.
    pub n: u32,
    /// Codec state width in bits (= planes).
    pub state_bits: u32,
    /// Derived planes carried per node.
    pub ext_bits: u32,
    /// Output field width in planes.
    pub out_bits: u32,
}

impl SlicedLayout {
    /// Planes per node bundle.
    pub fn node_planes(&self) -> u32 {
        self.state_bits + self.ext_bits + self.out_bits
    }

    /// Total planes of a full state arena.
    pub fn total_planes(&self) -> u32 {
        self.n * self.node_planes()
    }

    /// First plane of node `i`'s bundle.
    pub fn node_base(&self, i: u32) -> u32 {
        i * self.node_planes()
    }

    /// First plane of node `i`'s ext field.
    pub fn ext_base(&self, i: u32) -> u32 {
        self.node_base(i) + self.state_bits
    }

    /// First plane of node `i`'s output field.
    pub fn out_base(&self, i: u32) -> u32 {
        self.node_base(i) + self.state_bits + self.ext_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn pack_unpack_round_trip_ragged() {
        // 100 lanes over 2 lane words (ragged: 28 inactive lanes).
        let mut buf = PlaneBuf::new(11, 2);
        let mut rng = 0x1234_5678_9abc_def1u64;
        let mut originals = Vec::new();
        for lane in 0..100 {
            let mut bits = BitVec::new();
            bits.push_bits(xorshift(&mut rng) & 0x7ff, 11);
            buf.pack_lane(lane, 0, &bits);
            originals.push(bits);
        }
        for (lane, bits) in originals.iter().enumerate() {
            let mut out = BitVec::new();
            buf.unpack_lane(lane, 0, 11, &mut out);
            assert_eq!(&out, bits, "lane {lane}");
            assert_eq!(
                buf.read_value(lane, 0, 11),
                bits.reader().read_bits(11).unwrap()
            );
        }
    }

    #[test]
    fn fill_uniform_broadcasts_to_every_lane() {
        let mut buf = PlaneBuf::new(5, 3);
        let mut bits = BitVec::new();
        bits.push_bits(0b10110, 5);
        buf.fill_uniform(0, &bits);
        for lane in [0, 63, 64, 100, 191] {
            assert_eq!(buf.read_value(lane, 0, 5), 0b10110, "lane {lane}");
        }
    }

    /// Packs per-lane operands, runs one op, and checks every lane against
    /// scalar arithmetic.
    fn check_binop(op: Op, aw: u32, bw: u32, dst: u32, dw: u32, f: impl Fn(u64, u64) -> u64) {
        let arena = dst + dw;
        let mut cur = PlaneBuf::new((aw + bw) as usize, 2);
        let mut rng = 0x5eed_0000_0000_0001u64;
        let lanes = 128;
        let mut avs = Vec::new();
        let mut bvs = Vec::new();
        for lane in 0..lanes {
            let av = xorshift(&mut rng) & ((1 << aw) - 1);
            let bv = xorshift(&mut rng) & ((1 << bw) - 1);
            let mut bits = BitVec::new();
            bits.push_bits(av, aw);
            bits.push_bits(bv, bw);
            cur.pack_lane(lane, 0, &bits);
            avs.push(av);
            bvs.push(bv);
        }
        let prog = Program {
            ops: vec![
                Op::Load {
                    dst: 0,
                    space: Space::Cur,
                    off: 0,
                    w: aw as u16,
                },
                Op::Load {
                    dst: aw,
                    space: Space::Cur,
                    off: aw,
                    w: bw as u16,
                },
                op,
                Op::Store {
                    src: dst,
                    off: 0,
                    w: dw as u16,
                },
            ],
            operands: Vec::new(),
            arena_planes: arena,
        };
        let mut next = PlaneBuf::new(dw as usize, 2);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: &[],
            packed: &[],
            gather: &[],
        };
        let mut scratch = Vec::new();
        prog.exec(&spaces, &mut next, &mut scratch);
        for lane in 0..lanes {
            let got = next.read_value(lane, 0, dw as usize);
            let want = f(avs[lane], bvs[lane]) & if dw == 64 { u64::MAX } else { (1 << dw) - 1 };
            assert_eq!(got, want, "lane {lane}: a={} b={}", avs[lane], bvs[lane]);
        }
    }

    #[test]
    fn add_matches_scalar_with_zero_extension() {
        check_binop(
            Op::Add {
                dst: 12,
                a: 0,
                aw: 7,
                b: 7,
                bw: 5,
                w: 8,
            },
            7,
            5,
            12,
            8,
            |a, b| a + b,
        );
    }

    #[test]
    fn eq_and_lt_match_scalar() {
        check_binop(
            Op::Eq {
                dst: 9,
                a: 0,
                aw: 4,
                b: 4,
                bw: 5,
            },
            4,
            5,
            9,
            1,
            |a, b| u64::from(a == b),
        );
        check_binop(
            Op::Lt {
                dst: 9,
                a: 0,
                aw: 4,
                b: 4,
                bw: 5,
            },
            4,
            5,
            9,
            1,
            |a, b| u64::from(a < b),
        );
    }

    #[test]
    fn mux_selects_per_lane() {
        // Operand a is 1 cond bit + 3 value bits; operand b is 3 value bits.
        check_binop(
            Op::Mux {
                dst: 7,
                c: 0,
                a: 1,
                b: 4,
                w: 3,
            },
            4,
            3,
            7,
            3,
            |a, b| if a >> 3 == 1 { a & 7 } else { b },
        );
    }

    #[test]
    fn const_and_logic_ops() {
        let cur = PlaneBuf::new(1, 1);
        let prog = Program {
            ops: vec![
                Op::Const {
                    dst: 0,
                    value: 0b1010,
                    w: 4,
                },
                Op::Const {
                    dst: 4,
                    value: 0b0110,
                    w: 4,
                },
                Op::And {
                    dst: 8,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Or {
                    dst: 12,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Xor {
                    dst: 16,
                    a: 0,
                    b: 4,
                    w: 4,
                },
                Op::Not {
                    dst: 20,
                    a: 0,
                    w: 4,
                },
                Op::Store {
                    src: 8,
                    off: 0,
                    w: 4,
                },
                Op::Store {
                    src: 12,
                    off: 4,
                    w: 4,
                },
                Op::Store {
                    src: 16,
                    off: 8,
                    w: 4,
                },
                Op::Store {
                    src: 20,
                    off: 12,
                    w: 4,
                },
            ],
            operands: Vec::new(),
            arena_planes: 24,
        };
        let mut next = PlaneBuf::new(16, 1);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: &[],
            packed: &[],
            gather: &[],
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        for lane in [0, 17, 63] {
            assert_eq!(next.read_value(lane, 0, 4), 0b0010);
            assert_eq!(next.read_value(lane, 4, 4), 0b1110);
            assert_eq!(next.read_value(lane, 8, 4), 0b1100);
            assert_eq!(next.read_value(lane, 12, 4), 0b0101);
        }
    }

    #[test]
    fn load_resolves_all_spaces() {
        let mut cur = PlaneBuf::new(2, 1);
        let mut ring0 = PlaneBuf::new(2, 1);
        let mut packed = PlaneBuf::new(2, 1);
        let mut gather = PlaneBuf::new(2, 1);
        for lane in 0..64 {
            cur.set_lane_bit(0, lane, lane % 2 == 0);
            ring0.set_lane_bit(0, lane, lane % 3 == 0);
            packed.set_lane_bit(0, lane, lane % 5 == 0);
            gather.set_lane_bit(0, lane, lane % 7 == 0);
        }
        let prog = Program {
            ops: vec![
                Op::Load {
                    dst: 0,
                    space: Space::Cur,
                    off: 0,
                    w: 1,
                },
                Op::Load {
                    dst: 1,
                    space: Space::Ring(1),
                    off: 0,
                    w: 1,
                },
                Op::Load {
                    dst: 2,
                    space: Space::Packed(0),
                    off: 0,
                    w: 1,
                },
                Op::Load {
                    dst: 3,
                    space: Space::Gather(0),
                    off: 0,
                    w: 1,
                },
                Op::Store {
                    src: 0,
                    off: 0,
                    w: 4,
                },
            ],
            operands: Vec::new(),
            arena_planes: 4,
        };
        let mut next = PlaneBuf::new(4, 1);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: std::slice::from_ref(&ring0),
            packed: std::slice::from_ref(&packed),
            gather: std::slice::from_ref(&gather),
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        for lane in 0..64 {
            assert_eq!(next.lane_bit(0, lane), lane % 2 == 0);
            assert_eq!(next.lane_bit(1, lane), lane % 3 == 0);
            assert_eq!(next.lane_bit(2, lane), lane % 5 == 0);
            assert_eq!(next.lane_bit(3, lane), lane % 7 == 0);
        }
    }

    #[test]
    fn unwritten_read_finds_the_first_op_reading_an_unwritten_plane() {
        let load = Op::Load {
            dst: 0,
            space: Space::Cur,
            off: 0,
            w: 2,
        };
        let not = |a| Op::Not { dst: 2, a, w: 2 };
        let store = |src| Op::Store { src, off: 0, w: 2 };
        let program = |ops| Program {
            ops,
            operands: Vec::new(),
            arena_planes: 4,
        };
        assert_eq!(program(vec![load, not(0), store(2)]).unwritten_read(), None);
        // Plane 2 is read before anything writes it.
        assert_eq!(
            program(vec![load, not(1), store(2)]).unwritten_read(),
            Some(1)
        );
        assert_eq!(program(vec![load, store(2)]).unwritten_read(), Some(1));
        // Reads past the arena are never written.
        assert_eq!(
            program(vec![load, not(0), store(3)]).unwritten_read(),
            Some(2)
        );
    }

    #[test]
    fn exec_reuses_a_dirty_arena() {
        // A scratch arena full of garbage from an earlier, larger program
        // must not leak into the result: every read plane is written first.
        let mut cur = PlaneBuf::new(4, 1);
        for lane in 0..64 {
            cur.set_lane_bit(1, lane, lane % 3 == 0);
            cur.set_lane_bit(3, lane, lane % 2 == 0);
        }
        let prog = Program {
            ops: vec![
                Op::Load {
                    dst: 0,
                    space: Space::Cur,
                    off: 0,
                    w: 4,
                },
                Op::And {
                    dst: 4,
                    a: 0,
                    b: 2,
                    w: 2,
                },
                Op::Store {
                    src: 4,
                    off: 0,
                    w: 2,
                },
            ],
            operands: Vec::new(),
            arena_planes: 6,
        };
        assert_eq!(prog.unwritten_read(), None);
        let spaces = ExecSpaces {
            cur: &cur,
            ring: &[],
            packed: &[],
            gather: &[],
        };
        let mut clean = PlaneBuf::new(2, 1);
        prog.exec(&spaces, &mut clean, &mut Vec::new());
        let mut dirty = PlaneBuf::new(2, 1);
        prog.exec(&spaces, &mut dirty, &mut vec![u64::MAX; 64]);
        assert_eq!(clean, dirty);
        for lane in 0..64 {
            assert_eq!(dirty.lane_bit(1, lane), lane % 6 == 0);
        }
    }

    /// Runs `prog` against `cur` and returns the `out` next-state planes.
    fn run(prog: &Program, cur: &PlaneBuf, out: usize) -> PlaneBuf {
        let mut next = PlaneBuf::new(out, cur.lane_words());
        let spaces = ExecSpaces {
            cur,
            ring: &[],
            packed: &[],
            gather: &[],
        };
        prog.exec(&spaces, &mut next, &mut Vec::new());
        next
    }

    #[test]
    fn divmod_matches_scalar_division() {
        let mut rng = 0xd1f0_0000_0000_0007u64;
        // Ragged lane counts at one and two lane words.
        for (lw, lanes) in [(1, 50), (2, 100)] {
            // 100 takes the widest working remainder.
            for d in [2u32, 3, 9, 15, 27, 100] {
                let rw = u32::from(remainder_width(d));
                for aw in 1..=12u32 {
                    let values: Vec<u64> = (0..lanes)
                        .map(|_| xorshift(&mut rng) & ((1 << aw) - 1))
                        .collect();
                    let mut cur = PlaneBuf::new(aw as usize, lw);
                    for (lane, &v) in values.iter().enumerate() {
                        let mut bits = BitVec::new();
                        bits.push_bits(v, aw);
                        cur.pack_lane(lane, 0, &bits);
                    }
                    let prog = Program {
                        ops: vec![
                            Op::Load {
                                dst: 0,
                                space: Space::Cur,
                                off: 0,
                                w: aw as u16,
                            },
                            Op::DivMod {
                                dst: aw,
                                a: 0,
                                aw: aw as u16,
                                d,
                            },
                            Op::Store {
                                src: aw,
                                off: 0,
                                w: (aw + rw) as u16,
                            },
                        ],
                        operands: Vec::new(),
                        arena_planes: 2 * aw + rw,
                    };
                    assert_eq!(prog.unwritten_read(), None);
                    let next = run(&prog, &cur, (aw + rw) as usize);
                    for (lane, &v) in values.iter().enumerate() {
                        let q = next.read_value(lane, 0, aw as usize);
                        let r = next.read_value(lane, aw as usize, rw as usize);
                        let d = u64::from(d);
                        assert_eq!((q, r), (v / d, v % d), "lw {lw} aw {aw} d {d} lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn at_least_matches_scalar_counts() {
        // Planes 0..6 are per-lane bits, plane 6 is all-ones, plane 7
        // all-zeroes; the list repeats planes 2 and 0. Repeated seven
        // times it needs the widest counter.
        const LIST: [u32; 10] = [0, 1, 2, 3, 4, 5, 2, 6, 7, 0];
        let mut rng = 0xa7_1ea5_7000_0003u64;
        for list in [LIST.to_vec(), LIST.repeat(7)] {
            let len = list.len() as u16;
            for (lw, lanes) in [(1, 61), (2, 97)] {
                let mut cur = PlaneBuf::new(6, lw);
                let mut counts = Vec::new();
                for lane in 0..lanes {
                    let v = xorshift(&mut rng) & 0x3f;
                    let mut bits = BitVec::new();
                    bits.push_bits(v, 6);
                    cur.pack_lane(lane, 0, &bits);
                    let bit = |p: u32| match p {
                        6 => 1,
                        7 => 0,
                        p => (v >> (5 - p)) & 1,
                    };
                    counts.push(list.iter().map(|&p| bit(p)).sum::<u64>());
                }
                let thresholds: Vec<u16> = (0..=len + 1).collect();
                let mut ops = vec![
                    Op::Load {
                        dst: 0,
                        space: Space::Cur,
                        off: 0,
                        w: 6,
                    },
                    Op::Const {
                        dst: 6,
                        value: 0b10,
                        w: 2,
                    },
                ];
                for (i, &k) in thresholds.iter().enumerate() {
                    ops.push(Op::AtLeast {
                        dst: 8 + i as u32,
                        list: 0,
                        len,
                        k,
                    });
                }
                let out = thresholds.len() as u16;
                ops.push(Op::Store {
                    src: 8,
                    off: 0,
                    w: out,
                });
                let prog = Program {
                    ops,
                    operands: list.clone(),
                    arena_planes: 8 + u32::from(out),
                };
                assert_eq!(prog.unwritten_read(), None);
                let next = run(&prog, &cur, out.into());
                for (lane, &count) in counts.iter().enumerate() {
                    for (i, &k) in thresholds.iter().enumerate() {
                        assert_eq!(
                            next.lane_bit(i, lane),
                            count >= u64::from(k),
                            "len {len} lw {lw} lane {lane}: {count} set, k = {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unwritten_read_sees_list_operands() {
        let load = Op::Load {
            dst: 0,
            space: Space::Cur,
            off: 0,
            w: 2,
        };
        let at_least = |list, len| Op::AtLeast {
            dst: 3,
            list,
            len,
            k: 1,
        };
        let program = |ops, operands| Program {
            ops,
            operands,
            arena_planes: 4,
        };
        assert_eq!(
            program(vec![load, at_least(0, 2)], vec![0, 1]).unwritten_read(),
            None
        );
        // Plane 2 is listed but nothing writes it.
        assert_eq!(
            program(vec![load, at_least(0, 3)], vec![0, 1, 2]).unwritten_read(),
            Some(1)
        );
        // A list that runs past `operands` is flagged too.
        assert_eq!(
            program(vec![load, at_least(1, 2)], vec![0, 1]).unwritten_read(),
            Some(1)
        );
    }

    #[test]
    fn layout_offsets() {
        let l = SlicedLayout {
            n: 4,
            state_bits: 12,
            ext_bits: 3,
            out_bits: 5,
        };
        assert_eq!(l.node_planes(), 20);
        assert_eq!(l.total_planes(), 80);
        assert_eq!(l.node_base(2), 40);
        assert_eq!(l.ext_base(2), 52);
        assert_eq!(l.out_base(2), 55);
    }
}
