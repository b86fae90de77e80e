//! The bitset safety-game solver of the exhaustive checker: one core,
//! generic over the [`Index`] it solves on.
//!
//! One [`Game::run`] call is the full verification of one fault set `F`.
//! The core owns the representation and both fixpoints:
//!
//! * **Successor masks** instead of successor lists: per index and honest
//!   position a `u64` whose bit `σ` is set iff some Byzantine behaviour
//!   moves that position to state `σ`. The successors of a configuration
//!   are the product of its per-position masks and are never materialised.
//!   The masks are filled by an **incremental** Byzantine loop: the LUT row
//!   index is shared by every receiver, the Byzantine part is maintained
//!   across combos and the honest part across indices by mixed-radix
//!   increments — amortised O(1) positions touched per step, no received
//!   vector ever built.
//! * **Predecessor bitsets**: one bitset over indices per predecessor row,
//!   `P[i·|X| + σ] = { e : σ ∈ mask_i(e) }`. The predecessors of `s` are the
//!   word-wise intersection of the rows the index names for `s` (64 indices
//!   per AND, short-circuited on zero).
//! * The **safe set** (greatest fixed point) seeds from the factored check
//!   "every successor outputs `out(e) + 1 mod c`" — per position,
//!   `mask_i(e) ⊆ {σ : out_i(σ) = expect}` — then one lazy successor walk
//!   per member (early exit on the first escape) and a worklist that
//!   propagates each removal to its predecessors exactly once.
//! * The **attractor** is counter-based: `cnt[e]` counts the undecided
//!   successor indices; when an index is decided in layer `t`, each
//!   predecessor's counter drops, and a counter hitting zero decides the
//!   predecessor at `t + 1`. Each layer is one batched bitset pass (the
//!   frontier's predecessor rows hoisted once, a shrinking window of words
//!   that still hold undecided bits). Counter decrements commute, so the
//!   layering does not depend on the order of the pass.
//!
//! # The two indexings
//!
//! * [`Configs`], the trivial group: one index per configuration
//!   `e = Σ_i d_i·|X|^i`, `h` masks per index, predecessor rows per
//!   `(i, σ)`, cardinality 1.
//! * [`Orbits`], the symmetric group on the correct nodes: one index per
//!   multiset of honest states. Its canonical digits are non-decreasing,
//!   `d_0 ≤ … ≤ d_{h−1}`, and it is ranked in the combinatorial number
//!   system (colex order), `rank(d) = Σ_i C(d_i + i, i + 1)`, a bijection
//!   onto `0..C(|X| + h − 1, h)`. One mask serves every position,
//!   predecessor rows are per state `σ` (the orbit's distinct digits), a
//!   successor count is `C(popcount(mask) + h − 1, h)` (every multiset
//!   over the mask is realisable: per-receiver choices are independent),
//!   and an orbit's cardinality is its multinomial coefficient.
//!
//! Statistics sum cardinalities, so `configs`, `covered` and `worst_time`
//! count full configurations under either indexing.
//!
//! The orbit quotient is sound exactly for **exchangeable** tables
//! ([`exchangeable`]): every node runs the same transition and output
//! tables, and the shared transition table is invariant under permuting
//! the received positions. With merely identical tables it is not — the
//! LUT row index weights position `u` by `|X|^u`, so two nodes swapping
//! states generally lands in another row. For an exchangeable table a
//! node's possible next states depend only on the multiset of honest
//! states, and the safe-set seed and both fixpoints are invariant under
//! node permutations: the [`Configs`] `time` is constant on orbits, and
//! the [`Orbits`] layering *is* the full layering. Every candidate of the
//! symmetric synthesis families is exchangeable by construction.
//!
//! # Witnesses
//!
//! The lasso walk runs in the full configuration space under both
//! indexings and asks the index only for a configuration's rank: it starts
//! at the lowest stuck configuration, always follows the lowest stuck
//! successor, and realises each honest transition with the first Byzantine
//! combo in mixed-radix order. The emitted [`Witness`] is therefore the
//! same, value for value, under either indexing and in the reference
//! checker.
//!
//! A [`Game`] owns every buffer and is rebuilt in place run after run:
//! scoring a synthesis candidate allocates nothing once the buffers have
//! grown to the instance size.

use std::collections::HashMap;

use sc_core::LutCounter;
use sc_protocol::{BitVec, ParamError};

use crate::checker::Witness;

/// Hard limits keeping exhaustive exploration tractable: indices per game,
/// Byzantine combinations per step, and successor-mask words per game.
const MAX_CONFIGS: usize = 1 << 20;
const MAX_BYZ_COMBOS: usize = 1 << 14;
const MAX_MASK_WORDS: usize = 1 << 22;

/// Sentinel for indices the attractor never decides.
const UNDECIDED: u32 = u32::MAX;

/// Whether `lut` is exchangeable: every node shares the same transition
/// and output tables, and the shared transition table is invariant under
/// permutations of the received positions. This is the exact condition
/// under which the orbit quotient (and the fault-set dedup of
/// `Analyzer::dedup_fault_sets`) is sound. Cost `O(n · |X|^n)` with early
/// exit on the first asymmetry — random tables bail almost immediately.
pub(crate) fn exchangeable(lut: &LutCounter) -> bool {
    let spec = lut.spec();
    let n = spec.n;
    let x = spec.states as usize;
    let t0 = &spec.transition[0];
    if spec.transition[1..].iter().any(|t| t != t0) {
        return false;
    }
    let o0 = &spec.output[0];
    if spec.output[1..].iter().any(|o| o != o0) {
        return false;
    }
    // Invariance under the adjacent transpositions (u, u+1), which
    // generate S_n: swap the two digits of every row where they differ.
    let mut pow_u = 1usize;
    for _ in 0..n.saturating_sub(1) {
        let pow_v = pow_u * x;
        for (r, &t) in t0.iter().enumerate() {
            let du = r / pow_u % x;
            let dv = r / pow_v % x;
            if du < dv {
                let swapped = r - du * pow_u - dv * pow_v + dv * pow_u + du * pow_v;
                if t != t0[swapped] {
                    return false;
                }
            }
        }
        pow_u = pow_v;
    }
    true
}

/// Binomial coefficient with saturating arithmetic — callers only ever
/// *use* values that are bounded by an orbit count or a configuration
/// count (both capped), so saturated entries can only flow into limit
/// checks, where saturation rejects correctly.
pub(crate) fn binomial(a: usize, b: usize) -> u64 {
    if b > a {
        return 0;
    }
    let b = b.min(a - b);
    let mut acc = 1u64;
    for i in 0..b {
        // Multiply-then-divide keeps every intermediate an exact binomial.
        acc = acc
            .saturating_mul((a - i) as u64)
            .checked_div((i + 1) as u64)
            .unwrap_or(u64::MAX)
    }
    acc
}

/// One indexing of a fault set's configuration space: what a bit of the
/// core's bitsets stands for. Everything else is the [`Game`]'s.
pub(crate) trait Index: Default + Send {
    /// Whether one successor mask serves every honest position.
    const SHARED_MASK: bool;

    /// The number of indices for `h` honest positions over `x` states, or
    /// the overflow error when it exceeds the exploration limit.
    fn count(x: usize, h: usize) -> Result<usize, ParamError>;

    /// Sizes the index's own tables for a run of `count` indices.
    fn reset(&mut self, x: usize, h: usize, count: usize);

    /// Records index `e`, whose digits the in-order walk holds.
    fn record(&mut self, e: usize, digits: &[u8]);

    /// Advances the in-order walk to the next index, keeping `base` — the
    /// LUT row index of the honest part, `Σ_i digits[i]·pow_h[i]` — current.
    fn advance(&self, digits: &mut [u8], base: &mut usize, pow_h: &[usize]);

    /// The number of successor indices of an index with masks `masks`.
    fn successors(&self, masks: &[u64]) -> u32;

    /// Walks the successor indices of an index with masks `masks`,
    /// stopping when `visit` returns `false`; returns whether the walk
    /// completed.
    fn for_each_successor(
        &self,
        masks: &[u64],
        xpow: &[usize],
        visit: impl FnMut(usize) -> bool,
    ) -> bool;

    /// Calls `row` with each predecessor row of index `s`: the
    /// predecessors of `s` are the intersection of those rows.
    fn pred_rows(&self, s: usize, row: impl FnMut(usize));

    /// The number of full configurations index `e` stands for.
    fn size(&self, e: usize) -> u64;

    /// The index of the full configuration with `digits` (reorders them).
    fn rank(&self, digits: &mut [u8]) -> usize;
}

/// The trivial group: one index per configuration `e = Σ_i d_i·|X|^i`.
#[derive(Default)]
pub(crate) struct Configs {
    x: usize,
    h: usize,
}

impl Index for Configs {
    const SHARED_MASK: bool = false;

    fn count(x: usize, h: usize) -> Result<usize, ParamError> {
        x.checked_pow(h as u32)
            .filter(|&c| c <= MAX_CONFIGS)
            .ok_or_else(|| ParamError::overflow(format!("|X|^h = {x}^{h}")))
    }

    fn reset(&mut self, x: usize, h: usize, _count: usize) {
        self.x = x;
        self.h = h;
    }

    fn record(&mut self, _e: usize, _digits: &[u8]) {}

    fn advance(&self, digits: &mut [u8], base: &mut usize, pow_h: &[usize]) {
        let mut d = 0;
        while digits[d] as usize + 1 == self.x {
            *base -= (self.x - 1) * pow_h[d];
            digits[d] = 0;
            d += 1;
        }
        digits[d] += 1;
        *base += pow_h[d];
    }

    fn successors(&self, masks: &[u64]) -> u32 {
        masks.iter().map(|m| m.count_ones()).product()
    }

    fn for_each_successor(
        &self,
        masks: &[u64],
        xpow: &[usize],
        mut visit: impl FnMut(usize) -> bool,
    ) -> bool {
        for_each_product(masks, xpow, |s, _| visit(s))
    }

    fn pred_rows(&self, s: usize, mut row: impl FnMut(usize)) {
        let mut rest = s;
        for i in 0..self.h {
            row(i * self.x + rest % self.x);
            rest /= self.x;
        }
    }

    fn size(&self, _e: usize) -> u64 {
        1
    }

    fn rank(&self, digits: &mut [u8]) -> usize {
        digits.iter().rev().fold(0, |e, &d| e * self.x + d as usize)
    }
}

/// The symmetric group on the correct nodes: one index per multiset of
/// honest states, in colex order.
#[derive(Default)]
pub(crate) struct Orbits {
    x: usize,
    h: usize,
    /// Pascal table `C(a, b)` for `a < x + h`, `b ≤ h` (saturating).
    binom: Vec<u64>,
    /// Canonical representatives: `h` non-decreasing digits per orbit.
    reps: Vec<u8>,
    /// Orbit cardinalities (multinomial coefficients); sum = `|X|^h`.
    sizes: Vec<u64>,
}

impl Orbits {
    /// `C(a, b)` from the per-run Pascal table.
    #[inline]
    fn binom(&self, a: usize, b: usize) -> u64 {
        self.binom[a * (self.h + 1) + b]
    }
}

impl Index for Orbits {
    const SHARED_MASK: bool = true;

    fn count(x: usize, h: usize) -> Result<usize, ParamError> {
        let orbits = binomial(x + h - 1, h);
        if orbits > MAX_CONFIGS as u64 {
            return Err(ParamError::overflow(format!(
                "C(x+h−1, h) = C({}, {h}) orbits",
                x + h - 1
            )));
        }
        Ok(orbits as usize)
    }

    fn reset(&mut self, x: usize, h: usize, count: usize) {
        self.x = x;
        self.h = h;
        let cols = h + 1;
        self.binom.clear();
        self.binom.resize((x + h) * cols, 0);
        for a in 0..x + h {
            self.binom[a * cols] = 1;
            for b in 1..=h.min(a) {
                let up = (a - 1) * cols + b;
                self.binom[a * cols + b] = self.binom[up - 1].saturating_add(self.binom[up]);
            }
        }
        self.reps.clear();
        self.reps.resize(count * h, 0);
        self.sizes.clear();
        self.sizes.resize(count, 0);
    }

    fn record(&mut self, o: usize, digits: &[u8]) {
        let h = self.h;
        self.reps[o * h..(o + 1) * h].copy_from_slice(digits);
        // The multinomial h! / ∏ mult_k!, as a product of exact binomials
        // over the digit runs.
        let mut size = 1u64;
        let mut placed = 0usize;
        for run in digits.chunk_by(|a, b| a == b) {
            placed += run.len();
            size *= self.binom(placed, run.len());
        }
        self.sizes[o] = size;
    }

    /// Colex successor: bump the lowest digit that can grow while staying
    /// non-decreasing, zero everything below it. Digit `i` sits at position
    /// `honest[i]` — any placement indexes the same row of an exchangeable
    /// table.
    fn advance(&self, digits: &mut [u8], base: &mut usize, pow_h: &[usize]) {
        let top = (self.x - 1) as u8;
        let mut i = 0;
        while digits[i] == digits.get(i + 1).copied().unwrap_or(top) {
            i += 1;
        }
        digits[i] += 1;
        *base += pow_h[i];
        for j in 0..i {
            *base -= digits[j] as usize * pow_h[j];
            digits[j] = 0;
        }
    }

    fn successors(&self, masks: &[u64]) -> u32 {
        self.binom(masks[0].count_ones() as usize + self.h - 1, self.h) as u32
    }

    /// Every multiset of `h` states over the set bits of the shared mask,
    /// via a non-decreasing odometer over the sorted mask states.
    fn for_each_successor(
        &self,
        masks: &[u64],
        _xpow: &[usize],
        mut visit: impl FnMut(usize) -> bool,
    ) -> bool {
        let h = self.h;
        let mut states = [0u8; 64];
        let mut p = 0;
        let mut m = masks[0];
        while m != 0 {
            states[p] = m.trailing_zeros() as u8;
            m &= m - 1;
            p += 1;
        }
        let mut j = [0u8; 64]; // non-decreasing indices into `states`
        loop {
            let mut r = 0usize;
            for i in 0..h {
                r += self.binom(states[j[i] as usize] as usize + i, i + 1) as usize;
            }
            if !visit(r) {
                return false;
            }
            let mut i = 0;
            loop {
                if i == h {
                    return true;
                }
                let cap = if i + 1 < h { j[i + 1] } else { (p - 1) as u8 };
                if j[i] < cap {
                    j[i] += 1;
                    j[..i].iter_mut().for_each(|q| *q = 0);
                    break;
                }
                i += 1;
            }
        }
    }

    fn pred_rows(&self, s: usize, mut row: impl FnMut(usize)) {
        let rep = &self.reps[s * self.h..(s + 1) * self.h];
        for run in rep.chunk_by(|a, b| a == b) {
            row(run[0] as usize);
        }
    }

    fn size(&self, o: usize) -> u64 {
        self.sizes[o]
    }

    fn rank(&self, digits: &mut [u8]) -> usize {
        digits.sort_unstable();
        let mut r = 0usize;
        for (i, &d) in digits.iter().enumerate() {
            r += self.binom(d as usize + i, i + 1) as usize;
        }
        r
    }
}

/// Walks the product `∏_i masks[i]` in ascending order of
/// `Σ_i d_i·xpow[i]`, passing each member's index and digits to `visit`
/// until it returns `false`; returns whether the walk completed. A
/// mixed-radix odometer over set bits: the product is never materialised.
fn for_each_product(
    masks: &[u64],
    xpow: &[usize],
    mut visit: impl FnMut(usize, &[u8]) -> bool,
) -> bool {
    let h = masks.len();
    let mut current = [0u8; 64];
    let mut succ = 0usize;
    for i in 0..h {
        let low = masks[i].trailing_zeros() as usize;
        current[i] = low as u8;
        succ += low * xpow[i];
    }
    loop {
        if !visit(succ, &current[..h]) {
            return false;
        }
        let mut i = 0;
        loop {
            if i == h {
                return true;
            }
            let cur = current[i] as usize;
            let rest = if cur + 1 < 64 {
                masks[i] >> (cur + 1)
            } else {
                0
            };
            if rest != 0 {
                let nxt = cur + 1 + rest.trailing_zeros() as usize;
                current[i] = nxt as u8;
                succ += (nxt - cur) * xpow[i];
                break;
            }
            let low = masks[i].trailing_zeros() as usize;
            current[i] = low as u8;
            succ -= (cur - low) * xpow[i];
            i += 1;
        }
    }
}

/// The aggregate a fault-set run contributes to an analysis summary.
pub(crate) struct SetStats {
    pub configs: usize,
    pub covered: usize,
    pub worst_time: u64,
}

/// The game solver: all per-fault-set state, owned once and rebuilt in
/// place by every [`Game::run`] — after a run it holds the solved game of
/// that fault set (for witness extraction).
#[derive(Default)]
pub(crate) struct Game<I> {
    index: I,
    /// Correct nodes, ascending.
    honest: Vec<usize>,
    /// The fault set, in the order Byzantine combos are decoded.
    faulty: Vec<usize>,
    /// Number of states `|X|`.
    x: usize,
    /// Byzantine combinations per step (`|X|^|F|`).
    combos: usize,
    /// Number of indices.
    count: usize,
    /// Number of full configurations (`|X|^h`).
    configs: usize,
    /// Full configurations with a decided stabilisation time.
    covered: usize,
    /// Exact worst-case stabilisation time over decided configurations.
    worst_time: u64,
    /// The greatest fixed point: counting is guaranteed forever.
    safe: BitVec,
    /// Successor masks per index, `width` words each: `h`, or 1 when the
    /// index shares one mask across positions.
    masks: Vec<u64>,
    width: usize,
    /// Flat predecessor bitsets: `row * words ..` is row `i·|X| + σ`.
    pred: Vec<u64>,
    /// `x^i` for honest positions `i` (full-configuration radix).
    xpow: Vec<usize>,
    /// `x^{honest[i]}` — LUT row weight of honest position `i`.
    pow_h: Vec<usize>,
    /// `x^{faulty[g]}` — LUT row weight of faulty position `g`.
    pow_f: Vec<usize>,
    /// 64-bit words per index bitset.
    words: usize,
    /// Attractor time per index ([`UNDECIDED`] = stuck).
    time: Vec<u32>,
    /// Attractor counters: undecided successor indices per index.
    cnt: Vec<u32>,
    /// Per mask position, `(output value, mask of states producing it)`
    /// pairs; `out_ok_off[i]..out_ok_off[i + 1]` is position `i`'s range.
    out_ok: Vec<(u64, u64)>,
    out_ok_off: Vec<usize>,
    // Worklist and odometer scratch.
    undecided: Vec<u64>,
    digits: Vec<u8>,
    byz: Vec<u8>,
    stack: Vec<u32>,
    preds: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Attractor scratch: hoisted predecessor-row offsets of the current
    /// frontier, member `k`'s at `rows[row_off[k]..row_off[k + 1]]`.
    rows: Vec<usize>,
    row_off: Vec<u32>,
    /// Attractor scratch: the shrinking window of index words that still
    /// hold undecided bits.
    live: Vec<u32>,
}

impl<I: Index> Game<I> {
    /// Builds the game for `lut` under fault set `faulty` and solves it:
    /// masks, predecessor index, safe-set fixpoint, attractor layering.
    /// [`Orbits`] requires an [`exchangeable`] `lut` (the analyzer checks).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the instance exceeds the exploration
    /// limits, has more than 64 states (a mask is one `u64`), or the fault
    /// set leaves no correct node.
    pub(crate) fn run(
        &mut self,
        lut: &LutCounter,
        faulty: &[usize],
    ) -> Result<SetStats, ParamError> {
        self.build(lut, faulty)?;
        self.refine_safe();
        self.attract();
        Ok(SetStats {
            configs: self.configs,
            covered: self.covered,
            worst_time: self.worst_time,
        })
    }

    fn build(&mut self, lut: &LutCounter, faulty: &[usize]) -> Result<(), ParamError> {
        let spec = lut.spec();
        let x = spec.states as usize;
        if x > 64 {
            return Err(ParamError::overflow(format!(
                "|X| = {x} states exceed the 64-bit successor masks"
            )));
        }
        self.honest.clear();
        self.honest
            .extend((0..spec.n).filter(|v| !faulty.contains(v)));
        self.faulty.clear();
        self.faulty.extend_from_slice(faulty);
        let h = self.honest.len();
        if h == 0 {
            return Err(ParamError::constraint(
                "fault set covers every node: nothing to verify",
            ));
        }
        // Only reachable with |X| = 1 (otherwise the |X|^n LUT rows cap h
        // far lower): the odometers keep their digits on the stack.
        if h > 64 {
            return Err(ParamError::overflow(format!(
                "{h} correct nodes exceed the odometer width"
            )));
        }
        let count = I::count(x, h)?;
        let combos = x
            .checked_pow(faulty.len() as u32)
            .filter(|&c| c <= MAX_BYZ_COMBOS)
            .ok_or_else(|| ParamError::overflow(format!("|X|^|F| = {x}^{}", faulty.len())))?;
        let width = if I::SHARED_MASK { 1 } else { h };
        if count
            .checked_mul(width)
            .filter(|&w| w <= MAX_MASK_WORDS)
            .is_none()
        {
            return Err(ParamError::overflow(format!(
                "successor-mask table {count}·{width} words"
            )));
        }
        self.x = x;
        self.combos = combos;
        self.count = count;
        // `|X|^h ≤ |X|^n`, the validated LUT row count.
        self.configs = x.pow(h as u32);
        self.width = width;
        self.words = count.div_ceil(64);

        self.xpow.clear();
        self.pow_h.clear();
        self.pow_f.clear();
        let mut p = 1usize;
        for _ in 0..h {
            self.xpow.push(p);
            p = p.saturating_mul(x);
        }
        for &v in &self.honest {
            self.pow_h.push(x.pow(v as u32));
        }
        for &v in &self.faulty {
            self.pow_f.push(x.pow(v as u32));
        }

        // Per mask position: output value → mask of states producing it
        // (the factored "all successors output `expect`" check). A handful
        // of linear-scanned pairs, not a hash map — `x ≤ 64`.
        self.out_ok.clear();
        self.out_ok_off.clear();
        self.out_ok_off.push(0);
        for &v in &self.honest[..width] {
            let start = self.out_ok.len();
            for (state, &value) in spec.output[v].iter().enumerate() {
                match self.out_ok[start..].iter_mut().find(|(v, _)| *v == value) {
                    Some((_, mask)) => *mask |= 1u64 << state,
                    None => self.out_ok.push((value, 1u64 << state)),
                }
            }
            self.out_ok_off.push(self.out_ok.len());
        }

        self.index.reset(x, h, count);
        self.masks.clear();
        self.masks.resize(count * width, 0);
        self.pred.clear();
        self.pred.resize(width * x * self.words, 0);
        self.cnt.clear();
        self.cnt.resize(count, 0);
        self.time.clear();
        self.time.resize(count, UNDECIDED);
        self.safe.reset(count);
        self.digits.clear();
        self.digits.resize(h, 0);
        self.byz.clear();
        self.byz.resize(faulty.len(), 0);

        // --- masks, predecessor index, safe seed, in index order. ---------
        let words = self.words;
        let c = spec.c;
        let mut rows: [&[u8]; 64] = [&[]; 64];
        for (row, &v) in rows.iter_mut().zip(&self.honest[..width]) {
            *row = &spec.transition[v];
        }
        let mut base = 0usize; // LUT row index of the honest part
        for e in 0..count {
            // Next-state masks under all Byzantine combinations. The LUT
            // row index is shared by every receiver, so the combo loop is
            // outermost and the index is maintained by a mixed-radix
            // increment.
            let mrow = &mut self.masks[e * width..(e + 1) * width];
            let mut idx = base;
            let mut remaining = combos;
            loop {
                for (m, row) in mrow.iter_mut().zip(&rows) {
                    *m |= 1u64 << row[idx];
                }
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                let mut g = 0;
                loop {
                    if (self.byz[g] as usize) + 1 < x {
                        self.byz[g] += 1;
                        idx += self.pow_f[g];
                        break;
                    }
                    idx -= (x - 1) * self.pow_f[g];
                    self.byz[g] = 0;
                    g += 1;
                }
            }
            // The combo odometer ends at all-(x−1); reset it for the next
            // index (idx is re-seeded from `base`).
            self.byz.iter_mut().for_each(|b| *b = 0);

            // Predecessor index and undecided-successor counter.
            for (i, &m) in mrow.iter().enumerate() {
                let mut m = m;
                while m != 0 {
                    let state = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.pred[(i * x + state) * words + e / 64] |= 1u64 << (63 - (e % 64));
                }
            }
            self.cnt[e] = self.index.successors(mrow);

            // Output agreement and the factored safe-set seed: every
            // successor agrees on `out(e) + 1 mod c` iff every mask stays
            // within the states outputting that value.
            let out = |i: usize| spec.output[self.honest[i]][self.digits[i] as usize];
            let first = out(0);
            if (1..h).all(|i| out(i) == first) {
                let expect = (first + 1) % c;
                let ok = mrow.iter().enumerate().all(|(i, &m)| {
                    let pairs = &self.out_ok[self.out_ok_off[i]..self.out_ok_off[i + 1]];
                    let okm = pairs
                        .iter()
                        .find(|(v, _)| *v == expect)
                        .map_or(0, |(_, m)| *m);
                    m & !okm == 0
                });
                if ok {
                    self.safe.set_bit(e, true);
                }
            }

            self.index.record(e, &self.digits);
            if e + 1 < count {
                self.index.advance(&mut self.digits, &mut base, &self.pow_h);
            }
        }
        Ok(())
    }

    /// Greatest-fixed-point refinement of the seeded safe set: an index
    /// survives iff all of its successors stay safe. One lazy successor
    /// walk per seed member (early exit on the first escape), then worklist
    /// propagation — every removal scans its predecessors once, and only
    /// indices whose successor changed are ever touched again.
    fn refine_safe(&mut self) {
        let mut removals = std::mem::take(&mut self.stack);
        removals.clear();
        // Initial verification pass, ascending. Checking against the live
        // set is sound: a member removed earlier only strengthens the check,
        // and predecessors of any removal are re-examined below.
        let width = self.width;
        for w in 0..self.words {
            let mut acc = self.safe.words()[w];
            while acc != 0 {
                let lead = acc.leading_zeros() as usize;
                acc &= !(1u64 << (63 - lead));
                let e = w * 64 + lead;
                let masks = &self.masks[e * width..(e + 1) * width];
                let safe = &self.safe;
                if !self
                    .index
                    .for_each_successor(masks, &self.xpow, |s| safe.bit(s))
                {
                    self.safe.set_bit(e, false);
                    removals.push(e as u32);
                }
            }
        }
        let mut preds = std::mem::take(&mut self.preds);
        while let Some(s) = removals.pop() {
            preds.clear();
            self.collect_preds(s as usize, self.safe.words(), &mut preds);
            for &e in &preds {
                // Collected under the safe filter; a safe predecessor has
                // the removed `s` among its successors, so it escapes too.
                self.safe.set_bit(e as usize, false);
                removals.push(e);
            }
        }
        self.stack = removals;
        self.preds = preds;
    }

    /// Appends to `out` every index with `s` among its successors,
    /// restricted to the set bits of `filter`: the word-wise intersection of
    /// `filter` and the predecessor rows of `s`, short-circuited on zero.
    fn collect_preds(&self, s: usize, filter: &[u64], out: &mut Vec<u32>) {
        let words = self.words;
        let mut rows = [0usize; 64];
        let mut nrows = 0;
        self.index.pred_rows(s, |row| {
            rows[nrows] = row * words;
            nrows += 1;
        });
        for w in 0..words {
            let mut acc = filter[w];
            for &row in &rows[..nrows] {
                if acc == 0 {
                    break;
                }
                acc &= self.pred[row + w];
            }
            while acc != 0 {
                let lead = acc.leading_zeros() as usize;
                acc &= !(1u64 << (63 - lead));
                out.push((w * 64 + lead) as u32);
            }
        }
    }

    /// Counter-based attractor layering over the predecessor index:
    /// `time = 0` on the safe set; an index is decided at `t + 1` the
    /// moment its last undecided successor is decided at `t`.
    ///
    /// Each layer is a **batched bitset pass**: the predecessor rows of
    /// every frontier member are hoisted once, then the pass sweeps a
    /// **shrinking live window** of index words — words whose undecided
    /// bits all dropped are skipped for the whole frontier, so late layers
    /// touch only the still-contested words. Coverage sums the decided
    /// indices' cardinalities.
    fn attract(&mut self) {
        // Live filter: undecided indices (padding bits clear).
        self.undecided.clear();
        self.undecided.resize(self.words, u64::MAX);
        let tail = self.count - (self.words - 1) * 64;
        if tail < 64 {
            self.undecided[self.words - 1] = !0u64 << (64 - tail);
        }
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(self.safe.iter_ones().map(|e| e as u32));
        let mut covered = 0u64;
        for &e in &frontier {
            self.time[e as usize] = 0;
            self.undecided[e as usize / 64] &= !(1u64 << (63 - (e as usize % 64)));
            covered += self.index.size(e as usize);
        }
        self.worst_time = 0;
        let mut next = std::mem::take(&mut self.next);
        let mut rows = std::mem::take(&mut self.rows);
        let mut row_off = std::mem::take(&mut self.row_off);
        let mut live = std::mem::take(&mut self.live);
        next.clear();
        live.clear();
        live.extend(0..self.words as u32);
        let words = self.words;
        let mut t = 0u32;
        while !frontier.is_empty() {
            // The window only ever shrinks: words with no undecided bits
            // left are dropped for this and every later layer — before the
            // row hoist, so a fully-decided space skips the layer entirely.
            live.retain(|&w| self.undecided[w as usize] != 0);
            if live.is_empty() {
                break;
            }
            rows.clear();
            row_off.clear();
            row_off.push(0);
            for &s in &frontier {
                self.index
                    .pred_rows(s as usize, |row| rows.push(row * words));
                row_off.push(rows.len() as u32);
            }
            for &w in &live {
                let w = w as usize;
                for k in 0..frontier.len() {
                    let mut acc = self.undecided[w];
                    if acc == 0 {
                        break; // every bit of this word decided mid-layer
                    }
                    for &row in &rows[row_off[k] as usize..row_off[k + 1] as usize] {
                        acc &= self.pred[row + w];
                        if acc == 0 {
                            break;
                        }
                    }
                    while acc != 0 {
                        let lead = acc.leading_zeros() as usize;
                        let bit = 1u64 << (63 - lead);
                        acc &= !bit;
                        let e = w * 64 + lead;
                        self.cnt[e] -= 1;
                        if self.cnt[e] == 0 {
                            self.time[e] = t + 1;
                            self.undecided[w] &= !bit;
                            covered += self.index.size(e);
                            next.push(e as u32);
                        }
                    }
                }
            }
            if !next.is_empty() {
                self.worst_time = u64::from(t + 1);
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            t += 1;
        }
        self.covered = covered as usize;
        self.frontier = frontier;
        self.next = next;
        self.rows = rows;
        self.row_off = row_off;
        self.live = live;
    }

    /// Decodes full configuration `e` into per-honest-position states.
    fn config_digits(&self, e: usize) -> Vec<u8> {
        let mut digits = vec![0u8; self.honest.len()];
        let mut rest = e;
        for d in digits.iter_mut() {
            *d = (rest % self.x) as u8;
            rest /= self.x;
        }
        digits
    }

    /// Whether the attractor left the full configuration with `digits`
    /// undecided; `scratch` receives a reordered copy.
    fn stuck(&self, digits: &[u8], scratch: &mut [u8]) -> bool {
        scratch.copy_from_slice(digits);
        self.time[self.index.rank(scratch)] == UNDECIDED
    }

    /// Extracts a lasso-shaped non-stabilising execution from the stuck
    /// region of the full configuration space, including the Byzantine
    /// values realising every transition (see the module docs).
    pub(crate) fn extract_witness(&self, lut: &LutCounter) -> Option<Witness> {
        let spec = lut.spec();
        let h = self.honest.len();
        let mut scratch = vec![0u8; h];
        let start =
            (0..self.configs).find(|&e| self.stuck(&self.config_digits(e), &mut scratch))?;
        let mut configs: Vec<usize> = vec![start];
        let mut byz: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut visited: HashMap<usize, usize> = HashMap::new();
        visited.insert(start, 0);
        let mut current = start;
        let cycle_start;
        loop {
            let digits = self.config_digits(current);
            scratch.copy_from_slice(&digits);
            let at = self.index.rank(&mut scratch) * self.width;
            let mut masks = [0u64; 64];
            for (i, m) in masks[..h].iter_mut().enumerate() {
                *m = self.masks[at + if I::SHARED_MASK { 0 } else { i }];
            }
            // A stuck configuration always has a stuck successor (otherwise
            // its undecided-successor counter would have reached zero).
            let mut next = None;
            for_each_product(&masks[..h], &self.xpow, |s, succ| {
                if self.stuck(succ, &mut scratch) {
                    next = Some(s);
                }
                next.is_none()
            });
            let next = next.expect("stuck configuration without stuck successor");
            let target = self.config_digits(next);
            let base: usize = digits
                .iter()
                .zip(&self.pow_h)
                .map(|(&d, &p)| d as usize * p)
                .sum();
            // For every honest node find the first Byzantine combo
            // realising its next state, and record the per-faulty values.
            let mut step: Vec<Vec<u8>> = Vec::with_capacity(h);
            for (hi, &node) in self.honest.iter().enumerate() {
                let row = &spec.transition[node];
                let combo = (0..self.combos)
                    .find(|&combo| {
                        let mut idx = base;
                        let mut rest = combo;
                        for &p in &self.pow_f {
                            idx += (rest % self.x) * p;
                            rest /= self.x;
                        }
                        row[idx] == target[hi]
                    })
                    .expect("successor state must be realisable");
                let mut values = Vec::with_capacity(self.faulty.len());
                let mut rest = combo;
                for _ in &self.faulty {
                    values.push((rest % self.x) as u8);
                    rest /= self.x;
                }
                step.push(values);
            }
            byz.push(step);
            configs.push(next);
            if let Some(&at) = visited.get(&next) {
                cycle_start = at;
                break;
            }
            visited.insert(next, configs.len() - 1);
            current = next;
        }
        Some(Witness {
            honest: self.honest.clone(),
            fault_set: self.faulty.clone(),
            configs: configs.into_iter().map(|e| self.config_digits(e)).collect(),
            byz,
            cycle_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sc_core::LutSpec;

    use super::*;
    use crate::checker::FaultSets;
    use crate::reference::FaultSetAnalysis;

    /// A random table within the reference checker's limits: a counting
    /// rule with a share `noise` of its rows redrawn at random. The rule
    /// `g` walks a followed state down to the `0 ↔ 1` cycle, so agreement
    /// is reached through layers of depth up to `|X|`. Symmetric tables
    /// follow a state received `n − f` times (else the top state) and
    /// redraw per multiset of received states, so every node shares one
    /// exchangeable table; asymmetric ones form a chain — node `v` follows
    /// node `v − 1`, node 0 itself — and redraw per node and row.
    fn random_lut(rng: &mut SmallRng, n: usize, f: usize, x: u8, symmetric: bool) -> LutCounter {
        let noise = [0.0, 0.05, 0.2, 1.0][rng.random_range(0..4usize)];
        let g = |s: u8| if s >= 2 { s - 2 } else { 1 - s };
        let xs = x as usize;
        let mut classes: HashMap<Vec<u8>, u8> = HashMap::new();
        let mut table = |rng: &mut SmallRng, node: usize| -> Vec<u8> {
            (0..xs.pow(n as u32))
                .map(|r| {
                    let mut digits: Vec<u8> =
                        (0..n).map(|i| (r / xs.pow(i as u32) % xs) as u8).collect();
                    let draw = |rng: &mut SmallRng, followed: u8| {
                        if rng.random_bool(noise) {
                            rng.random_range(0..x)
                        } else {
                            g(followed)
                        }
                    };
                    if !symmetric {
                        return draw(rng, digits[node.saturating_sub(1)]);
                    }
                    digits.sort_unstable();
                    let quorum = digits
                        .windows(n - f)
                        .find(|w| w[0] == w[n - f - 1])
                        .map_or(x - 1, |w| w[0]);
                    *classes.entry(digits).or_insert_with(|| draw(rng, quorum))
                })
                .collect()
        };
        let shared = table(rng, 0);
        let transition = (0..n)
            .map(|node| {
                if symmetric {
                    shared.clone()
                } else {
                    table(rng, node)
                }
            })
            .collect();
        let out: Vec<u64> = (0..x).map(|s| u64::from(s) % 2).collect();
        LutCounter::new(LutSpec {
            n,
            f,
            c: 2,
            states: x,
            transition,
            output: vec![out; n],
            stabilization_bound: 0,
        })
        .unwrap()
    }

    /// Pins the attractor layering itself, not just its summary: on random
    /// small tables, every configuration of every fault set gets the same
    /// time (or stays undecided) in the full solver, in the orbit quotient
    /// read through `rank(sort(digits))`, and in the reference checker.
    #[test]
    fn attractor_times_agree_per_configuration_with_the_reference() {
        let shapes: [(usize, usize, u8); 9] = [
            (1, 0, 5),
            (2, 0, 4),
            (3, 0, 3),
            (3, 0, 5),
            (4, 1, 2),
            (4, 1, 3),
            (4, 1, 4),
            (5, 1, 3),
            (7, 2, 2),
        ];
        let mut rng = SmallRng::seed_from_u64(0x1a7e_5eed);
        let mut full = Game::<Configs>::default();
        let mut orbit = Game::<Orbits>::default();
        let (mut layered, mut partial, mut quotiented) = (0usize, 0usize, 0usize);
        for round in 0..24 {
            for &(n, f, x) in &shapes {
                let symmetric = round % 2 == 0;
                let lut = random_lut(&mut rng, n, f, x, symmetric);
                for faulty in FaultSets::new(n, f) {
                    let oracle = FaultSetAnalysis::run(&lut, &faulty).unwrap();
                    let want: Vec<u32> = oracle
                        .time
                        .iter()
                        .map(|t| t.map_or(UNDECIDED, |t| t as u32))
                        .collect();
                    full.run(&lut, &faulty).unwrap();
                    assert_eq!(full.time, want, "full solver, {n}/{f}/{x} F={faulty:?}");
                    if exchangeable(&lut) {
                        quotiented += 1;
                        orbit.run(&lut, &faulty).unwrap();
                        for (e, &t) in want.iter().enumerate() {
                            let mut digits = full.config_digits(e);
                            assert_eq!(
                                orbit.time[orbit.index.rank(&mut digits)],
                                t,
                                "quotient, {n}/{f}/{x} F={faulty:?} e={e}"
                            );
                        }
                    }
                    let decided = want.iter().filter(|&&t| t != UNDECIDED);
                    layered += usize::from(decided.clone().any(|&t| t >= 2));
                    partial += usize::from(decided.count() % want.len() != 0);
                }
            }
        }
        // The sample must exercise deep layers, partly stuck games and the
        // quotient.
        assert!(
            layered > 80 && partial > 200 && quotiented > 500,
            "layered {layered}, partial {partial}, quotiented {quotiented}"
        );
    }

    /// A symmetric (exchangeable) table: next state = f(multiset of
    /// received states), here the sum of received states mod x.
    fn symmetric_lut(n: usize, f: usize, x: u8) -> LutCounter {
        let rows = (x as usize).pow(n as u32);
        let table: Vec<u8> = (0..rows)
            .map(|r| {
                let mut rest = r;
                let mut sum = 0usize;
                for _ in 0..n {
                    sum += rest % x as usize;
                    rest /= x as usize;
                }
                (sum % x as usize) as u8
            })
            .collect();
        LutCounter::new(LutSpec {
            n,
            f,
            c: 2,
            states: x,
            transition: vec![table; n],
            output: vec![(0..x).map(|s| u64::from(s) % 2).collect(); n],
            stabilization_bound: 0,
        })
        .unwrap()
    }

    #[test]
    fn exchangeability_detects_symmetric_and_rejects_positional_tables() {
        assert!(exchangeable(&symmetric_lut(3, 0, 3)));
        // Follow node 0: identical tables, but positional.
        let row: Vec<u8> = (0..8).map(|r| (r % 2) as u8).collect();
        let follow = LutCounter::new(LutSpec {
            n: 3,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![row.clone(), row.clone(), row],
            output: vec![vec![0, 1]; 3],
            stabilization_bound: 0,
        })
        .unwrap();
        assert!(!exchangeable(&follow));
        // Distinct tables are never exchangeable.
        let mut spec = symmetric_lut(3, 0, 2).spec().clone();
        spec.transition[2][0] ^= 1;
        assert!(!exchangeable(&LutCounter::new(spec).unwrap()));
    }

    #[test]
    fn colex_odometer_enumerates_ranks_in_order() {
        // Build a tiny instance and confirm rank(rep(o)) == o for all o.
        let lut = symmetric_lut(4, 1, 3);
        let mut game = Game::<Orbits>::default();
        game.run(&lut, &[1]).unwrap();
        let h = game.honest.len();
        assert_eq!(game.count, binomial(3 + h - 1, h) as usize);
        for o in 0..game.count {
            let mut rep = game.index.reps[o * h..(o + 1) * h].to_vec();
            assert!(rep.windows(2).all(|w| w[0] <= w[1]), "rep not sorted");
            assert_eq!(
                game.index.rank(&mut rep),
                o,
                "rank disagrees with build order"
            );
        }
        // Cardinalities partition the full space.
        assert_eq!(game.index.sizes.iter().sum::<u64>(), game.configs as u64);
    }

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(20, 5), 15504);
        assert_eq!(binomial(3, 7), 0);
    }
}
