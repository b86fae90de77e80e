//! The orbit-quotient safety-game solver: the bitset core of
//! [`crate::game`], re-indexed over *orbits* of honest configurations
//! under permutations of the correct nodes.
//!
//! # When the quotient is sound
//!
//! Quotienting by honest-node relabelings is **not** free with merely
//! identical per-node tables: the LUT row index weights received positions
//! by `|X|^u`, so two nodes swapping states generally lands in a different
//! row. The quotient is sound exactly for **exchangeable** tables
//! ([`exchangeable`]): every node runs the same transition/output tables
//! and the shared transition table is invariant under permuting the
//! received positions (`T[r ∘ τ] = T[r]` for adjacent transpositions `τ`,
//! which generate the full symmetric group). That is the natural class for
//! synthesis — an anonymous algorithm reads the *multiset* of received
//! states — and every candidate the symmetric synthesis families produce
//! is exchangeable by construction.
//!
//! For an exchangeable table the whole game factors through multisets:
//!
//! * the per-receiver successor mask is **receiver-independent** — node
//!   `i`'s possible next states from configuration `e` depend only on the
//!   multiset of honest states in `e` (one `u64` per orbit instead of `h`
//!   words per configuration);
//! * the safe-set seed ("every successor outputs `out(e)+1`") and the
//!   greatest-fixed-point / attractor dynamics are invariant under the
//!   node permutations, so the full solver's `time` function is constant
//!   on orbits and the quotient's layering *is* the full layering.
//!
//! # The orbit index
//!
//! An orbit of `h` honest states over `|X| = x` values is a multiset,
//! canonically represented by its non-decreasing digit vector
//! `d_0 ≤ d_1 ≤ … ≤ d_{h−1}`. Orbits are ranked by the **combinatorial
//! number system** (colex order): mapping `c_i = d_i + i` gives a strictly
//! increasing sequence, and
//!
//! ```text
//! rank(d) = Σ_i C(c_i, i + 1),     0 ≤ rank < C(x + h − 1, h)
//! ```
//!
//! is a bijection onto `0..C(x+h−1, h)`. The build loop never ranks from
//! scratch: a colex odometer advances the digit vector in rank order while
//! maintaining the LUT row index incrementally, exactly like the full
//! solver's mixed-radix configuration walk. Everything downstream reuses
//! the full solver's machinery one level up:
//!
//! * `cnt[O] = C(popcount(mask) + h − 1, h)` — the number of successor
//!   *orbits* (every multiset over the mask is realisable, because the
//!   per-receiver choices are independent);
//! * predecessor bitsets are per *state*: `P[σ] = { O : σ ∈ mask(O) }`,
//!   and the predecessors of a decided orbit `S` are
//!   `⋂_{σ ∈ distinct(S)} P[σ]`;
//! * aggregate statistics are exact for the **full** space: each orbit
//!   carries its cardinality (a multinomial coefficient), so `configs`,
//!   `covered`, `coverage` and `worst_time` are bitwise identical to the
//!   unquotiented solver's — the equivalence gate `tests/quotient_cross.rs`
//!   enforces it.
//!
//! Witness extraction maps back through the quotient: the lasso walk runs
//! in the *full* configuration space (start = the numerically lowest stuck
//! configuration, steps = the lowest stuck successor, Byzantine values =
//! the first realising combo), querying orbit ranks only for decidedness —
//! so the emitted [`Witness`] is byte-identical to the full solver's and
//! replays through `sc_attack::scripted` unchanged.

use std::collections::HashMap;

use sc_core::LutCounter;
use sc_protocol::{BitVec, ParamError};

use crate::checker::Witness;
use crate::game::{SetStats, MAX_BYZ_COMBOS, MAX_CONFIGS};

/// Sentinel for orbits the attractor never decides.
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

/// The quotient game solver: per-fault-set state, owned once and rebuilt
/// in place by every [`OrbitSolver::run`] — the orbit-level mirror of
/// [`crate::game::Solver`], sharing its exploration-limit constants.
#[derive(Default)]
pub(crate) struct OrbitSolver {
    /// Correct nodes, ascending.
    pub honest: Vec<usize>,
    /// The fault set, in the order Byzantine combos are decoded.
    pub faulty: Vec<usize>,
    /// Number of states `|X|`.
    pub x: usize,
    /// Byzantine combinations per step (`|X|^|F|`).
    pub combos: usize,
    /// Full configuration count (`|X|^h`) — the statistics denominator.
    pub configs: usize,
    /// Number of orbits (`C(x + h − 1, h)`).
    pub orbits: usize,
    /// Full configurations with a decided stabilisation time.
    pub covered: usize,
    /// Exact worst-case stabilisation time over decided configurations.
    pub worst_time: u64,
    /// The greatest fixed point, over orbits.
    safe: BitVec,
    /// One receiver-independent successor mask per orbit.
    masks: Vec<u64>,
    /// Canonical representatives: `h` non-decreasing digits per orbit.
    reps: Vec<u8>,
    /// Orbit cardinalities (multinomial coefficients); sum = `configs`.
    sizes: Vec<u64>,
    /// Flat predecessor bitsets: `σ * words ..` is the bitset of orbits
    /// whose mask contains state `σ`.
    pred: Vec<u64>,
    /// 64-bit words per orbit bitset.
    words: usize,
    /// Attractor time per orbit ([`UNDECIDED`] = stuck).
    time: Vec<u32>,
    /// Attractor counters: undecided successor *orbits* per orbit.
    cnt: Vec<u32>,
    /// Pascal table `C(a, b)` for `a < x + h`, `b ≤ h` (saturating).
    binom: Vec<u64>,
    /// Column count of `binom` (`h + 1`).
    binom_cols: usize,
    /// `x^i` for honest positions `i` (full-configuration radix).
    xpow: Vec<usize>,
    /// `x^{honest[i]}` — LUT row weight of honest position `i`.
    pow_h: Vec<usize>,
    /// `x^{faulty[g]}` — LUT row weight of faulty position `g`.
    pow_f: Vec<usize>,
    /// `(output value, mask of states producing it)` pairs — one shared
    /// list (the tables are identical across nodes).
    out_ok: Vec<(u64, u64)>,
    /// Shared output table, indexed by state.
    out: Vec<u64>,
    // Worklist and odometer scratch.
    undecided: Vec<u64>,
    digits: Vec<u8>,
    byz: Vec<u8>,
    stack: Vec<u32>,
    preds: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Attractor scratch: hoisted predecessor-row offsets of the current
    /// frontier (variable count per member — the distinct digits).
    rows: Vec<usize>,
    /// Attractor scratch: `rows` offsets, one slot per frontier member + 1.
    row_off: Vec<u32>,
    /// Attractor scratch: the shrinking window of orbit words that still
    /// hold undecided bits.
    live: Vec<u32>,
}

impl OrbitSolver {
    /// Builds the quotient game for `lut` under fault set `faulty` and
    /// solves it. **Precondition**: `lut` is [`exchangeable`] — the caller
    /// (the analyzer's mode dispatch) checks; the statistics are only
    /// meaningful under that symmetry.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the instance exceeds the exploration
    /// limits (`C(x+h−1, h)` orbits or `|X|^|F|` combos too large, more
    /// than 64 states, or a fault set leaving no correct node).
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
        let combos = x
            .checked_pow(faulty.len() as u32)
            .filter(|&c| c <= MAX_BYZ_COMBOS)
            .ok_or_else(|| ParamError::overflow(format!("|X|^|F| = {x}^{}", faulty.len())))?;
        let orbits = binomial(x + h - 1, h);
        if orbits > MAX_CONFIGS as u64 {
            return Err(ParamError::overflow(format!(
                "C(x+h−1, h) = C({}, {h}) orbits",
                x + h - 1
            )));
        }
        let orbits = orbits as usize;
        // `|X|^h ≤ |X|^n` = the validated LUT row count, so this cannot
        // overflow; the checked form guards against future relaxations.
        let configs = x
            .checked_pow(h as u32)
            .ok_or_else(|| ParamError::overflow(format!("|X|^h = {x}^{h}")))?;
        self.x = x;
        self.combos = combos;
        self.orbits = orbits;
        self.configs = configs;
        self.words = orbits.div_ceil(64);

        // Pascal table C(a, b), a < x + h, b ≤ h.
        self.binom_cols = h + 1;
        self.binom.clear();
        self.binom.resize((x + h) * self.binom_cols, 0);
        for a in 0..x + h {
            self.binom[a * self.binom_cols] = 1;
            for b in 1..=h.min(a) {
                let up = (a - 1) * self.binom_cols + b;
                self.binom[a * self.binom_cols + b] =
                    self.binom[up - 1].saturating_add(self.binom[up]);
            }
        }

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

        // Shared output table and value → state-mask pairs (one list: the
        // tables are identical across nodes under exchangeability).
        let outputs = &spec.output[self.honest[0]];
        self.out.clear();
        self.out.extend_from_slice(outputs);
        self.out_ok.clear();
        for (state, &value) in outputs.iter().enumerate() {
            match self.out_ok.iter_mut().find(|(v, _)| *v == value) {
                Some((_, mask)) => *mask |= 1u64 << state,
                None => self.out_ok.push((value, 1u64 << state)),
            }
        }

        self.masks.clear();
        self.masks.resize(orbits, 0);
        self.reps.clear();
        self.reps.resize(orbits * h, 0);
        self.sizes.clear();
        self.sizes.resize(orbits, 0);
        self.pred.clear();
        self.pred.resize(x * self.words, 0);
        self.cnt.clear();
        self.cnt.resize(orbits, 0);
        self.time.clear();
        self.time.resize(orbits, UNDECIDED);
        self.safe.reset(orbits);
        self.digits.clear();
        self.digits.resize(h, 0);
        self.byz.clear();
        self.byz.resize(faulty.len(), 0);

        // --- masks, predecessor index, sizes, safe seed, in rank order. ---
        // The colex odometer walks the non-decreasing digit vectors in
        // rank order while the LUT row index of the honest part is
        // maintained incrementally (digit `i` is placed at position
        // `honest[i]` — any placement indexes the same row, the table
        // being exchangeable).
        let words = self.words;
        let row = &spec.transition[self.honest[0]];
        let c = spec.c;
        let mut base = 0usize; // LUT row index of the honest part
        for o in 0..orbits {
            // Receiver-independent successor mask under all Byzantine
            // combinations — the orbit-level copy of the full solver's
            // incremental combo loop, one accumulator instead of `h`.
            let mut m = 0u64;
            let mut idx = base;
            let mut remaining = combos;
            loop {
                m |= 1u64 << row[idx];
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
            self.byz.iter_mut().for_each(|b| *b = 0);
            self.masks[o] = m;
            self.reps[o * h..(o + 1) * h].copy_from_slice(&self.digits);

            // Orbit cardinality: the multinomial h! / ∏ mult_k!, computed
            // as a product of exact binomials over the digit runs.
            let mut size = 1u64;
            let mut placed = 0usize;
            let mut r = 0;
            while r < h {
                let mut run = 1;
                while r + run < h && self.digits[r + run] == self.digits[r] {
                    run += 1;
                }
                placed += run;
                size *= self.binom(placed, run);
                r += run;
            }
            self.sizes[o] = size;

            // Predecessor index and undecided-successor-orbit counter.
            let p = m.count_ones() as usize;
            let mut mm = m;
            while mm != 0 {
                let state = mm.trailing_zeros() as usize;
                mm &= mm - 1;
                self.pred[state * words + o / 64] |= 1u64 << (63 - (o % 64));
            }
            self.cnt[o] = self.binom(p + h - 1, h) as u32;

            // Safe seed: the configuration agrees on its output and every
            // successor keeps outputting `out + 1 mod c` — per-orbit the
            // full solver's factored per-node check collapses to one mask
            // test (the mask is shared by every receiver).
            let first = self.out[self.digits[0] as usize];
            if self.digits.iter().all(|&d| self.out[d as usize] == first) {
                let expect = (first + 1) % c;
                let okm = self
                    .out_ok
                    .iter()
                    .find(|(v, _)| *v == expect)
                    .map_or(0, |(_, m)| *m);
                if m & !okm == 0 {
                    self.safe.set_bit(o, true);
                }
            }

            // Colex successor: bump the lowest digit that can grow while
            // staying non-decreasing, zero everything below it.
            if o + 1 < orbits {
                let mut i = 0;
                loop {
                    let cap = if i + 1 < h {
                        self.digits[i + 1]
                    } else {
                        (x - 1) as u8
                    };
                    if self.digits[i] < cap {
                        self.digits[i] += 1;
                        base += self.pow_h[i];
                        for j in 0..i {
                            base -= self.digits[j] as usize * self.pow_h[j];
                            self.digits[j] = 0;
                        }
                        break;
                    }
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// `C(a, b)` from the per-run Pascal table.
    #[inline]
    fn binom(&self, a: usize, b: usize) -> u64 {
        self.binom[a * self.binom_cols + b]
    }

    /// Rank of a non-decreasing digit vector in the combinatorial number
    /// system — the orbit index.
    #[inline]
    fn rank(&self, sorted: &[u8]) -> usize {
        let mut r = 0usize;
        for (i, &d) in sorted.iter().enumerate() {
            r += self.binom(d as usize + i, i + 1) as usize;
        }
        r
    }

    /// Greatest-fixed-point refinement over orbit representatives — the
    /// orbit-level mirror of the full solver's worklist: one lazy successor
    /// walk per seed member (early exit on the first escape), then removal
    /// propagation through the per-state predecessor bitsets.
    fn refine_safe(&mut self) {
        let mut removals = std::mem::take(&mut self.stack);
        removals.clear();
        for w in 0..self.words {
            let mut acc = self.safe.words()[w];
            while acc != 0 {
                let lead = acc.leading_zeros() as usize;
                acc &= !(1u64 << (63 - lead));
                let o = w * 64 + lead;
                let safe = &self.safe;
                if !self.for_each_successor_orbit(o, |s| safe.bit(s)) {
                    self.safe.set_bit(o, false);
                    removals.push(o as u32);
                }
            }
        }
        let mut preds = std::mem::take(&mut self.preds);
        while let Some(s) = removals.pop() {
            preds.clear();
            self.collect_preds(s as usize, self.safe.words(), &mut preds);
            for &o in &preds {
                self.safe.set_bit(o as usize, false);
                removals.push(o);
            }
        }
        self.stack = removals;
        self.preds = preds;
    }

    /// Walks the successor *orbits* of orbit `o` — every multiset of `h`
    /// states over the set bits of its mask, via a non-decreasing odometer
    /// over the sorted mask states — stopping when `visit` returns
    /// `false`. Returns whether the walk completed.
    fn for_each_successor_orbit(&self, o: usize, mut visit: impl FnMut(usize) -> bool) -> bool {
        let h = self.honest.len();
        let m = self.masks[o];
        let p = m.count_ones() as usize;
        let mut states = [0u8; 64];
        let mut mm = m;
        let mut k = 0;
        while mm != 0 {
            states[k] = mm.trailing_zeros() as u8;
            mm &= mm - 1;
            k += 1;
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

    /// Appends to `out` every orbit whose successor set contains orbit `s`,
    /// restricted to the set bits of `filter`: the word-wise intersection
    /// `filter ∩ ⋂_{σ ∈ distinct(rep(s))} P[σ]`.
    fn collect_preds(&self, s: usize, filter: &[u64], out: &mut Vec<u32>) {
        let h = self.honest.len();
        let words = self.words;
        let rep = &self.reps[s * h..(s + 1) * h];
        let mut rows = [0usize; 64];
        let mut nrows = 0usize;
        let mut prev = usize::MAX;
        for &d in rep {
            let d = d as usize;
            if d != prev {
                rows[nrows] = d * words;
                nrows += 1;
                prev = d;
            }
        }
        for w in 0..words {
            let mut acc = filter[w];
            for &row in rows.iter().take(nrows) {
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

    /// Counter-based attractor layering over orbits — structurally the full
    /// solver's batched bitset pass (hoisted predecessor rows per layer, a
    /// shrinking live window of undecided words), with two quotient
    /// adaptations: frontier members hoist a *variable* number of rows
    /// (their distinct digits) and coverage accumulates orbit
    /// *cardinalities*, keeping the statistics exact for the full space.
    fn attract(&mut self) {
        self.undecided.clear();
        self.undecided.resize(self.words, u64::MAX);
        let tail = self.orbits - (self.words - 1) * 64;
        if tail < 64 {
            self.undecided[self.words - 1] = !0u64 << (64 - tail);
        }
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        frontier.extend(self.safe.iter_ones().map(|o| o as u32));
        let mut covered = 0u64;
        for &o in &frontier {
            self.time[o as usize] = 0;
            self.undecided[o as usize / 64] &= !(1u64 << (63 - (o as usize % 64)));
            covered += self.sizes[o as usize];
        }
        self.worst_time = 0;
        let mut next = std::mem::take(&mut self.next);
        let mut rows = std::mem::take(&mut self.rows);
        let mut row_off = std::mem::take(&mut self.row_off);
        let mut live = std::mem::take(&mut self.live);
        next.clear();
        live.clear();
        live.extend(0..self.words as u32);
        let h = self.honest.len();
        let words = self.words;
        let mut t = 0u32;
        while !frontier.is_empty() {
            live.retain(|&w| self.undecided[w as usize] != 0);
            if live.is_empty() {
                break;
            }
            // Hoist each frontier member's predecessor rows — its distinct
            // digits — once per layer.
            rows.clear();
            row_off.clear();
            row_off.push(0);
            for &s in &frontier {
                let rep = &self.reps[s as usize * h..(s as usize + 1) * h];
                let mut prev = usize::MAX;
                for &d in rep {
                    let d = d as usize;
                    if d != prev {
                        rows.push(d * words);
                        prev = d;
                    }
                }
                row_off.push(rows.len() as u32);
            }
            for &w in &live {
                let w = w as usize;
                for k in 0..frontier.len() {
                    let mut acc = self.undecided[w];
                    if acc == 0 {
                        break;
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
                        let o = w * 64 + lead;
                        self.cnt[o] -= 1;
                        if self.cnt[o] == 0 {
                            self.time[o] = t + 1;
                            self.undecided[w] &= !bit;
                            covered += self.sizes[o];
                            next.push(o as u32);
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

    /// Whether the attractor decided the *orbit* of the given full-space
    /// digit vector (`scratch` receives the sorted copy).
    fn decided_config(&self, digits: &[u8], scratch: &mut [u8]) -> bool {
        scratch.copy_from_slice(digits);
        scratch.sort_unstable();
        self.time[self.rank(scratch)] != UNDECIDED
    }

    /// Extracts a lasso-shaped non-stabilising execution, mapped back from
    /// the quotient to the **full** configuration space so the emitted
    /// witness is byte-identical to [`crate::game::Solver::extract_witness`]'s
    /// (and the reference checker's): the walk starts at the numerically
    /// lowest stuck configuration, always follows the lowest stuck
    /// successor, and realises each honest transition with the first
    /// Byzantine combo in mixed-radix order. Decidedness is orbit-invariant
    /// (the full solver's `time` is constant on orbits), so querying the
    /// quotient's `time` through the orbit rank reproduces the full walk
    /// exactly.
    pub(crate) fn extract_witness(&self, lut: &LutCounter) -> Option<Witness> {
        let spec = lut.spec();
        let h = self.honest.len();
        let x = self.x;
        // Lowest stuck configuration = min over stuck orbits of the
        // orbit's lowest member, which places its largest digits at the
        // lowest (least-weighted… highest-radix) positions: Horner over
        // the ascending representative puts digit 0 at weight x^{h−1}.
        let mut start: Option<usize> = None;
        for o in 0..self.orbits {
            if self.time[o] != UNDECIDED {
                continue;
            }
            let rep = &self.reps[o * h..(o + 1) * h];
            let e = rep.iter().fold(0usize, |acc, &d| acc * x + d as usize);
            if start.is_none_or(|s| e < s) {
                start = Some(e);
            }
        }
        let start = start?;
        let mut sorted = vec![0u8; h];
        let mut configs: Vec<usize> = vec![start];
        let mut byz: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut visited: HashMap<usize, usize> = HashMap::new();
        visited.insert(start, 0);
        let mut current = start;
        let cycle_start;
        loop {
            let next = self
                .first_stuck_successor(current, &mut sorted)
                .expect("stuck configuration without stuck successor");
            let digits = self.config_digits(current);
            let target = self.config_digits(next);
            let base: usize = digits
                .iter()
                .zip(&self.pow_h)
                .map(|(&d, &p)| d as usize * p)
                .sum();
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

    /// First full-space successor of `e` (ascending) whose orbit is stuck —
    /// the quotient's replacement for the full solver's escape search: the
    /// successor mask is shared by every position, so the product odometer
    /// runs over `h` copies of one mask.
    fn first_stuck_successor(&self, e: usize, sorted: &mut [u8]) -> Option<usize> {
        let h = self.honest.len();
        sorted.copy_from_slice(&self.config_digits(e));
        sorted.sort_unstable();
        let m = self.masks[self.rank(sorted)];
        let low = m.trailing_zeros() as usize;
        let mut current = [0u8; 64];
        let mut succ = 0usize;
        for i in 0..h {
            current[i] = low as u8;
            succ += low * self.xpow[i];
        }
        loop {
            if !self.decided_config(&current[..h], sorted) {
                return Some(succ);
            }
            let mut i = 0;
            loop {
                if i == h {
                    return None;
                }
                let cur = current[i] as usize;
                let rest = if cur + 1 < 64 { m >> (cur + 1) } else { 0 };
                if rest != 0 {
                    let nxt = cur + 1 + rest.trailing_zeros() as usize;
                    current[i] = nxt as u8;
                    succ += (nxt - cur) * self.xpow[i];
                    break;
                }
                current[i] = low as u8;
                succ -= (cur - low) * self.xpow[i];
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::LutSpec;

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
        let mut solver = OrbitSolver::default();
        solver.run(&lut, &[1]).unwrap();
        let h = solver.honest.len();
        assert_eq!(solver.orbits, binomial(3 + h - 1, h) as usize);
        for o in 0..solver.orbits {
            let rep = &solver.reps[o * h..(o + 1) * h];
            assert!(rep.windows(2).all(|w| w[0] <= w[1]), "rep not sorted");
            assert_eq!(solver.rank(rep), o, "rank disagrees with build order");
        }
        // Cardinalities partition the full space.
        assert_eq!(solver.sizes.iter().sum::<u64>(), solver.configs as u64);
    }

    #[test]
    fn binomial_matches_pascal() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(20, 5), 15504);
        assert_eq!(binomial(3, 7), 0);
    }
}
