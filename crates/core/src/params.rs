//! Parameters of the resilience-boosting construction (Theorem 1).

use sc_consensus::PhaseKingParams;
use sc_protocol::{checked_pow_u64, NodeId, ParamError};

/// Validated parameters of one application of Theorem 1.
///
/// Given an inner counter `A ∈ A(n, f, c)`, the boosted counter runs on
/// `N = k·n` nodes split into `k` blocks of `n` nodes, tolerates
/// `F < (f+1)·m` faults where `m = ⌈k/2⌉`, and outputs values modulo a
/// caller-chosen `C > 1`. The inner counter's modulus must be a multiple of
///
/// ```text
/// c_req = τ·(2m)^k,   τ = 3·(F + 2 + s)
/// ```
///
/// where `s` is the optional *king slack* (0 in the paper; the predictive
/// pulling mode of `sc-pulling` uses `s = 1`, see DESIGN.md §2.5).
///
/// # Example
///
/// ```
/// use sc_core::BoostParams;
///
/// // Corollary 1 for f = 1: k = 4 blocks of the trivial one-node counter.
/// let p = BoostParams::new(1, 0, 4, 1, 8, 0)?;
/// assert_eq!(p.n_total(), 4);
/// assert_eq!(p.tau(), 9);          // 3(F+2) = 9
/// assert_eq!(p.c_req(), 2304);     // 9 · 4^4
/// assert_eq!(p.time_overhead(), 2304);
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoostParams {
    n_inner: usize,
    f_inner: usize,
    k: usize,
    m: usize,
    n_total: usize,
    f_total: usize,
    c_out: u64,
    king_slack: u64,
    tau: u64,
    c_req: u64,
    /// `τ·(2m)^i` for every block `i`: how long block `i` dwells on one
    /// leader pointer — [`BoostParams::pointer`]'s divisors, tabulated.
    dwell: Vec<u64>,
    pk: PhaseKingParams,
}

impl BoostParams {
    /// Validates the preconditions of Theorem 1 and derives all quantities.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when any precondition fails:
    /// `k ≥ 3`, `3·f_inner < n_inner`, `F < (f+1)·⌈k/2⌉`, `N > 3F`,
    /// `C > 1`, or when `τ·(2m)^k` overflows `u64`.
    pub fn new(
        n_inner: usize,
        f_inner: usize,
        k: usize,
        f_total: usize,
        c_out: u64,
        king_slack: u64,
    ) -> Result<Self, ParamError> {
        if k < 3 {
            return Err(ParamError::constraint(format!(
                "need k ≥ 3 blocks, got {k}"
            )));
        }
        if n_inner == 0 {
            return Err(ParamError::constraint(
                "blocks must contain at least one node",
            ));
        }
        if 3 * f_inner >= n_inner {
            return Err(ParamError::constraint(format!(
                "inner counter needs f < n/3, got n = {n_inner}, f = {f_inner}"
            )));
        }
        let m = k.div_ceil(2);
        if f_total >= (f_inner + 1) * m {
            return Err(ParamError::constraint(format!(
                "resilience F = {f_total} violates F < (f+1)·⌈k/2⌉ = {}",
                (f_inner + 1) * m
            )));
        }
        let n_total = n_inner
            .checked_mul(k)
            .ok_or_else(|| ParamError::overflow("N = k·n"))?;
        let king_groups = f_total as u64 + 2 + king_slack;
        let pk = PhaseKingParams::with_king_groups(n_total, f_total, c_out, king_groups)?;
        let tau = pk.slots();
        let two_m = 2 * m as u64;
        let c_req = tau
            .checked_mul(checked_pow_u64(two_m, k as u32, "(2m)^k")?)
            .ok_or_else(|| ParamError::overflow("c_req = τ·(2m)^k"))?;
        // τ·(2m)^i divides τ·(2m)^k = c_req, so none of these overflows.
        let dwell = (0..k as u32).map(|i| tau * two_m.pow(i)).collect();
        Ok(BoostParams {
            n_inner,
            f_inner,
            k,
            m,
            n_total,
            f_total,
            c_out,
            king_slack,
            tau,
            c_req,
            dwell,
            pk,
        })
    }

    /// Nodes per block (the inner counter's `n`).
    pub fn n_inner(&self) -> usize {
        self.n_inner
    }

    /// Inner resilience `f` assumed of each block's counter.
    pub fn f_inner(&self) -> usize {
        self.f_inner
    }

    /// Number of blocks `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `m = ⌈k/2⌉`: the number of candidate leader blocks.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total nodes `N = k·n`.
    pub fn n_total(&self) -> usize {
        self.n_total
    }

    /// Boosted resilience `F`.
    pub fn f_total(&self) -> usize {
        self.f_total
    }

    /// Output counter size `C`.
    pub fn c_out(&self) -> u64 {
        self.c_out
    }

    /// Extra king groups beyond the paper's `F+2` (0 = paper-exact).
    pub fn king_slack(&self) -> u64 {
        self.king_slack
    }

    /// Slot-counter period `τ = 3·(F + 2 + slack)`.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Required divisor of the inner modulus, `τ·(2m)^k`.
    pub fn c_req(&self) -> u64 {
        self.c_req
    }

    /// Additive stabilisation-time overhead of this level,
    /// `3(F+2+s)(2m)^k = c_req` (Theorem 1).
    pub fn time_overhead(&self) -> u64 {
        self.c_req
    }

    /// Additive state overhead of this level, `⌈log₂(C+1)⌉ + 1` bits.
    pub fn state_overhead_bits(&self) -> u32 {
        sc_protocol::bits_for(self.c_out + 1) + 1
    }

    /// The phase-king parameters controlling slots and thresholds.
    pub fn pk(&self) -> &PhaseKingParams {
        &self.pk
    }

    /// The modulus `c_i = τ·(2m)^{i+1}` by which block `i` interprets its
    /// counter (§3.2).
    ///
    /// # Panics
    ///
    /// Panics if `block ≥ k`.
    pub fn block_modulus(&self, block: usize) -> u64 {
        2 * self.m as u64 * self.dwell[block]
    }

    /// Decomposes a raw inner counter value of a node in `block` into the
    /// paper's `(r, y, b)` triple: the slot counter `r ∈ [τ]`, the overflow
    /// counter `y`, and the leader pointer `b = ⌊y/(2m)^i⌋ mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `block ≥ k`.
    pub fn pointer(&self, block: usize, counter_value: u64) -> Pointer {
        // τ | c_i and c_i = 2m · τ(2m)^i with m | 2m, so r and b need no
        // reduction modulo c_i first: one division for r, two for b.
        let r = counter_value % self.tau;
        let y = counter_value % self.block_modulus(block) / self.tau;
        let b = (counter_value / self.dwell[block] % self.m as u64) as usize;
        Pointer { r, y, b }
    }

    /// Splits a flat node id into `(block, index within block)`.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the boosted network.
    pub fn block_of(&self, node: NodeId) -> (usize, usize) {
        assert!(
            node.index() < self.n_total,
            "node {node} outside N = {}",
            self.n_total
        );
        (node.index() / self.n_inner, node.index() % self.n_inner)
    }

    /// Flat node id of member `j` of `block`.
    pub fn member(&self, block: usize, j: usize) -> NodeId {
        debug_assert!(block < self.k && j < self.n_inner);
        NodeId::new(block * self.n_inner + j)
    }
}

/// The `(r, y, b)` interpretation of a block counter value (§3.2):
/// `r` counts rounds modulo `τ`, `y` counts `r`-overflows, and `b` is the
/// block that this block currently *supports as leader*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Pointer {
    /// Slot counter `r ∈ [τ]`, incremented every round after stabilisation.
    pub r: u64,
    /// Overflow counter `y ∈ [(2m)^{i+1}]`.
    pub y: u64,
    /// Supported leader block `b ∈ [m]`.
    pub b: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corollary1_f1() -> BoostParams {
        BoostParams::new(1, 0, 4, 1, 8, 0).unwrap()
    }

    #[test]
    fn derived_quantities_match_the_paper() {
        let p = corollary1_f1();
        assert_eq!(p.m(), 2);
        assert_eq!(p.n_total(), 4);
        assert_eq!(p.tau(), 9);
        assert_eq!(p.c_req(), 9 * 256);
        assert_eq!(p.state_overhead_bits(), sc_protocol::bits_for(9) + 1);
        assert_eq!(p.pk().keep_threshold(), 3);
        assert_eq!(p.pk().adopt_threshold(), 1);
    }

    #[test]
    fn king_slack_extends_tau() {
        let p = BoostParams::new(1, 0, 4, 1, 8, 1).unwrap();
        assert_eq!(p.tau(), 12); // 3(F+2+1)
        assert_eq!(p.c_req(), 12 * 256);
    }

    #[test]
    fn block_moduli_divide_each_other() {
        let p = BoostParams::new(4, 1, 3, 3, 960, 0).unwrap();
        assert_eq!(p.tau(), 15);
        for i in 0..p.k() - 1 {
            assert_eq!(p.block_modulus(i + 1) % p.block_modulus(i), 0);
        }
        assert_eq!(p.block_modulus(p.k() - 1), p.c_req());
    }

    #[test]
    fn pointer_decomposition_is_consistent() {
        let p = BoostParams::new(4, 1, 3, 3, 960, 0).unwrap();
        for val in [0u64, 1, 14, 15, 959, 960, 12345, u64::MAX - 7] {
            for block in 0..p.k() {
                let ptr = p.pointer(block, val);
                assert!(ptr.r < p.tau());
                assert!(ptr.b < p.m());
                let v = val % p.block_modulus(block);
                assert_eq!(ptr.r + p.tau() * ptr.y, v);
                // b is the paper's ⌊y/(2m)^i⌋ mod m, read off y.
                let radix = (2 * p.m() as u64).pow(block as u32);
                assert_eq!(ptr.b as u64, ptr.y / radix % p.m() as u64);
            }
        }
    }

    #[test]
    fn pointer_dwell_time_matches_lemma_1() {
        // After stabilisation b changes only every c_{i-1} = τ(2m)^i rounds.
        let p = BoostParams::new(1, 0, 4, 1, 8, 0).unwrap();
        let dwell = |i: usize| p.tau() * (2 * p.m() as u64).pow(i as u32);
        for block in 0..p.k() {
            let mut changes = Vec::new();
            let mut last = p.pointer(block, 0).b;
            for v in 1..p.c_req() {
                let b = p.pointer(block, v).b;
                if b != last {
                    changes.push(v);
                    last = b;
                }
            }
            for w in changes.windows(2) {
                assert_eq!(w[1] - w[0], dwell(block), "block {block}");
            }
            // b cycles through [m] exactly twice per block period: within
            // one period there are 2m dwell segments.
            let period = p.block_modulus(block);
            let segments = changes.iter().filter(|&&v| v < period).count() + 1;
            assert_eq!(segments as u64, 2 * p.m() as u64);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(BoostParams::new(1, 0, 2, 1, 8, 0).is_err()); // k < 3
        assert!(BoostParams::new(0, 0, 4, 1, 8, 0).is_err()); // empty blocks
        assert!(BoostParams::new(3, 1, 4, 1, 8, 0).is_err()); // f ≥ n/3
        assert!(BoostParams::new(1, 0, 4, 2, 8, 0).is_err()); // F ≥ (f+1)m
        assert!(BoostParams::new(1, 0, 4, 1, 1, 0).is_err()); // C ≤ 1
                                                              // N > 3F can fail even when F < (f+1)m: k = 7, F = 3, N = 7.
        assert!(BoostParams::new(1, 0, 7, 3, 8, 0).is_err());
        // Overflow of (2m)^k.
        assert!(BoostParams::new(1, 0, 40, 10, 8, 0).is_err());
    }

    #[test]
    fn member_and_block_of_are_inverse() {
        let p = BoostParams::new(4, 1, 3, 3, 960, 0).unwrap();
        for v in 0..p.n_total() {
            let (b, j) = p.block_of(NodeId::new(v));
            assert_eq!(p.member(b, j), NodeId::new(v));
        }
    }
}
