//! The recursive constructions (§4): Corollary 1, Theorem 2, Theorem 3.

use sc_protocol::{checked_pow_u64, ParamError};

use crate::algorithm::Algorithm;
use crate::params::BoostParams;
use crate::trivial::TrivialCounter;

/// One boosting level of a planned recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Level {
    k: usize,
    f: usize,
}

/// Builder for recursive counter stacks.
///
/// Starts from the trivial one-node counter and applies Theorem 1 level by
/// level, deriving the modulus chain automatically: level `ℓ` requires its
/// inner counter to count modulo `c_req(ℓ) = 3(F_ℓ+2+s)·(2m_ℓ)^{k_ℓ}`, so
/// the builder sets each level's output modulus to the next level's
/// requirement and the topmost to [`CounterBuilder::with_modulus`]
/// (default 2, i.e. the synchronous 2-counters of Table 1).
///
/// Convenience constructors implement the paper's schedules:
///
/// * [`CounterBuilder::corollary1`] — `k = 3f+1` single-node blocks:
///   optimal resilience `f < n/3`, stabilisation `f^{O(f)}`.
/// * [`CounterBuilder::theorem2`] — a fixed number of blocks per level.
/// * [`CounterBuilder::theorem3`] — the varying-`k` schedule with phases
///   `k_p = 4·2^{P−p}`, `R_p = 2k_p`, giving `f = n^{1−o(1)}`, `O(f)` time
///   and `O(log² f / log log f)` space.
///
/// # Example
///
/// The Figure 2 stack `A(4,1) → A(12,3) → A(36,7)`:
///
/// ```
/// use sc_core::CounterBuilder;
/// use sc_protocol::{Counter, SyncProtocol};
///
/// let builder = CounterBuilder::corollary1(1, 2)?.boost(3)?.boost(3)?;
/// assert_eq!((builder.n(), builder.f()), (36, 7));
/// let a36 = builder.build()?;
/// assert_eq!(a36.n(), 36);
/// assert_eq!(a36.resilience(), 7);
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CounterBuilder {
    levels: Vec<Level>,
    modulus: u64,
    king_slack: u64,
}

/// Summary of one level of a built recursion, from the base (level 0)
/// upwards; produced by [`CounterBuilder::plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPlan {
    /// Level index; 0 is the base counter.
    pub level: usize,
    /// Nodes at this level.
    pub n: usize,
    /// Resilience at this level.
    pub f: usize,
    /// Blocks used by this level's boosting step (0 for the base).
    pub k: usize,
    /// Output modulus `C` of this level.
    pub modulus: u64,
    /// Cumulative proven space `S` in bits.
    pub state_bits: u32,
    /// Cumulative proven stabilisation time `T` in rounds.
    pub time_bound: u64,
}

/// `c_req = 3(f+2+slack)·(2m)^k` for one level, checked.
fn level_c_req(k: usize, f: usize, slack: u64) -> Result<u64, ParamError> {
    let tau = 3 * (f as u64 + 2 + slack);
    let two_m = 2 * k.div_ceil(2) as u64;
    tau.checked_mul(checked_pow_u64(two_m, k as u32, "(2m)^k")?)
        .ok_or_else(|| ParamError::overflow("c_req = τ·(2m)^k"))
}

impl CounterBuilder {
    /// A builder holding just the trivial one-node counter.
    pub fn trivial() -> Self {
        CounterBuilder {
            levels: Vec::new(),
            modulus: 2,
            king_slack: 0,
        }
    }

    /// Corollary 1: an `f`-resilient `c`-counter on `3f+1` nodes, built from
    /// `k = 3f+1` single-node blocks. `f = 0` yields the bare trivial
    /// counter.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters overflow (large `f`: the
    /// stabilisation time is `f^{O(f)}`).
    pub fn corollary1(f: usize, c: u64) -> Result<Self, ParamError> {
        let builder = Self::trivial().with_modulus(c);
        if f == 0 {
            return Ok(builder);
        }
        builder.boost_with_resilience(3 * f + 1, f)
    }

    /// Theorem 2 flavour: the Corollary 1 base `A(4, 1)` boosted `levels`
    /// times with a fixed `k` blocks, maximal resilience at every level.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `k < 3` or a level overflows.
    pub fn theorem2(k: usize, levels: usize, c: u64) -> Result<Self, ParamError> {
        let mut builder = Self::corollary1(1, c)?;
        for _ in 0..levels {
            builder = builder.boost(k)?;
        }
        Ok(builder)
    }

    /// Theorem 3: `phases` phases with `k_p = 4·2^{P−p}` blocks and
    /// `R_p = 2k_p` levels per phase, over the `A(4, 1)` base.
    ///
    /// Note the resulting networks are astronomically large for `P ≥ 2`;
    /// use [`CounterBuilder::plan`] for the analytic bounds and simulate
    /// truncated stacks instead.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if a level's parameters overflow `u64`.
    pub fn theorem3(phases: u32, c: u64) -> Result<Self, ParamError> {
        if phases == 0 {
            return Err(ParamError::constraint("theorem 3 needs at least one phase"));
        }
        let mut builder = Self::corollary1(1, c)?;
        for p in 1..=phases {
            let k_p = 4usize << (phases - p);
            for _ in 0..2 * k_p {
                builder = builder.boost(k_p)?;
            }
        }
        Ok(builder)
    }

    /// Current network size.
    pub fn n(&self) -> usize {
        self.levels.iter().fold(1, |n, lv| n * lv.k)
    }

    /// Current resilience.
    pub fn f(&self) -> usize {
        self.levels.last().map_or(0, |lv| lv.f)
    }

    /// Sets the top-level counter modulus `c` (default 2).
    pub fn with_modulus(mut self, c: u64) -> Self {
        self.modulus = c;
        self
    }

    /// Requests `s` extra king groups per level (`τ = 3(F+2+s)`); the
    /// deterministic construction uses 0, the predictive pulling mode 1.
    pub fn with_king_slack(mut self, s: u64) -> Self {
        self.king_slack = s;
        self
    }

    /// Adds one Theorem 1 level with `k` blocks at the maximum admissible
    /// resilience `F = min{(f+1)⌈k/2⌉ − 1, ⌊(N−1)/3⌋, N − 2 − s}`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `k < 3` or the level overflows.
    pub fn boost(self, k: usize) -> Result<Self, ParamError> {
        if k < 3 {
            return Err(ParamError::constraint(format!(
                "need k ≥ 3 blocks, got {k}"
            )));
        }
        let (n, f) = (self.n(), self.f());
        let n_next = n
            .checked_mul(k)
            .ok_or_else(|| ParamError::overflow("N = k·n"))?;
        let by_blocks = (f + 1) * k.div_ceil(2) - 1;
        let by_n = (n_next - 1) / 3;
        let by_kings = (n_next as u64).saturating_sub(2 + self.king_slack) as usize;
        let f_next = by_blocks.min(by_n).min(by_kings);
        self.boost_with_resilience(k, f_next)
    }

    /// Adds one Theorem 1 level with `k` blocks and explicit resilience
    /// `f_total`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the Theorem 1 preconditions fail for the
    /// current `(n, f)`.
    pub fn boost_with_resilience(mut self, k: usize, f_total: usize) -> Result<Self, ParamError> {
        let (n, f) = (self.n(), self.f());
        // Validate now with a placeholder modulus (the real one is derived
        // at build time and cannot make validation stricter).
        BoostParams::new(n, f, k, f_total, 2, self.king_slack)?;
        level_c_req(k, f_total, self.king_slack)?;
        self.levels.push(Level { k, f: f_total });
        Ok(self)
    }

    /// The modulus of every level, base first: level `ℓ` counts modulo
    /// the `c_req` of level `ℓ + 1`, the topmost modulo the builder's own.
    fn moduli(&self) -> Result<Vec<u64>, ParamError> {
        let mut moduli = self
            .levels
            .iter()
            .map(|lv| level_c_req(lv.k, lv.f, self.king_slack))
            .collect::<Result<Vec<_>, _>>()?;
        moduli.push(self.modulus);
        Ok(moduli)
    }

    /// Builds the counter, deriving the modulus chain bottom-up.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if any level's parameters are inconsistent or
    /// overflow, if the top-level modulus is < 2, or if the state outgrows
    /// the 128-bit word (only [`CounterBuilder::plan`] describes such stacks).
    pub fn build(&self) -> Result<Algorithm, ParamError> {
        let moduli = self.moduli()?;
        let mut algo = Algorithm::trivial(moduli[0])?;
        for (lv, &c_out) in self.levels.iter().zip(&moduli[1..]) {
            algo = Algorithm::boosted(algo, lv.k, lv.f, c_out, self.king_slack)?;
        }
        Ok(algo)
    }

    /// Summarises every level (base first) from the recurrences of
    /// Theorem 1 alone — also for stacks too large to build or run.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if any level's parameters are inconsistent or
    /// overflow, or if the top-level modulus is < 2.
    pub fn plan(&self) -> Result<Vec<LevelPlan>, ParamError> {
        let moduli = self.moduli()?;
        let (mut n, mut f, mut time_bound) = (1, 0, 0);
        let mut state_bits = TrivialCounter::new(moduli[0])?.state_bits();
        let mut plans = Vec::with_capacity(moduli.len());
        for (level, &modulus) in moduli.iter().enumerate() {
            let mut k = 0;
            if let Some(lv) = level.checked_sub(1).map(|below| self.levels[below]) {
                let p = BoostParams::new(n, f, lv.k, lv.f, modulus, self.king_slack)?;
                (n, f, k) = (p.n_total(), lv.f, lv.k);
                state_bits += p.state_overhead_bits();
                time_bound += p.time_overhead();
            }
            plans.push(LevelPlan {
                level,
                n,
                f,
                k,
                modulus,
                state_bits,
                time_bound,
            });
        }
        Ok(plans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_protocol::{Counter as _, SyncProtocol as _};

    #[test]
    fn corollary1_matches_paper_parameters() {
        let a = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
        assert_eq!(a.n(), 4);
        assert_eq!(a.resilience(), 1);
        assert_eq!(a.modulus(), 8);
        // T ≤ 3(F+2)(2m)^k = 9·256 = 2304 on top of the instant base.
        assert_eq!(a.stabilization_bound(), 2304);
        // S = ⌈log 2304⌉ + ⌈log 9⌉ + 1 = 12 + 4 + 1.
        assert_eq!(a.state_bits(), 17);
    }

    #[test]
    fn corollary1_zero_faults_is_trivial() {
        let a = CounterBuilder::corollary1(0, 4).unwrap().build().unwrap();
        assert_eq!(a.n(), 1);
        assert_eq!(a.depth(), 0);
        assert_eq!(a.modulus(), 4);
    }

    #[test]
    fn figure2_stack_dimensions() {
        let b = CounterBuilder::corollary1(1, 2)
            .unwrap()
            .boost(3)
            .unwrap()
            .boost(3)
            .unwrap();
        assert_eq!((b.n(), b.f()), (36, 7));
        let plans = b.plan().unwrap();
        let dims: Vec<(usize, usize)> = plans.iter().map(|p| (p.n, p.f)).collect();
        assert_eq!(dims, vec![(1, 0), (4, 1), (12, 3), (36, 7)]);
        // Modulus chain: each level counts modulo the next level's c_req.
        assert_eq!(plans[0].modulus, 2304); // 9·4^4
        assert_eq!(plans[1].modulus, 960); // 15·4^3 (F=3 ⇒ τ=15)
        assert_eq!(plans[2].modulus, 1728); // 27·4^3 (F=7 ⇒ τ=27)
        assert_eq!(plans[3].modulus, 2);
        // Time bounds telescope.
        assert_eq!(plans[3].time_bound, 2304 + 960 + 1728);
    }

    #[test]
    fn theorem2_grows_resilience_geometrically() {
        let b = CounterBuilder::theorem2(4, 3, 2).unwrap();
        // f: 1 → 3 → 7 → 15 with k = 4 (m = 2, F = 2f+1).
        assert_eq!(b.f(), 15);
        assert_eq!(b.n(), 4 * 64);
        let a = b.build().unwrap();
        assert_eq!(a.depth(), 4);
        // Stabilisation stays linear-ish in f: each level adds 3(F+2)·4^4.
        let plans = b.plan().unwrap();
        for w in plans.windows(2) {
            assert!(w[1].time_bound > w[0].time_bound);
        }
    }

    #[test]
    fn theorem3_schedule_shape() {
        // P = 1: eight levels of k = 4 on top of the base.
        let b = CounterBuilder::theorem3(1, 2).unwrap();
        let plans = b.plan().unwrap();
        assert_eq!(plans.len(), 10); // base + corollary1 + 8 levels
        assert!(plans.iter().skip(2).all(|p| p.k == 4));
        // Space grows additively by Θ(log c_req) per level, far below n.
        let top = plans.last().unwrap();
        assert!(top.n >= 262_144);
        assert!(
            top.state_bits < 200,
            "space stays polylogarithmic: {}",
            top.state_bits
        );
    }

    #[test]
    fn theorem3_phase2_overflows_gracefully_or_builds() {
        // P = 2 must either build or fail with a typed overflow — no panic.
        match CounterBuilder::theorem3(2, 2) {
            Ok(b) => {
                let _ = b.plan();
            }
            Err(ParamError::Overflow { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn king_slack_flows_into_the_plan() {
        let plain = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
        let slack = CounterBuilder::trivial()
            .with_modulus(8)
            .with_king_slack(1)
            .boost_with_resilience(4, 1)
            .unwrap()
            .build()
            .unwrap();
        // τ grows 9 → 12, so the time bound grows 2304 → 3072.
        assert_eq!(plain.stabilization_bound(), 2304);
        assert_eq!(slack.stabilization_bound(), 3072);
    }

    #[test]
    fn boost_rejects_small_k() {
        assert!(CounterBuilder::trivial().boost(2).is_err());
    }

    #[test]
    fn build_with_degenerate_modulus_fails() {
        let b = CounterBuilder::corollary1(1, 1).unwrap();
        assert!(b.build().is_err());
    }
}
