//! Stochastic local search over transition tables, and the exhaustive
//! sweep pipeline: symmetric candidate families, an attack-backed
//! pre-filter seam, and resumable checkpoints.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_core::{LutCounter, LutSpec};
use sc_protocol::{BitReader, BitVec, CodecError, ParamError};

use crate::checker::Analyzer;

/// Result of a [`synthesize`] run.
#[derive(Clone, Debug)]
pub struct SynthesisReport {
    /// What the search produced.
    pub outcome: SynthesisOutcome,
    /// Verifier evaluations spent.
    pub evaluations: u64,
}

/// Outcome of the search.
#[derive(Clone, Debug)]
pub enum SynthesisOutcome {
    /// A verified self-stabilising counter, with its exact worst-case
    /// stabilisation time.
    Found {
        /// The synthesised, verified algorithm.
        counter: LutCounter,
        /// Exact worst-case stabilisation time established by the verifier.
        worst_case_time: u64,
    },
    /// Budget exhausted; reports how close the best candidate came.
    Exhausted {
        /// Best attractor coverage reached (1.0 = correct).
        best_coverage: f64,
    },
}

/// Searches for a self-stabilising `c`-counter with `n` nodes, resilience
/// `f` and `states` states per node, by hill-climbing on the verifier's
/// attractor coverage with random restarts.
///
/// Output tables are fixed to `h(v, s) = s mod c`, as in the space-optimal
/// algorithms of [4, 5] (the state *is* the output, plus auxiliary states);
/// the search space is the transition tables.
///
/// The hill-climb holds **one** live [`LutCounter`] and never clones a
/// candidate: a proposal patches 1–3 entries in place
/// ([`LutCounter::set_transition`]), rejection un-patches them in reverse,
/// and restarts refill the same tables entry by entry. The only per-run
/// table clone left is wrapping the winning spec with its proven bound.
/// The search trajectory (RNG draw order, acceptance rule) is unchanged
/// from the cloning implementation.
///
/// `budget` bounds the number of verifier evaluations. Fault-free instances
/// (`f = 0`) synthesise in well under 1000 evaluations; `n = 4, f = 1`
/// matches the SAT-scale search of \[5\] and is expected to exhaust small
/// budgets (experiment E7 reports the coverage reached).
///
/// # Errors
///
/// Returns [`ParamError`] if the instance is malformed or too large for the
/// exhaustive verifier.
pub fn synthesize(
    n: usize,
    f: usize,
    c: u64,
    states: u8,
    seed: u64,
    budget: u64,
) -> Result<SynthesisReport, ParamError> {
    if u64::from(states) < c {
        return Err(ParamError::constraint(format!(
            "need at least c = {c} states to output all values, got {states}"
        )));
    }
    let rows = (states as usize)
        .checked_pow(n as u32)
        .ok_or_else(|| ParamError::overflow("|X|^n"))?;
    let output: Vec<Vec<u64>> = vec![(0..states).map(|s| u64::from(s) % c).collect(); n];
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut evaluations = 0u64;
    let mut best_coverage = 0.0f64;

    let random_tables = |rng: &mut SmallRng| -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| (0..rows).map(|_| rng.random_range(0..states)).collect())
            .collect()
    };

    // The one live candidate, validated once and mutated in place below.
    let mut current = LutCounter::new(LutSpec {
        n,
        f,
        c,
        states,
        transition: random_tables(&mut rng),
        output,
        stabilization_bound: 0,
    })?;
    let mut current_score = f64::MIN;
    let mut stagnation = 0u32;
    // Patch journal of the pending proposal: (node, row, previous entry).
    let mut undo: Vec<(usize, usize, u8)> = Vec::with_capacity(3);
    // One game solver for the whole search: every evaluation reuses its
    // buffers, so scoring a candidate allocates nothing.
    let mut analyzer = Analyzer::new();

    while evaluations < budget {
        // Propose: mutate 1–3 random entries (or restart on stagnation).
        undo.clear();
        if stagnation > 200 {
            stagnation = 0;
            current_score = f64::MIN;
            // Restart: refill the tables in place, same draw order as a
            // fresh `random_tables` (a restart is always accepted — the
            // score was just reset — so no undo journal is kept).
            for v in 0..n {
                for row in 0..rows {
                    current.set_transition(v, row, rng.random_range(0..states));
                }
            }
        } else {
            for _ in 0..rng.random_range(1..=3usize) {
                let v = rng.random_range(0..n);
                let row = rng.random_range(0..rows);
                let previous = current.set_transition(v, row, rng.random_range(0..states));
                undo.push((v, row, previous));
            }
        }
        let summary = analyzer.analyze(&current)?;
        let coverage = summary.coverage;
        evaluations += 1;
        best_coverage = best_coverage.max(coverage);
        if summary.failure.is_none() {
            // Re-wrap with the proven bound recorded in the spec — the one
            // table clone of the whole search.
            let worst_case_time = summary.worst_time;
            let mut spec = current.spec().clone();
            spec.stabilization_bound = worst_case_time;
            let counter = LutCounter::new(spec)?;
            return Ok(SynthesisReport {
                outcome: SynthesisOutcome::Found {
                    counter,
                    worst_case_time,
                },
                evaluations,
            });
        }
        if coverage >= current_score {
            if coverage == current_score {
                stagnation += 1;
            } else {
                stagnation = 0;
            }
            current_score = coverage;
        } else {
            stagnation += 1;
            // Reject: un-patch in reverse order (entries may repeat).
            for &(v, row, previous) in undo.iter().rev() {
                current.set_transition(v, row, previous);
            }
        }
    }

    Ok(SynthesisReport {
        outcome: SynthesisOutcome::Exhausted { best_coverage },
        evaluations,
    })
}

/// A cheap screen run in front of the exhaustive verifier during a sweep.
///
/// # Soundness contract: reject-only
///
/// `reject(lut) == true` must imply the candidate is **not** a correct
/// self-stabilising counter — a filter may only *reject*, never accept: a
/// `false` return says nothing (the exhaustive verifier still decides every
/// survivor), so a sweep with any filter finds exactly the correct
/// candidates a sweep with [`NoFilter`] finds, at lower cost. The
/// [`SweepLedger`] keeps the split auditable, and `tests/quotient_cross.rs`
/// cross-checks every filtered candidate against the exhaustive verdict.
///
/// The library implementation is `sc_attack`'s `AttackPreFilter`, which
/// runs a budgeted scripted-attack search per candidate — on the scalar
/// early-decision engine, stopping at the first breaking script — and
/// rejects when a found script provably prevents stabilisation for a
/// horizon no correct candidate of that shape can need.
pub trait CandidateFilter {
    /// Whether a cheap attack already breaks `lut`. `true` must be sound
    /// (see the trait docs); `false` means "exhaustively verify me".
    fn reject(&mut self, lut: &LutCounter) -> bool;

    /// A fresh filter for one worker thread of a parallel sweep, or `None`
    /// when this filter cannot screen candidates concurrently — the sweep
    /// then stays serial, so the default is always sound. A fork must
    /// reject exactly the candidates the parent would (rejection must be a
    /// pure function of the candidate) and starts with zeroed audit
    /// counters; the parent recovers them through
    /// [`CandidateFilter::absorb`].
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Folds a fork's audit counters back into `self` once its worker is
    /// done. Counters are sums, so the totals are independent of which
    /// thread screened which candidate.
    fn absorb(&mut self, fork: Self)
    where
        Self: Sized,
    {
        let _ = fork;
    }
}

/// The identity filter: every candidate survives to exhaustive
/// verification. A sweep with `NoFilter` is the audit baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFilter;

impl CandidateFilter for NoFilter {
    fn reject(&mut self, _lut: &LutCounter) -> bool {
        false
    }

    fn fork(&self) -> Option<NoFilter> {
        Some(NoFilter)
    }
}

/// The audit trail of a sweep: how many candidates each pipeline stage
/// consumed. Invariants (checked by the test suites):
/// `screened = filtered + survivors`, `verified = survivors`
/// (the pre-filter may only reject, so every survivor is exhaustively
/// verified), `found ≤ verified`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepLedger {
    /// Candidates instantiated and offered to the pre-filter.
    pub screened: u64,
    /// Candidates the pre-filter rejected (a cheap attack breaks them).
    pub filtered: u64,
    /// Candidates that passed the pre-filter.
    pub survivors: u64,
    /// Survivors decided by the exhaustive verifier.
    pub verified: u64,
    /// Verified correct counters.
    pub found: u64,
}

/// A declared candidate family for exhaustive sweeps: **symmetric**
/// transition tables over `n` nodes. Rows are grouped into classes by the
/// multiset of received states; a candidate assigns one next-state per
/// class, shared by every node — so every candidate is exchangeable by
/// construction and the orbit quotient (`crate::game::Orbits`) applies.
/// Output tables are fixed to `h(v, s) = s mod c`, as in [`synthesize`].
///
/// The family size is `|X|^classes` with `classes = C(|X|+n−1, n)` — e.g.
/// `n = 5, |X| = 2` gives 6 classes and 64 candidates, an exhaustively
/// sweepable space that brute force over raw tables (`2^32` candidates)
/// could never cover.
#[derive(Clone, Debug)]
pub struct SymmetricFamily {
    n: usize,
    f: usize,
    c: u64,
    states: u8,
    /// Row index → class id.
    class_of: Vec<u32>,
    classes: usize,
}

impl SymmetricFamily {
    /// Declares the family for `n` nodes, resilience `f`, modulus `c` and
    /// `states` states, grouping the `|X|^n` rows into multiset classes.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the parameters do not form a valid
    /// counter shape (`c < 2`, `states < c`, `3f ≥ n`, table too large).
    pub fn new(n: usize, f: usize, c: u64, states: u8) -> Result<SymmetricFamily, ParamError> {
        if u64::from(states) < c {
            return Err(ParamError::constraint(format!(
                "need at least c = {c} states to output all values, got {states}"
            )));
        }
        // Validate the shape once via the seed candidate's construction.
        let family = SymmetricFamily {
            n,
            f,
            c,
            states,
            class_of: Vec::new(),
            classes: 0,
        };
        let probe = family.seed()?;
        let rows = probe.spec().transition[0].len();
        let x = states as usize;
        let mut class_of = vec![0u32; rows];
        let mut classes: HashMap<Vec<u8>, u32> = HashMap::new();
        for (r, slot) in class_of.iter_mut().enumerate() {
            let mut digits = Vec::with_capacity(n);
            let mut rest = r;
            for _ in 0..n {
                digits.push((rest % x) as u8);
                rest /= x;
            }
            digits.sort_unstable();
            let next_id = classes.len() as u32;
            *slot = *classes.entry(digits).or_insert(next_id);
        }
        Ok(SymmetricFamily {
            n,
            f,
            c,
            states,
            classes: classes.len(),
            class_of,
        })
    }

    /// Number of row classes (multisets of `n` received states).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of candidates (`|X|^classes`), when it fits in a `u64` —
    /// families past that size are for budgeted sampling, not sweeps.
    pub fn len(&self) -> Option<u64> {
        u64::from(self.states).checked_pow(self.classes as u32)
    }

    /// Whether the family is empty (it never is; for clippy's benefit).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// The candidate with index 0 (every class mapping to state 0) — the
    /// live table [`SymmetricFamily::instantiate`] patches in place.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the shape is invalid (see
    /// [`LutCounter::new`]).
    pub fn seed(&self) -> Result<LutCounter, ParamError> {
        let rows = (self.states as usize)
            .checked_pow(self.n as u32)
            .ok_or_else(|| ParamError::overflow("|X|^n"))?;
        LutCounter::new(LutSpec {
            n: self.n,
            f: self.f,
            c: self.c,
            states: self.states,
            transition: vec![vec![0u8; rows]; self.n],
            output: vec![(0..self.states).map(|s| u64::from(s) % self.c).collect(); self.n],
            stabilization_bound: 0,
        })
    }

    /// Patches `lut` (a table of this family's shape) into candidate
    /// `index`: class `k` maps to the `k`-th base-`|X|` digit of `index`,
    /// identically for every node.
    ///
    /// # Panics
    ///
    /// Panics if `lut` has a different shape than [`SymmetricFamily::seed`]
    /// produces.
    pub fn instantiate(&self, index: u64, lut: &mut LutCounter) {
        let mut digits = vec![0u8; self.classes];
        let mut rest = index;
        let x = u64::from(self.states);
        for d in digits.iter_mut() {
            *d = (rest % x) as u8;
            rest /= x;
        }
        for r in 0..self.class_of.len() {
            let state = digits[self.class_of[r] as usize];
            for v in 0..self.n {
                lut.set_transition(v, r, state);
            }
        }
    }
}

/// Resumable sweep position: everything [`sweep_family`] needs to pick a
/// killed campaign back up mid-sweep — the next candidate index, the
/// ledger, the surviving candidate indices, and the verified finds
/// `(index, worst_case_time)`. Serialised with the repo codec
/// ([`SweepCheckpoint::encode`] / [`SweepCheckpoint::decode`]); resuming
/// from a decoded checkpoint is bitwise-equivalent to never having
/// stopped (`tests/quotient_cross.rs` asserts it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepCheckpoint {
    /// Next candidate index to process.
    pub position: u64,
    /// Pipeline counts so far.
    pub ledger: SweepLedger,
    /// Indices that passed the pre-filter, in sweep order.
    pub survivors: Vec<u64>,
    /// Verified correct candidates: `(index, worst_case_time)`.
    pub found: Vec<(u64, u64)>,
}

/// Codec version tag of [`SweepCheckpoint::encode`]. Version 2 added the
/// corruption trailer: a declared body length after the version tag and
/// an FNV-1a checksum after the body.
const CHECKPOINT_VERSION: u64 = 2;

/// FNV-1a offset basis / prime (64-bit), the repo's checksum of choice.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl SweepCheckpoint {
    /// A fresh sweep, positioned at candidate 0.
    pub fn new() -> SweepCheckpoint {
        SweepCheckpoint::default()
    }

    /// Body length in bits for the given list sizes: position + five
    /// ledger counters (64 each), two 32-bit list lengths, the lists.
    fn body_bits(survivors: u64, found: u64) -> u64 {
        6 * 64 + 32 + survivors * 64 + 32 + found * 128
    }

    /// FNV-1a over every semantic field (word-at-a-time), the checksum
    /// stored in the encode trailer. List lengths are folded in too, so
    /// an element sliding between lists cannot collide.
    fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut fold = |word: u64| {
            hash ^= word;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        fold(self.position);
        fold(self.ledger.screened);
        fold(self.ledger.filtered);
        fold(self.ledger.survivors);
        fold(self.ledger.verified);
        fold(self.ledger.found);
        fold(self.survivors.len() as u64);
        for &index in &self.survivors {
            fold(index);
        }
        fold(self.found.len() as u64);
        for &(index, time) in &self.found {
            fold(index);
            fold(time);
        }
        hash
    }

    /// Appends the checkpoint to `out`: an 8-bit version, a 32-bit body
    /// length, the body (position and the five ledger counters at 64 bits
    /// each, then the survivor and find lists behind 32-bit lengths), and
    /// a 64-bit FNV-1a checksum over the semantic fields. Length and
    /// checksum let [`SweepCheckpoint::decode`] reject truncated or
    /// bit-flipped streams instead of resuming a sweep from garbage.
    pub fn encode(&self, out: &mut BitVec) {
        out.push_bits(CHECKPOINT_VERSION, 8);
        out.push_bits(
            Self::body_bits(self.survivors.len() as u64, self.found.len() as u64),
            32,
        );
        out.push_bits(self.position, 64);
        out.push_bits(self.ledger.screened, 64);
        out.push_bits(self.ledger.filtered, 64);
        out.push_bits(self.ledger.survivors, 64);
        out.push_bits(self.ledger.verified, 64);
        out.push_bits(self.ledger.found, 64);
        out.push_bits(self.survivors.len() as u64, 32);
        for &index in &self.survivors {
            out.push_bits(index, 64);
        }
        out.push_bits(self.found.len() as u64, 32);
        for &(index, time) in &self.found {
            out.push_bits(index, 64);
            out.push_bits(time, 64);
        }
        out.push_bits(self.digest(), 64);
    }

    /// Decodes a checkpoint written by [`SweepCheckpoint::encode`],
    /// verifying the declared body length and the checksum trailer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the bit string is truncated, the
    /// version tag is unknown, the declared length disagrees with the
    /// decoded list sizes (`"sweep checkpoint length"`), or the checksum
    /// does not match the decoded fields (`"sweep checkpoint checksum"`).
    pub fn decode(input: &mut BitReader<'_>) -> Result<SweepCheckpoint, CodecError> {
        let version = input.read_bits(8)?;
        if version != CHECKPOINT_VERSION {
            return Err(CodecError::InvalidField {
                field: "sweep checkpoint version",
                value: version,
            });
        }
        let declared = input.read_bits(32)?;
        let position = input.read_bits(64)?;
        let ledger = SweepLedger {
            screened: input.read_bits(64)?,
            filtered: input.read_bits(64)?,
            survivors: input.read_bits(64)?,
            verified: input.read_bits(64)?,
            found: input.read_bits(64)?,
        };
        let survivor_count = input.read_bits(32)?;
        // Check the declared length *before* trusting a (possibly
        // corrupted) count to size an allocation or a read loop.
        if declared < Self::body_bits(survivor_count, 0) {
            return Err(CodecError::InvalidField {
                field: "sweep checkpoint length",
                value: declared,
            });
        }
        let mut survivors = Vec::with_capacity(survivor_count as usize);
        for _ in 0..survivor_count {
            survivors.push(input.read_bits(64)?);
        }
        let found_count = input.read_bits(32)?;
        if declared != Self::body_bits(survivor_count, found_count) {
            return Err(CodecError::InvalidField {
                field: "sweep checkpoint length",
                value: declared,
            });
        }
        let mut found = Vec::with_capacity(found_count as usize);
        for _ in 0..found_count {
            found.push((input.read_bits(64)?, input.read_bits(64)?));
        }
        let checksum = input.read_bits(64)?;
        let checkpoint = SweepCheckpoint {
            position,
            ledger,
            survivors,
            found,
        };
        if checksum != checkpoint.digest() {
            return Err(CodecError::InvalidField {
                field: "sweep checkpoint checksum",
                value: checksum,
            });
        }
        Ok(checkpoint)
    }
}

/// What one [`sweep_family`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Whether the whole family has now been processed.
    pub complete: bool,
    /// Candidates processed by this call.
    pub processed: u64,
}

/// Sweeps (part of) a candidate family through the pre-filter + exhaustive
/// verification pipeline, advancing `checkpoint` in place: each candidate
/// is instantiated, offered to `filter`, and — unless rejected —
/// exhaustively decided by `analyzer` (survivors of a sound filter are
/// *never* trusted: correctness is only ever established by the verifier).
/// At most `budget` candidates are processed per call, so a campaign can
/// checkpoint between calls ([`SweepCheckpoint::encode`]) and a killed
/// sweep resumes exactly where it stopped.
///
/// With a filter that implements [`CandidateFilter::fork`], candidate
/// screening (pre-filter plus the quotient solve for survivors) fans out
/// on the persistent [`sc_exec`] pool in bounded chunks; the ledger,
/// survivor list and finds are folded in candidate order, so the
/// checkpoint — including mid-chunk resume points — is bitwise identical
/// to the serial sweep at every thread count. Filters that return `None`
/// from `fork`, and a thread cap of 1, keep the serial path.
///
/// # Errors
///
/// Returns [`ParamError`] when the family cannot be enumerated in 64 bits
/// or the verifier rejects the instance shape; the checkpoint is left at
/// the failing candidate, so a retry resumes there.
pub fn sweep_family<F: CandidateFilter + Send + Sync>(
    family: &SymmetricFamily,
    filter: &mut F,
    analyzer: &mut Analyzer,
    checkpoint: &mut SweepCheckpoint,
    budget: u64,
) -> Result<SweepOutcome, ParamError> {
    sweep_family_on(
        sc_exec::pool(),
        sc_exec::threads(),
        family,
        filter,
        analyzer,
        checkpoint,
        budget,
    )
}

/// Candidates per pool submission: bounds the per-chunk result buffer (a
/// huge-budget call folds chunk by chunk) without affecting results — the
/// fold order is candidate order regardless of the chunk size.
const SWEEP_CHUNK: u64 = 1024;

/// What one worker decided about one candidate, before the in-order fold.
enum Screened {
    Rejected,
    Survived(Result<crate::checker::AnalysisSummary, ParamError>),
}

/// [`sweep_family`] against an explicit pool and thread cap — the seam the
/// thread-count-invariance tests drive with forced worker counts. The
/// public entry point passes the process-wide pool and [`sc_exec::threads`].
pub fn sweep_family_on<F: CandidateFilter + Send + Sync>(
    pool: &sc_exec::Pool,
    threads: usize,
    family: &SymmetricFamily,
    filter: &mut F,
    analyzer: &mut Analyzer,
    checkpoint: &mut SweepCheckpoint,
    budget: u64,
) -> Result<SweepOutcome, ParamError> {
    let total = family
        .len()
        .ok_or_else(|| ParamError::overflow("|X|^classes candidates"))?;
    let end = checkpoint.position.saturating_add(budget).min(total);
    if threads <= 1 || end.saturating_sub(checkpoint.position) <= 1 {
        return sweep_serial(family, filter, analyzer, checkpoint, end, total);
    }
    let Some(probe) = filter.fork() else {
        // The filter cannot screen concurrently — stay serial (sound and
        // identical by the fork contract).
        return sweep_serial(family, filter, analyzer, checkpoint, end, total);
    };
    drop(probe);
    family.seed()?; // Validate the shape once, so worker forks cannot fail.
    let mut processed = 0u64;
    while checkpoint.position < end {
        let base = checkpoint.position;
        let chunk = (end - base).min(SWEEP_CHUNK);
        // Each claiming thread checks out a (candidate table, filter fork,
        // analyzer fork) triple once and reuses it across its claims.
        let scratch: sc_exec::WorkerScratch<(LutCounter, F, Analyzer)> =
            sc_exec::WorkerScratch::new();
        let filter_ref: &F = filter;
        let analyzer_ref: &Analyzer = analyzer;
        let outcomes: Vec<Screened> = pool.map(chunk as usize, threads, |i| {
            scratch.with(
                || {
                    (
                        family.seed().expect("family shape validated above"),
                        filter_ref.fork().expect("fork is deterministic"),
                        analyzer_ref.fork(),
                    )
                },
                |(lut, fork, eng)| {
                    family.instantiate(base + i as u64, lut);
                    if fork.reject(lut) {
                        Screened::Rejected
                    } else {
                        Screened::Survived(eng.analyze(lut))
                    }
                },
            )
        });
        // Audit counters first (sums — claim-order independent), so they
        // survive even an error return below.
        for (_, fork, _) in scratch.take_all() {
            filter.absorb(fork);
        }
        // Fold in candidate order: bitwise the serial loop.
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let index = base + i as u64;
            checkpoint.ledger.screened += 1;
            match outcome {
                Screened::Rejected => checkpoint.ledger.filtered += 1,
                Screened::Survived(summary) => {
                    checkpoint.ledger.survivors += 1;
                    checkpoint.survivors.push(index);
                    let summary = summary?;
                    checkpoint.ledger.verified += 1;
                    if summary.failure.is_none() {
                        checkpoint.ledger.found += 1;
                        checkpoint.found.push((index, summary.worst_time));
                    }
                }
            }
            checkpoint.position += 1;
            processed += 1;
        }
    }
    Ok(SweepOutcome {
        complete: checkpoint.position == total,
        processed,
    })
}

/// The serial sweep loop both entry points share: one live candidate table
/// patched in place, the caller's filter and analyzer reused throughout.
fn sweep_serial<F: CandidateFilter>(
    family: &SymmetricFamily,
    filter: &mut F,
    analyzer: &mut Analyzer,
    checkpoint: &mut SweepCheckpoint,
    end: u64,
    total: u64,
) -> Result<SweepOutcome, ParamError> {
    let mut lut = family.seed()?;
    let mut processed = 0u64;
    while checkpoint.position < end {
        let index = checkpoint.position;
        family.instantiate(index, &mut lut);
        checkpoint.ledger.screened += 1;
        if filter.reject(&lut) {
            checkpoint.ledger.filtered += 1;
        } else {
            checkpoint.ledger.survivors += 1;
            checkpoint.survivors.push(index);
            let summary = analyzer.analyze(&lut)?;
            checkpoint.ledger.verified += 1;
            if summary.failure.is_none() {
                checkpoint.ledger.found += 1;
                checkpoint.found.push((index, summary.worst_time));
            }
        }
        checkpoint.position += 1;
        processed += 1;
    }
    Ok(SweepOutcome {
        complete: checkpoint.position == total,
        processed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Verdict};

    #[test]
    fn synthesises_a_fault_free_two_node_counter() {
        let report = synthesize(2, 0, 2, 2, 7, 5000).unwrap();
        match report.outcome {
            SynthesisOutcome::Found {
                counter,
                worst_case_time,
            } => {
                assert_eq!(
                    verify(&counter).unwrap(),
                    Verdict::Stabilizes { worst_case_time }
                );
                assert_eq!(counter.spec().stabilization_bound, worst_case_time);
            }
            SynthesisOutcome::Exhausted { best_coverage } => {
                panic!("search failed on a trivial instance (coverage {best_coverage})");
            }
        }
    }

    #[test]
    fn synthesises_the_one_node_counter() {
        let report = synthesize(1, 0, 2, 2, 3, 500).unwrap();
        assert!(matches!(report.outcome, SynthesisOutcome::Found { .. }));
    }

    #[test]
    fn rejects_too_few_states() {
        assert!(synthesize(2, 0, 4, 2, 0, 10).is_err());
    }

    #[test]
    fn exhausted_budget_reports_coverage() {
        // One evaluation cannot solve 3 nodes; outcome must be graceful.
        let report = synthesize(4, 1, 2, 2, 1, 1).unwrap();
        assert_eq!(report.evaluations, 1);
        if let SynthesisOutcome::Exhausted { best_coverage } = report.outcome {
            assert!((0.0..=1.0).contains(&best_coverage));
        }
    }

    #[test]
    fn symmetric_family_counts_multiset_classes() {
        // n = 5, |X| = 2: multisets of size 5 over 2 values → 6 classes,
        // 2^6 = 64 candidates.
        let family = SymmetricFamily::new(5, 1, 2, 2).unwrap();
        assert_eq!(family.classes(), 6);
        assert_eq!(family.len(), Some(64));
        // n = 4, |X| = 3: C(3+4−1, 4) = 15 classes.
        let family = SymmetricFamily::new(4, 1, 2, 3).unwrap();
        assert_eq!(family.classes(), 15);
        assert_eq!(family.len(), Some(3u64.pow(15)));
    }

    #[test]
    fn instantiated_candidates_are_exchangeable_and_distinct() {
        let family = SymmetricFamily::new(3, 0, 2, 2).unwrap();
        let mut lut = family.seed().unwrap();
        let mut seen = std::collections::HashSet::new();
        for index in 0..family.len().unwrap() {
            family.instantiate(index, &mut lut);
            assert!(crate::game::exchangeable(&lut), "candidate {index}");
            assert!(seen.insert(lut.spec().transition[0].clone()));
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let checkpoint = SweepCheckpoint {
            position: 37,
            ledger: SweepLedger {
                screened: 37,
                filtered: 30,
                survivors: 7,
                verified: 7,
                found: 2,
            },
            survivors: vec![3, 9, 11, 20, 21, 30, 36],
            found: vec![(9, 4), (21, 7)],
        };
        let mut bits = sc_protocol::BitVec::new();
        checkpoint.encode(&mut bits);
        let decoded = SweepCheckpoint::decode(&mut bits.reader()).unwrap();
        assert_eq!(decoded, checkpoint);
        // Unknown version tags are rejected, not misread.
        let mut bad = sc_protocol::BitVec::new();
        bad.push_bits(99, 8);
        assert!(SweepCheckpoint::decode(&mut bad.reader()).is_err());
    }

    /// The fixture shared by the corruption tests: non-trivial lists so
    /// every codec region (counters, lengths, elements, trailer) exists.
    fn corruption_fixture() -> SweepCheckpoint {
        SweepCheckpoint {
            position: 37,
            ledger: SweepLedger {
                screened: 37,
                filtered: 30,
                survivors: 7,
                verified: 7,
                found: 2,
            },
            survivors: vec![3, 9, 11, 20, 21, 30, 36],
            found: vec![(9, 4), (21, 7)],
        }
    }

    #[test]
    fn checkpoint_rejects_every_truncation() {
        let checkpoint = corruption_fixture();
        let mut bits = sc_protocol::BitVec::new();
        checkpoint.encode(&mut bits);
        // The checksum trailer is last, so no strict prefix can decode:
        // every one must fail with a typed error, never return Ok.
        for keep in 0..bits.len() {
            let mut truncated = sc_protocol::BitVec::new();
            for i in 0..keep {
                truncated.push_bit(bits.bit(i));
            }
            assert!(
                SweepCheckpoint::decode(&mut truncated.reader()).is_err(),
                "a {keep}-bit prefix of a {}-bit checkpoint must not decode",
                bits.len()
            );
        }
    }

    #[test]
    fn checkpoint_rejects_every_single_bit_flip() {
        let checkpoint = corruption_fixture();
        let mut bits = sc_protocol::BitVec::new();
        checkpoint.encode(&mut bits);
        for flip in 0..bits.len() {
            let mut mutated = sc_protocol::BitVec::new();
            for i in 0..bits.len() {
                mutated.push_bit(bits.bit(i) ^ (i == flip));
            }
            let result = SweepCheckpoint::decode(&mut mutated.reader());
            assert!(
                result.is_err(),
                "flipping bit {flip} must not decode to a valid checkpoint, got {result:?}"
            );
        }
    }

    #[test]
    fn checkpoint_flip_errors_are_typed_by_region() {
        use sc_protocol::CodecError;
        let checkpoint = corruption_fixture();
        let mut bits = sc_protocol::BitVec::new();
        checkpoint.encode(&mut bits);
        let flipped = |flip: usize| {
            let mut mutated = sc_protocol::BitVec::new();
            for i in 0..bits.len() {
                mutated.push_bit(bits.bit(i) ^ (i == flip));
            }
            SweepCheckpoint::decode(&mut mutated.reader()).unwrap_err()
        };
        // Bit 0 lives in the 8-bit version tag.
        assert!(matches!(
            flipped(0),
            CodecError::InvalidField {
                field: "sweep checkpoint version",
                ..
            }
        ));
        // Bit 8 is the top of the declared body length.
        assert!(matches!(
            flipped(8),
            CodecError::InvalidField {
                field: "sweep checkpoint length",
                ..
            }
        ));
        // Bit 50 sits inside the `position` body word: the stream stays
        // structurally parseable, so only the checksum catches it.
        assert!(matches!(
            flipped(50),
            CodecError::InvalidField {
                field: "sweep checkpoint checksum",
                ..
            }
        ));
        // The final bit is the checksum itself.
        assert!(matches!(
            flipped(bits.len() - 1),
            CodecError::InvalidField {
                field: "sweep checkpoint checksum",
                ..
            }
        ));
    }

    /// The pool-backed sweep must fold to the serial checkpoint bitwise at
    /// every thread count, driven against explicit pools so real
    /// cross-thread claiming runs regardless of host cores.
    #[test]
    fn parallel_sweep_matches_serial_checkpoint_at_forced_caps() {
        let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
        let total = family.len().unwrap();
        let run = |workers: usize, threads: usize, budget: u64| {
            let pool = sc_exec::Pool::new(workers);
            let mut analyzer = Analyzer::new();
            let mut checkpoint = SweepCheckpoint::new();
            loop {
                let outcome = sweep_family_on(
                    &pool,
                    threads,
                    &family,
                    &mut NoFilter,
                    &mut analyzer,
                    &mut checkpoint,
                    budget,
                )
                .unwrap();
                if outcome.complete {
                    return checkpoint;
                }
            }
        };
        let serial = run(0, 1, total);
        assert_eq!(serial.ledger.screened, total);
        for (workers, threads) in [(1, 2), (6, 7)] {
            assert_eq!(run(workers, threads, total), serial, "cap {threads}");
            // Budgeted into uneven chunks, resuming mid-sweep.
            assert_eq!(run(workers, threads, 7), serial, "cap {threads} budgeted");
        }
    }

    #[test]
    fn chunked_sweep_with_checkpoints_matches_one_shot() {
        let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
        let total = family.len().unwrap();
        let mut straight = SweepCheckpoint::new();
        let outcome = sweep_family(
            &family,
            &mut NoFilter,
            &mut Analyzer::new(),
            &mut straight,
            total,
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(straight.ledger.screened, total);
        assert_eq!(straight.ledger.verified, straight.ledger.survivors);
        // Resume through serialised checkpoints in uneven chunks.
        let mut resumed = SweepCheckpoint::new();
        let mut analyzer = Analyzer::new();
        loop {
            let outcome =
                sweep_family(&family, &mut NoFilter, &mut analyzer, &mut resumed, 7).unwrap();
            let mut bits = sc_protocol::BitVec::new();
            resumed.encode(&mut bits);
            resumed = SweepCheckpoint::decode(&mut bits.reader()).unwrap();
            if outcome.complete {
                break;
            }
        }
        assert_eq!(resumed, straight);
    }
}
