//! Exhaustive verification and synthesis of small synchronous counters.
//!
//! §1 of *Towards Optimal Synchronous Counting* observes that for small
//! parameters "the synchronous counting problem is amenable to algorithm
//! synthesis": the companion works [4, 5] used computers to design
//! space-optimal algorithms such as a 3-state counter for `n ≥ 4, f = 1`.
//! This crate rebuilds that pipeline:
//!
//! * [`verify`] — an exact model checker for [`LutCounter`](sc_core::LutCounter)s: for **every**
//!   fault set `F` (`|F| ≤ f`) it explores the full configuration space
//!   under **all** Byzantine behaviours (per-receiver equivocation included)
//!   and decides whether every execution stabilises, returning the exact
//!   worst-case stabilisation time. The published tables of [4, 5] are not
//!   reproduced in the paper, so exact re-verification of *their*
//!   algorithms is out of scope — but any candidate table can be checked
//!   here.
//! * [`analyze`] — the same exploration without witness extraction,
//!   aggregated into an [`AnalysisSummary`]; this is the scoring function
//!   of the synthesiser and the workload of the `throughput` bench's
//!   verifier table.
//! * [`synthesize`] — a budgeted stochastic local search over transition
//!   tables, scored by the verifier's attractor coverage. It easily finds
//!   correct fault-free counters and serves as the experiment harness for
//!   E7; SAT-grade synthesis for `n = 4, f = 1` (which took considerable
//!   computation in \[5\]) is outside a unit-test budget.
//! * [`mod@reference`] — the retained first-generation checker (successor
//!   lists, full sweeps, seed limits), the one bitwise-equivalence oracle
//!   of the cross-check tests and the bench baseline.
//!
//! # How verification works
//!
//! Fix a fault set `F`. A *configuration* assigns a state to every correct
//! node (the paper's `π_F` projection). The checker solves a safety game on
//! a compact bitset representation, with one solver core generic over the
//! index a bit stands for: a configuration, or an orbit of configurations
//! (below). Over configurations:
//!
//! * **Successor masks.** For each correct node `i` the set of possible
//!   next states `S_i(e)` is one 64-bit mask (bit `σ` ⇔ some Byzantine
//!   assignment to the `F`-coordinates drives `i` to `σ`); the successors
//!   of `e` are the product `∏ S_i(e)` (per-receiver independence —
//!   Byzantine nodes may send different states to different receivers).
//!   The product is **never materialised**: where a successor walk is
//!   needed at all, a mixed-radix odometer over set bits enumerates it
//!   lazily, in ascending order, with early exit. The masks are filled by
//!   an **incremental** Byzantine loop: the LUT row index is shared by all
//!   receivers and maintained under a mixed-radix combo increment —
//!   amortised O(1) faulty positions touched per combination, no received
//!   vector ever built.
//! * **Safe set** (greatest fixed point): the largest set of
//!   configurations from which counting is guaranteed forever. Seeded by
//!   the factored per-node check "every successor outputs
//!   `out(e) + 1 mod c`" (`S_i(e) ⊆ h_i⁻¹(expect)`, a two-word mask test),
//!   then refined by a **worklist**: a removal scans the removed
//!   configuration's predecessors — the word-wise intersection of
//!   per-`(node, state)` predecessor bitsets — and each escaping
//!   predecessor is removed exactly once. No full sweeps.
//! * **Attractor layering**: `A_0` = safe set; a configuration is decided
//!   at time `t + 1` the moment its **counter** of undecided successors
//!   (`∏ |S_i(e)|`) drops to zero, its last successor having been decided
//!   at `t`. Each configuration is re-examined only when one of its
//!   successors changes. If the layers cover the whole space, the
//!   algorithm is a self-stabilising counter with worst-case stabilisation
//!   time = the deepest layer; otherwise the uncovered configurations
//!   witness an adversary strategy that prevents stabilisation forever,
//!   and a lasso-shaped [`Witness`] execution is extracted from the masks.
//!
//! The representation decides `2^20` configurations × `2^14` Byzantine
//! combinations per fault set (the first-generation checker stopped at
//! `2^14` / `2^10`), and independent fault sets fan out across threads
//! on the persistent `sc-exec` pool.
//!
//! # The orbit quotient and the synthesis campaign
//!
//! For **exchangeable** tables — identical per-node tables, invariant
//! under permuting received positions — the whole game factors through
//! multisets of honest states, and [`Analyzer`] (in the default
//! [`SolverMode::Auto`]) runs the same core over `C(|X|+h−1, h)` *orbits*
//! instead of `|X|^h` configurations: one receiver-independent successor
//! mask per orbit, predecessor bitsets per state, and each orbit weighted
//! by its multinomial cardinality in the statistics. Summaries, verdicts
//! and witnesses are bitwise identical to the configuration indexing's
//! ([`SolverMode::Full`]; the `tests/quotient_cross.rs` equivalence
//! gate), and every configuration's attractor time equals the reference
//! checker's under both indexings (a unit test of the core). Fault
//! sets of equal size play isomorphic games on such tables, so
//! [`Analyzer::dedup_fault_sets`] solves one representative per size with
//! multiplicity `C(n, k)`. On top, [`sweep_family`] drives a declared
//! [`SymmetricFamily`] of exchangeable candidates through a reject-only
//! [`CandidateFilter`] (the library implementation is `sc_attack`'s
//! budgeted scripted-attack search) before the exhaustive pass, with an
//! auditable [`SweepLedger`] and a codec-serialised [`SweepCheckpoint`]
//! for mid-sweep resume. Together these push exhaustive synthesis sweeps
//! to `n = 5`.
//!
//! # Example
//!
//! ```
//! use sc_core::{LutCounter, LutSpec};
//! use sc_verifier::{verify, Verdict};
//!
//! // The trivial 2-counter as a table: one node, two states.
//! let lut = LutCounter::new(LutSpec {
//!     n: 1,
//!     f: 0,
//!     c: 2,
//!     states: 2,
//!     transition: vec![vec![1, 0]],
//!     output: vec![vec![0, 1]],
//!     stabilization_bound: 0,
//! })?;
//! assert_eq!(verify(&lut)?, Verdict::Stabilizes { worst_case_time: 0 });
//! # Ok::<(), sc_protocol::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod game;
mod progress;
pub mod reference;
mod synthesis;

pub use checker::{analyze, verify, AnalysisSummary, Analyzer, SolverMode, Verdict, Witness};
pub use progress::{sweep_family_observed, SweepObs};
pub use synthesis::{
    sweep_family, sweep_family_on, synthesize, CandidateFilter, NoFilter, SweepCheckpoint,
    SweepLedger, SweepOutcome, SymmetricFamily, SynthesisOutcome, SynthesisReport,
};
