//! Self-stabilising Byzantine synchronous counters — the core contribution
//! of *Towards Optimal Synchronous Counting* (Lenzen, Rybicki, Suomela;
//! PODC 2015).
//!
//! A synchronous `c`-counter on `n` nodes with resilience `f` guarantees
//! that from **any** initial configuration, and despite `f` Byzantine nodes,
//! all correct nodes eventually output a common value that increments modulo
//! `c` every round. This crate implements:
//!
//! * [`Algorithm::trivial`] — the 0-resilient one-node counter, the base of
//!   all recursions (§4.1).
//! * [`Algorithm::lut`] — table-driven small counters, the form in which
//!   computer-designed algorithms ([4, 5] of the paper) are expressed; the
//!   `sc-verifier` crate checks and synthesises these.
//! * [`BoostedCounter`] — **Theorem 1**, the resilience-boosting
//!   construction: `k` blocks of an `(n, f)` counter yield an
//!   `(N = kn, F < (f+1)⌈k/2⌉)` counter for any counter size `C > 1`, with
//!   `T(B) ≤ T(A) + 3(F+2)(2m)^k` and `S(B) = S(A) + ⌈log(C+1)⌉ + 1`.
//! * [`CounterBuilder`] — the recursive schedules: Corollary 1 (optimal
//!   resilience `f < n/3`), Theorem 2 (fixed number of blocks), Theorem 3
//!   (varying number of blocks, resilience `n^{1−o(1)}`, time `O(f)`, space
//!   `O(log² f / log log f)`).
//! * [`adversaries`] — counter-structure-aware Byzantine strategies (king
//!   impersonation, leader-pointer splitting) used to stress the
//!   construction where it is most sensitive.
//!
//! # Example
//!
//! Build the paper's Figure 2 stack — `A(4,1) → A(12,3) → A(36,7)` — and
//! inspect its guarantees:
//!
//! ```
//! use sc_consensus::PkRegisters;
//! use sc_core::CounterBuilder;
//! use sc_protocol::{Counter, SyncProtocol};
//!
//! let a36 = CounterBuilder::corollary1(1, 2)? // A(4,1): 4 single-node blocks
//!     .boost(3)? // k = 3 blocks of A(4,1)  ->  A(12,3)
//!     .boost(3)? // k = 3 blocks of A(12,3) ->  A(36,7)
//!     .build()?;
//! assert_eq!(a36.n(), 36);
//! assert_eq!(a36.resilience(), 7);
//! assert_eq!(a36.modulus(), 2);
//! // Linear-in-f stabilisation bound and logarithmic state (Theorems 2-3).
//! println!("T = {}, S = {} bits", a36.stabilization_bound(), a36.state_bits());
//! // A state is those S bits as one packed word ([`CounterState`]); the
//! // counter that knows the layout packs it and reads it.
//! let top = a36.boosting_layer().expect("a boosting layer");
//! let state = top.with(top.inner_of(Default::default()), PkRegisters::new(1, true));
//! assert_eq!((state.word(), a36.output(0.into(), &state)), (0b11, 1));
//! assert_eq!(top.regs_of(state), PkRegisters::new(1, true));
//! # Ok::<(), sc_protocol::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
mod algorithm;
mod boosted;
mod dag;
mod lower;
mod lut;
mod params;
mod prepared;
mod recursion;
mod trivial;

pub use algorithm::{Algorithm, CounterState};
pub use boosted::{BoostedCounter, VoteObservation};
pub use dag::{Builder, NodeRef};
pub use lower::SlicedAlgorithm;
pub use lut::{LutCounter, LutSpec};
pub use params::{BoostParams, Pointer};
pub use prepared::{BoostedPrep, RoundPrep};
pub use recursion::{CounterBuilder, LevelPlan};
pub use trivial::TrivialCounter;
