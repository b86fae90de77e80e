//! Shared model types for self-stabilising Byzantine synchronous protocols.
//!
//! This crate defines the computational model of
//! *Towards Optimal Synchronous Counting* (Lenzen, Rybicki, Suomela;
//! PODC 2015), §2:
//!
//! * a fully connected network of `n` nodes with identifiers `0..n`,
//! * synchronous rounds in which every node broadcasts its state, receives a
//!   vector of states, and updates its own state,
//! * up to `f` Byzantine nodes that may send *different* states to different
//!   receivers,
//! * **arbitrary initial states** (self-stabilisation).
//!
//! The two central abstractions are:
//!
//! * [`SyncProtocol`] — a pure, round-free state machine
//!   `(X, g, h)`: state set `X`, transition `g`, output `h`. Protocols never
//!   see a round number; the simulator owns time.
//! * [`MessageView`] — the state vector received by one node in one round,
//!   with per-receiver Byzantine overrides layered over the honest broadcast
//!   (the `π_F` projection of the paper, seen from the receiving side).
//!
//! On top of these, [`Counter`] captures *synchronous `c`-counters*: the
//! output must eventually count rounds modulo `c` in agreement at all correct
//! nodes. Counters additionally expose their proven stabilisation-time bound
//! and a bit-exact state codec, so the paper's space accounting
//! (`S(A) = ⌈log |X|⌉`) is machine-checked rather than merely documented.
//!
//! # Example
//!
//! ```
//! use sc_protocol::{majority, NodeId, Tally};
//!
//! // The paper's majority vote: a value wins only with > half the votes;
//! // otherwise the result is unconstrained (we surface `None`).
//! assert_eq!(majority([1u64, 1, 2]), Some(1));
//! assert_eq!(majority([1u64, 2, 3]), None);
//!
//! // Tallies drive the phase-king thresholds (N-F and F+1).
//! let mut t = Tally::new();
//! for v in [3u64, 3, 7] {
//!     t.add(v);
//! }
//! assert_eq!(t.count(3), 2);
//! assert_eq!(t.min_value_with_count_over(1), Some(3));
//! assert_eq!(NodeId::new(5).index(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod error;
mod ids;
mod math;
mod plane;
mod traits;
mod view;
mod vote;

pub use bits::{BitReader, BitVec, CodecError, IterOnes};
pub use error::ParamError;
pub use ids::{BlockId, NodeId};
pub use math::{bits_for, checked_pow_u64, inc_mod, Interval};
pub use plane::{ExecSpaces, FaceRef, Op, PlaneBuf, Program, RoundFaces, SlicedLayout, Space};
pub use traits::{Counter, Fingerprint, PreparedProtocol, StepContext, SyncProtocol};
pub use view::{Broadcast, MessageSource, MessageView};
pub use vote::{majority, majority_or, DeltaTally, Patched, Rescan, Tally, VoteCounts};
