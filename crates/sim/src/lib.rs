//! Synchronous full-information round simulator with Byzantine faults.
//!
//! This crate is the executable counterpart of the execution model in §2 of
//! *Towards Optimal Synchronous Counting*: an infinite sequence of
//! configurations where each round every correct node broadcasts its state,
//! receives a state vector, and applies its transition function, while up to
//! `f` Byzantine nodes send **arbitrary, receiver-specific** states chosen by
//! an omniscient, adaptive, rushing adversary.
//!
//! The pieces:
//!
//! * [`Simulation`] — drives any [`sc_protocol::SyncProtocol`] from an
//!   arbitrary (adversarially sampled) initial configuration, on a
//!   zero-copy double-buffered round engine ([`RoundWorkspace`],
//!   [`FaultMask`]).
//! * [`Batch`] — sweeps of many `(seed, adversary, initial-configuration)`
//!   [`Scenario`]s through one protocol, with streaming stabilisation
//!   detection ([`OnlineDetector`]) and optional thread fan-out.
//! * [`ExitReason`] — why a run stopped. [`Batch::run`],
//!   [`Batch::run_prepared`] and [`Simulation::run_until_stable_early`]
//!   share one run loop that stops at the first sound exit — Lemma 5's
//!   closure ([`Counter::closed`](sc_protocol::Counter::closed)) or a
//!   bit-exact recurrence of the joint (states, adversary) configuration —
//!   with verdicts bitwise equal to the full-horizon oracle
//!   [`Simulation::run_until_stable`].
//! * [`Adversary`] — the interface Byzantine strategies implement, built on
//!   the **borrow-based message plane**: strategies return [`MessageSource`]
//!   leases (echo a broadcast state, or name a slot of the engine's
//!   [`StatePool`]) instead of owned states, so equivocation and replay
//!   attacks deliver without per-receiver clones; the [`adversaries`] module
//!   ships a library of generic strategies (crash, fresh-random, two-faced
//!   equivocation, replay).
//! * [`SlicedStrategy`] / [`FacedAdversary`] — oblivious strategies as face
//!   schedules, written once and run on both the bit-sliced
//!   [`SlicedBatch`] and, a schedule's first lane, the scalar engine.
//! * [`StabilizationReport`] / [`OutputTrace`] — exact detection of the
//!   stabilisation time of a counter execution: the earliest round after
//!   which all correct outputs agree *and* increment modulo `c` every round.
//! * [`broadcast_metrics`] — message/bit accounting in the broadcast model
//!   (each node sends its `S(A)`-bit state over all `n−1` links per round).
//!
//! # Example
//!
//! ```
//! use rand::RngCore;
//! use sc_protocol::{Counter, MessageView, NodeId, StepContext, SyncProtocol};
//! use sc_sim::{adversaries, Simulation};
//!
//! // A toy 0-resilient 4-counter: follow the minimum received value + 1.
//! struct FollowMin;
//! impl SyncProtocol for FollowMin {
//!     type State = u64;
//!     fn n(&self) -> usize { 3 }
//!     fn step(&self, _: NodeId, view: &MessageView<'_, u64>, _: &mut StepContext<'_>) -> u64 {
//!         (view.iter().min().copied().unwrap() + 1) % 4
//!     }
//!     fn output(&self, _: NodeId, s: &u64) -> u64 { *s }
//!     fn random_state(&self, _: NodeId, rng: &mut dyn RngCore) -> u64 { rng.next_u64() % 4 }
//! }
//!
//! let p = FollowMin;
//! let mut sim = Simulation::new(&p, adversaries::none(), 1);
//! sim.run(5);
//! assert_eq!(sim.round(), 5);
//! // All correct (= all) nodes have converged to the minimum chain.
//! let outs = sim.outputs_now();
//! assert!(outs.iter().all(|&o| o == outs[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advanced;
pub mod adversaries;
mod adversary;
mod batch;
mod early;
mod error;
mod faced;
mod metrics;
mod obs;
mod simulation;
mod sliced;
mod stabilization;
#[doc(hidden)]
pub mod testing;
mod workspace;

pub use advanced::{greedy, sleeper, Greedy, Sleeper};
pub use adversaries::{random_periodic, two_faced_periodic};
pub use adversary::{Adversary, AdversarySnapshot, RoundContext, SnapshotSupport};
pub use batch::{Batch, BatchReport, BatchSummary, Scenario, ScenarioOutcome};
pub use early::ExitReason;
pub use error::SimError;
pub use faced::FacedAdversary;
pub use metrics::{broadcast_metrics, BroadcastMetrics};
pub use obs::SimObs;
pub use simulation::{required_confirmation, Simulation};
pub use sliced::{
    sliced_crash, sliced_fixed, sliced_random_periodic, sliced_replay, sliced_two_faced_periodic,
    PackedInit, PackedSweep, RoundProgramSource, SlicedBatch, SlicedPalette, SlicedProtocol,
    SlicedReplay, SlicedStrategy, SlicedTwoFacedPeriodic,
};
pub use stabilization::{
    detect_stabilization, first_stable_window, violation_rate, OnlineDetector, OutputTrace,
    StabilizationReport,
};
pub use workspace::{FaultMask, RoundWorkspace, StatePool};

// The lease type of the borrowed message plane lives in `sc-protocol` (the
// view resolves it); re-exported here because adversaries mint the tokens.
pub use sc_protocol::MessageSource;
