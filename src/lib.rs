//! # synchronous-counting
//!
//! A complete Rust implementation of *Towards Optimal Synchronous Counting*
//! (Christoph Lenzen, Joel Rybicki, Jukka Suomela; PODC 2015,
//! arXiv:1503.06702): self-stabilising, Byzantine fault-tolerant synchronous
//! `c`-counters with linear stabilisation time, almost-optimal resilience and
//! polylogarithmic state, together with every substrate the paper's
//! evaluation needs — a synchronous round simulator with Byzantine
//! adversaries, the phase-king consensus protocol, a pulling-model simulator,
//! baseline algorithms, and a model checker for small instances.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names; see the individual crates for the full APIs:
//!
//! * [`protocol`] — model traits ([`protocol::SyncProtocol`],
//!   [`protocol::Counter`]), message views, votes, bit codecs.
//! * [`sim`] — synchronous broadcast simulator, adversary strategies,
//!   stabilisation detection, metrics.
//! * [`consensus`] — phase-king consensus (Berman–Garay–Perry) and
//!   counting↔consensus reductions.
//! * [`core`] — the paper's contribution: resilience boosting (Theorem 1)
//!   and the recursive constructions (Corollary 1, Theorems 2–3).
//! * [`baselines`] — randomised comparison counters (Table 1 rows \[6,7\]).
//! * [`verifier`] — exhaustive verification / synthesis of small counters.
//! * [`pulling`] — the randomised pulling-model constructions of §5.
//! * [`attack`] — worst-case adversary search: scripted attacks as data,
//!   witness replay, and guided search over the equivocation space.
//! * [`runtime`] — the live runtime: OS threads exchanging states through
//!   a lock-free mailbox plane on self-clocked rounds, fault injection
//!   (crash / mute / delay / equivocate / scripted witnesses), a
//!   watchdog monitor, a versioned-snapshot read path, and a
//!   deterministic harness replaying every scenario bit-identically.
//!   `runtime::obs` exposes the `sc-obs` observability layer — metrics,
//!   lock-free event rings, and the flight recorder — wired through the
//!   runtime; like the sweep engines' meters, the runtime's seams are
//!   always compiled and detached by default.
//!
//! # Quickstart
//!
//! Build a deterministic self-stabilising 2-counter for `N = 4` nodes
//! tolerating `f = 1` Byzantine node (Corollary 1), and run it against an
//! equivocating adversary from a random initial configuration:
//!
//! ```
//! use synchronous_counting::core::CounterBuilder;
//! use synchronous_counting::protocol::Counter;
//! use synchronous_counting::sim::{adversaries, Simulation, StabilizationReport};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let counter = CounterBuilder::corollary1(1, 2)?.build()?;
//! assert_eq!(counter.resilience(), 1);
//!
//! let adversary = adversaries::two_faced(&counter, [0], 7);
//! let mut sim = Simulation::new(&counter, adversary, 42);
//! let report: StabilizationReport = sim.run_until_stable(counter.stabilization_bound() + 64)?;
//! assert!(report.stabilization_round <= counter.stabilization_bound());
//! # Ok(())
//! # }
//! ```

pub use sc_attack as attack;
pub use sc_baselines as baselines;
pub use sc_consensus as consensus;
pub use sc_core as core;
pub use sc_protocol as protocol;
pub use sc_pulling as pulling;
pub use sc_runtime as runtime;
pub use sc_sim as sim;
pub use sc_verifier as verifier;
