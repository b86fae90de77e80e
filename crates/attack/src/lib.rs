//! Worst-case adversary search: scripted attacks as data, verifier
//! witnesses as seeds, guided search over the equivocation space.
//!
//! The paper's guarantees are worst-case over *all* Byzantine behaviours,
//! but a library of hand-written strategies (crash, two-faced, replay, …)
//! only samples a dozen points of that space — measured stabilisation
//! times say nothing about the *tightness* of the proven bounds. This
//! crate closes the gap with three layers:
//!
//! * **Scripts as data** — a [`Script`] fixes one [`Move`] per (round,
//!   faulty sender, receiver) in lasso form, with a compact lossless codec
//!   ([`Script::encode`] / [`Script::decode`]) and lossless import from
//!   exhaustive-verifier witnesses ([`Script::from_witness`]). The
//!   [`ScriptedAdversary`] executes any script on the live engine over the
//!   borrow-based message plane, and snapshots
//!   ([`sc_sim::Adversary::snapshot`]) so scripted runs ride the
//!   early-decision exit.
//! * **An objective harness** — [`Objective`] scores a script (or any
//!   adversary, for comparison) by the stabilisation [`Delay`] it inflicts
//!   on a fixed `(seed, fault set)` sweep, with
//!   `Simulation::run_until_stable_early` as the inner loop and in-place
//!   script edits between evaluations (the synthesiser's mutate/undo
//!   pattern). [`Objective::attach_sliced`] reroutes evaluation through
//!   the bit-sliced engine ([`sc_sim::SlicedBatch`]) — 64 scenarios per
//!   word, verdicts bitwise-identical, ≥ 20× faster on deep stacks, but
//!   always the full horizon (its docs say when that loses).
//! * **Search strategies** — [`search::random_search`],
//!   [`search::hill_climb`], [`search::beam_search`] and the structured
//!   annealer [`search::anneal`] (faulty-row copies, round swaps, prefix
//!   crossover between elite scripts — moves worth their evaluations once
//!   an evaluation is cheap, sliced or early-decided), plus the combined
//!   [`search::search`] and the bound-tightness sweep
//!   [`search::period_profile`]; all deterministic
//!   from a seed and fanned out with [`std::thread::scope`] behind the
//!   `parallel` feature. With a goal ([`SearchConfig::target`]) a search
//!   stops at the first script that reaches it.
//! * **A synthesis pre-filter** — [`AttackPreFilter`] packages a budgeted
//!   seeded search as a [`sc_verifier::CandidateFilter`]: candidates a
//!   cheap scripted attack provably breaks never reach the exhaustive
//!   solver. Reject-only by construction — see the soundness argument in
//!   the module docs — so it searches with a goal: one unstable script.
//!
//! At verifier scale the two ends meet: on an instance the exhaustive
//! checker refutes, a seeded search rediscovers a witness-equivalent
//! non-stabilising script from delay measurements alone — and past that
//! scale, search is the only machinery probing how bad an adversary can
//! actually be.
//!
//! # Example
//!
//! Replay a model-checker witness on the live simulator through a script:
//!
//! ```
//! use sc_attack::{Script, ScriptedAdversary};
//! use sc_core::{Algorithm, CounterState, LutSpec};
//! use sc_sim::Simulation;
//! use sc_verifier::{verify, Verdict};
//!
//! // Follow-max is 0-resilient: the checker refutes it and extracts a
//! // witness lasso.
//! let rows: Vec<u8> = (0..16u32)
//!     .map(|index| {
//!         let max = (0..4).map(|u| (index >> u & 1) as u8).max().unwrap();
//!         (max + 1) % 2
//!     })
//!     .collect();
//! let spec = LutSpec {
//!     n: 4,
//!     f: 1,
//!     c: 2,
//!     states: 2,
//!     transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
//!     output: vec![vec![0, 1]; 4],
//!     stabilization_bound: 0,
//! };
//! let lut = sc_core::LutCounter::new(spec.clone())?;
//! let Verdict::Fails { witness, .. } = verify(&lut)? else { panic!() };
//!
//! // Import the witness as a script and drive the real engine with it.
//! let script = Script::from_witness(&witness);
//! let algo = Algorithm::lut(spec)?;
//! let mut states = vec![CounterState::new(0); 4];
//! for (hi, &node) in witness.honest.iter().enumerate() {
//!     states[node] = CounterState::new(witness.configs[0][hi].into());
//! }
//! let adversary = ScriptedAdversary::new(&script, &algo);
//! let mut sim = Simulation::with_states(&algo, adversary, states, 0);
//! sim.step();
//! for (hi, &node) in witness.honest.iter().enumerate() {
//!     assert_eq!(sim.states()[node], CounterState::new(witness.configs[1][hi].into()));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod objective;
mod prefilter;
mod script;
pub mod search;
mod sliced;

pub use adversary::{RawState, SampledRaw, ScriptedAdversary};
pub use objective::{Delay, Objective};
pub use prefilter::{AttackPreFilter, FilterMeter};
pub use script::{Move, MoveSpace, Script};
pub use search::{PeriodPoint, SearchConfig, SearchReport};
pub use sliced::SlicedScript;
