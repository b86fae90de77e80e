//! `sweep-stabilise`: the paper's own experiment. A(36,7) with the
//! Figure-2 fault set is driven from two seeded arbitrary configurations
//! under each of four adversaries for `stabilization_bound() + 64` rounds,
//! and every scenario must stabilise at or before the proven bound
//! (Theorem 1).

use std::time::Instant;

use sc_core::{Algorithm, CounterState};
use sc_protocol::Counter as _;
use sc_sim::{
    adversaries, required_confirmation, Adversary, Batch, BatchReport, ExitReason, OnlineDetector,
    Scenario, ScenarioOutcome, Simulation,
};

use super::{figure2, Body, Rep, Workload};
use crate::digest::{derive, Digest};
use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

/// The Figure-2 fault set of A(36,7): five nodes of block 0 and one node
/// in each other block.
pub const FAULTY: [usize; 7] = [0, 1, 2, 3, 4, 12, 24];

/// Rounds past the proven bound, enough for the confirmation suffix.
const MARGIN: u64 = 64;

/// Seeded scenarios per adversary.
const SCENARIOS: usize = 2;

/// Rounds of the smoke batch each adversary runs in set-up: the first use
/// of every adversary path and of the batch's buffers, which the cold
/// repetition would otherwise pay. Without it the set-up of this workload
/// is the protocol build alone, and `setup_s` would gate microseconds.
const FIRST_USE_ROUNDS: u64 = 64;

/// Adversaries, in sweep order; the names key the per-layer metrics.
pub const ADVERSARIES: [&str; 4] = ["none", "crash", "random", "two-faced"];

/// Span names of `Simulation::step_prepared`, one per adversary.
pub const STEP_SPANS: [&str; 4] = [
    "sim.step_prepared.none",
    "sim.step_prepared.crash",
    "sim.step_prepared.random",
    "sim.step_prepared.two-faced",
];
pub const NEW_SPAN: &str = "sim.new";
pub const DETECT_SPAN: &str = "sim.detect";
/// Counts: rounds stepped, and states the random adversary fabricated.
pub const ROUNDS_COUNT: &str = "sim.rounds";
pub const FABRICATED_COUNT: &str = "sim.fabricated.random";

pub struct Sweep {
    /// [`SCENARIOS`] seeded scenarios per adversary, in adversary order.
    scenarios: Vec<Scenario<CounterState>>,
    gen_s: f64,
}

impl Sweep {
    pub fn generate(seed: u64) -> Sweep {
        let start = Instant::now();
        let scenarios = (0..(ADVERSARIES.len() * SCENARIOS) as u64)
            .map(|k| Scenario::seeded(derive(seed, k)))
            .collect();
        Sweep {
            scenarios,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn horizon(algo: &Algorithm) -> u64 {
        algo.stabilization_bound() + MARGIN
    }

    fn scenarios_of(&self, k: usize) -> &[Scenario<CounterState>] {
        &self.scenarios[k * SCENARIOS..(k + 1) * SCENARIOS]
    }

    /// The program's driver for adversary `k`: one `Batch::run_prepared`
    /// of its scenarios over `horizon` rounds.
    pub fn run_batch(&self, algo: &Algorithm, k: usize, horizon: u64) -> BatchReport {
        let batch = Batch::new(algo, horizon).threads(1);
        let scenarios = self.scenarios_of(k);
        match k {
            0 => batch.run_prepared(scenarios, |_| adversaries::none()),
            1 => batch.run_prepared(scenarios, |s: &Scenario<CounterState>| {
                adversaries::crash(algo, FAULTY, s.seed)
            }),
            2 => batch.run_prepared(scenarios, |s: &Scenario<CounterState>| {
                adversaries::random(algo, FAULTY, s.seed)
            }),
            _ => batch.run_prepared(scenarios, |s: &Scenario<CounterState>| {
                adversaries::two_faced(algo, FAULTY, s.seed)
            }),
        }
    }

    /// The replica of [`Sweep::run_batch`]: the same scenarios stepped by
    /// hand, each public call in a span.
    fn replica_batch(&self, algo: &Algorithm, k: usize, tracer: &mut Tracer) -> BatchReport {
        let mut outcomes = Vec::with_capacity(SCENARIOS);
        for scenario in self.scenarios_of(k) {
            let seed = scenario.seed;
            let outcome = match k {
                0 => replica_scenario(algo, k, seed, tracer, adversaries::none),
                1 => replica_scenario(algo, k, seed, tracer, || {
                    adversaries::crash(algo, FAULTY, seed)
                }),
                2 => replica_scenario(algo, k, seed, tracer, || {
                    adversaries::random(algo, FAULTY, seed)
                }),
                _ => replica_scenario(algo, k, seed, tracer, || {
                    adversaries::two_faced(algo, FAULTY, seed)
                }),
            };
            if k == 2 {
                tracer.count(FABRICATED_COUNT, outcome.fabricated_states);
            }
            outcomes.push(outcome);
        }
        BatchReport { outcomes }
    }
}

fn replica_scenario<A: Adversary<CounterState>>(
    algo: &Algorithm,
    k: usize,
    seed: u64,
    tracer: &mut Tracer,
    adversary: impl FnOnce() -> A,
) -> ScenarioOutcome {
    let horizon = Sweep::horizon(algo);
    let mut sim = tracer.span(NEW_SPAN, || Simulation::new(algo, adversary(), seed));
    let mut detector = OnlineDetector::new(algo.modulus());
    tracer.span(DETECT_SPAN, || detector.observe(sim.agreed_output_now()));
    for _ in 0..horizon {
        tracer.span(STEP_SPANS[k], || sim.step_prepared());
        tracer.span(DETECT_SPAN, || detector.observe(sim.agreed_output_now()));
    }
    tracer.count(ROUNDS_COUNT, horizon);
    ScenarioOutcome {
        seed,
        result: detector.finish(required_confirmation(algo.modulus())),
        fabricated_states: sim.fabricated_states(),
        exit_reason: ExitReason::FullHorizon,
    }
}

/// Folds one report into the digest and checks Theorem 1 on it.
fn fold(report: &BatchReport, bound: u64, digest: &mut Digest) -> Result<(), String> {
    for outcome in &report.outcomes {
        let stabilised = outcome
            .result
            .as_ref()
            .map_err(|e| format!("seed {}: {e}", outcome.seed))?;
        if stabilised.stabilization_round > bound {
            return Err(format!(
                "seed {}: stabilised at {} > proven bound {bound}",
                outcome.seed, stabilised.stabilization_round
            ));
        }
        digest.words([
            outcome.seed,
            stabilised.stabilization_round,
            stabilised.confirmed_rounds,
            outcome.fabricated_states,
        ]);
    }
    Ok(())
}

impl Workload for Sweep {
    fn def(&self) -> &'static WorkloadDef {
        registry::workload(registry::SWEEP).expect("registered")
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn session(&self, body: &mut Body<'_>) -> Result<f64, String> {
        let start = Instant::now();
        let algo = figure2(2);
        let horizon = Self::horizon(&algo);
        let bound = algo.stabilization_bound();
        for k in 0..ADVERSARIES.len() {
            std::hint::black_box(self.run_batch(&algo, k, FIRST_USE_ROUNDS));
        }
        let setup_s = start.elapsed().as_secs_f64();
        body(&mut |tracer: Option<&mut Tracer>| {
            let mut digest = Digest::new();
            let mut tracer = tracer;
            for k in 0..ADVERSARIES.len() {
                let report = match tracer.as_deref_mut() {
                    None => self.run_batch(&algo, k, horizon),
                    Some(tracer) => self.replica_batch(&algo, k, tracer),
                };
                fold(&report, bound, &mut digest)?;
            }
            Ok(Rep {
                units: (ADVERSARIES.len() * SCENARIOS) as u64 * horizon,
                digest: digest.finish(),
            })
        });
        Ok(setup_s)
    }
}
