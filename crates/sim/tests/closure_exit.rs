//! The closure exit is exact.
//!
//! `Batch::run` and `Batch::run_prepared` (the run loop of
//! `Simulation::run_until_stable_early`) stop a scenario at the first
//! round its correct nodes are closed (`Counter::closed`, Lemma 5 for the
//! boosted counter) under an adversary whose fabrication rate is known
//! (`Adversary::fabrication_per_round`), and record the rest of the horizon
//! instead of executing it. Here every such outcome is compared with the
//! same scenario stepped by hand to the full horizon — `Simulation` and an
//! `OnlineDetector`, no exit — on A(12,3) and A(36,7) with the Figure-2
//! fault sets: the verdict and the fabrication ledger must be bitwise the
//! full-horizon ones, at every thread cap. Every adversary of the
//! `sweep-stabilise` workload must take the exit; adversaries whose rate is
//! unknown (replay, sleeper) must run the full horizon (no configuration
//! recurs inside it).

use sc_core::{adversaries as core_adv, Algorithm, CounterBuilder, CounterState};
use sc_protocol::Counter;
use sc_sim::{
    adversaries, required_confirmation, sleeper, Adversary, Batch, ExitReason, OnlineDetector,
    Scenario, Simulation,
};

fn figure2(boosts: usize) -> Algorithm {
    let mut builder = CounterBuilder::corollary1(1, 2).unwrap();
    for _ in 0..boosts {
        builder = builder.boost(3).unwrap();
    }
    builder.build().unwrap()
}

/// The scenario stepped by hand to the full horizon: its verdict and
/// fabrication ledger.
fn full_horizon<A: Adversary<CounterState>>(
    algo: &Algorithm,
    adversary: A,
    seed: u64,
    horizon: u64,
) -> (Result<sc_sim::StabilizationReport, sc_sim::SimError>, u64) {
    let mut sim = Simulation::new(algo, adversary, seed);
    let mut detector = OnlineDetector::new(algo.modulus());
    detector.observe(sim.agreed_output_now());
    for _ in 0..horizon {
        sim.step_prepared();
        detector.observe(sim.agreed_output_now());
    }
    let confirm = required_confirmation(algo.modulus());
    (detector.finish(confirm), sim.fabricated_states())
}

/// Runs `factory`'s adversary over `seeds` through both `Batch` entry
/// points at thread caps 1, 2 and 7, checks every outcome against the
/// hand-stepped full horizon, and returns the exit reasons.
fn exact<A, F>(
    label: &str,
    algo: &Algorithm,
    seeds: std::ops::Range<u64>,
    factory: F,
) -> Vec<ExitReason>
where
    A: Adversary<CounterState>,
    F: Fn(&Scenario<CounterState>) -> A + Sync,
{
    let horizon = algo.stabilization_bound() + 64;
    let scenarios = Scenario::seeds(seeds);
    let report = Batch::new(algo, horizon)
        .threads(1)
        .run(&scenarios, &factory);
    for threads in [1, 2, 7] {
        let batch = Batch::new(algo, horizon).threads(threads);
        if threads > 1 {
            let plain = batch.run(&scenarios, &factory);
            assert_eq!(
                plain.outcomes, report.outcomes,
                "{label}: run, cap {threads}"
            );
        }
        let prepared = batch.run_prepared(&scenarios, &factory);
        assert_eq!(
            prepared.outcomes, report.outcomes,
            "{label}: run_prepared, cap {threads}"
        );
    }
    for (scenario, outcome) in scenarios.iter().zip(&report.outcomes) {
        let seed = scenario.seed;
        let (result, fabricated) = full_horizon(algo, factory(scenario), seed, horizon);
        assert_eq!(outcome.result, result, "{label} (seed {seed}): verdict");
        assert_eq!(
            outcome.fabricated_states, fabricated,
            "{label} (seed {seed}): fabrication ledger"
        );
    }
    report.outcomes.iter().map(|o| o.exit_reason).collect()
}

/// The four `sweep-stabilise` adversaries take the closure exit at least
/// once each; replay and sleeper, whose fabrication count is not known in
/// advance, never do.
fn sweep(label: &str, algo: &Algorithm, faulty: &[usize], seeds: std::ops::Range<u64>) {
    let f = || faulty.iter().copied();
    let closed =
        |exits: &[ExitReason]| exits.iter().any(|e| matches!(e, ExitReason::Closed { .. }));
    let exits = exact(&format!("{label} none"), algo, seeds.clone(), |_| {
        adversaries::none()
    });
    assert!(closed(&exits), "{label} none: {exits:?}");
    let exits = exact(&format!("{label} crash"), algo, seeds.clone(), |s| {
        adversaries::crash(algo, f(), s.seed)
    });
    assert!(closed(&exits), "{label} crash: {exits:?}");
    let exits = exact(&format!("{label} random"), algo, seeds.clone(), |s| {
        adversaries::random(algo, f(), s.seed)
    });
    assert!(closed(&exits), "{label} random: {exits:?}");
    let exits = exact(&format!("{label} two-faced"), algo, seeds.clone(), |s| {
        adversaries::two_faced(algo, f(), s.seed)
    });
    assert!(closed(&exits), "{label} two-faced: {exits:?}");

    let full = |exits: &[ExitReason], kind: ExitReason| exits.iter().all(|e| *e == kind);
    let exits = exact(&format!("{label} replay"), algo, seeds.clone(), |_| {
        adversaries::replay(f(), 3)
    });
    assert!(
        full(&exits, ExitReason::FullHorizon),
        "{label} replay: {exits:?}"
    );
    let wake = (algo.stabilization_bound() + 64) / 2;
    let exits = exact(&format!("{label} sleeper"), algo, seeds, |s| {
        sleeper(
            algo,
            f(),
            wake,
            core_adv::bad_king(algo, f(), s.seed),
            s.seed,
        )
    });
    // Bad-king draws from an RNG, so the cycle detector disarms too.
    assert!(
        full(&exits, ExitReason::Opaque),
        "{label} sleeper: {exits:?}"
    );
}

#[test]
fn closure_exit_is_exact_on_a12() {
    sweep("A(12,3)", &figure2(1), &[0, 1, 4], 0..4);
}

#[test]
fn closure_exit_is_exact_on_a36() {
    // Each A(36,7) scenario is also stepped by hand through its 5 056
    // rounds; an unoptimised build checks one seed, a release build two.
    let seeds = if cfg!(debug_assertions) { 0..1 } else { 0..2 };
    sweep("A(36,7)", &figure2(2), &[0, 1, 2, 3, 4, 12, 24], seeds);
}
