//! The sliced closure exit is exact.
//!
//! Under a ring-free face schedule `SlicedBatch` freezes a lane the round
//! its correct nodes are closed (`SlicedProtocol::closed_lanes`, Lemma 5
//! for the boosted counter), records the rest of the horizon as counting,
//! and stops a lane group once every lane is frozen. Here every sweep is
//! compared lane by lane with
//!
//! * the same sweep with closure switched off (`NeverClosed`, every lane
//!   runs the full horizon): the verdicts must be equal;
//! * the scalar `Batch::run_prepared`: the verdicts must be equal, and a
//!   lane freezes exactly where the scalar run takes its closure exit, at
//!   the same `decided_at`;
//! * itself at thread caps 1, 2 and 7 and `lane_words` 1, 2 and 4: the
//!   outcomes, exits included, must be equal.
//!
//! on A(4,1) (a ragged list of 70 scenarios), A(12,3) and A(36,7) with the
//! Figure-2 fault sets, under crash, fixed, two-faced-periodic,
//! random-periodic and replay schedules. Replay reads a ring, whose
//! fabrication rate is not fixed, so its lanes all run the full horizon;
//! so do the lanes of a fault set beyond the budget Lemma 5 covers.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterBuilder, CounterState};
use sc_protocol::{Counter, NodeId, SyncProtocol};
use sc_sim::testing::NeverClosed;
use sc_sim::{
    adversaries, random_periodic, sliced_crash, sliced_fixed, sliced_random_periodic,
    sliced_replay, sliced_two_faced_periodic, two_faced_periodic, Adversary, Batch, ExitReason,
    Scenario, ScenarioOutcome, SlicedBatch, SlicedStrategy,
};

fn figure2(boosts: usize) -> Algorithm {
    let mut builder = CounterBuilder::corollary1(1, 2).unwrap();
    for _ in 0..boosts {
        builder = builder.boost(3).unwrap();
    }
    builder.build().unwrap()
}

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

/// One sliced run at a thread cap and lane width.
fn sliced<P, S>(
    protocol: &P,
    scenarios: &[Scenario<CounterState>],
    horizon: u64,
    strategy: &S,
    threads: usize,
    lane_words: usize,
) -> Vec<ScenarioOutcome>
where
    P: sc_sim::SlicedProtocol<State = CounterState> + Sync,
    S: SlicedStrategy<CounterState> + Sync,
{
    SlicedBatch::new(protocol, horizon)
        .threads(threads)
        .lane_words(lane_words)
        .run(scenarios, strategy)
        .expect("the Figure-2 stacks lower")
        .outcomes
}

/// Checks `strategy`'s sliced sweep against closure switched off, the
/// scalar engine under `factory` and, with `matrix`, every thread cap and
/// lane width; returns the sweep's exit reasons.
fn exact<S, A, F>(
    label: &str,
    algo: &Algorithm,
    scenarios: &[Scenario<CounterState>],
    strategy: &S,
    factory: F,
    matrix: bool,
) -> Vec<ExitReason>
where
    S: SlicedStrategy<CounterState> + Sync,
    A: Adversary<CounterState>,
    F: Fn(&Scenario<CounterState>) -> A + Sync,
{
    let horizon = algo.stabilization_bound() + 64;
    let base = sliced(algo, scenarios, horizon, strategy, 1, 1);

    // A ring schedule never freezes, so its sweep is its own closure-off
    // twin.
    let open = match strategy.max_lag() {
        0 => sliced(&NeverClosed(algo), scenarios, horizon, strategy, 1, 1),
        _ => base.clone(),
    };
    let scalar = Batch::new(algo, horizon).run_prepared(scenarios, &factory);
    for ((lane, open), scalar) in base.iter().zip(&open).zip(&scalar.outcomes) {
        let seed = lane.seed;
        assert_eq!(
            open.exit_reason,
            ExitReason::FullHorizon,
            "{label} (seed {seed}): closure switched off"
        );
        assert_eq!(lane.result, open.result, "{label} (seed {seed}): frozen");
        assert_eq!(lane.result, scalar.result, "{label} (seed {seed}): scalar");
        match (lane.exit_reason, scalar.exit_reason) {
            (ExitReason::Closed { decided_at }, ExitReason::Closed { decided_at: at }) => {
                assert_eq!(decided_at, at, "{label} (seed {seed}): closure round");
            }
            (ExitReason::FullHorizon, exit) => assert!(
                !matches!(exit, ExitReason::Closed { .. }),
                "{label} (seed {seed}): the scalar run closed, the lane did not"
            ),
            (exit, at) => panic!("{label} (seed {seed}): sliced {exit:?}, scalar {at:?}"),
        }
    }

    if matrix {
        for threads in [1, 2, 7] {
            for lane_words in [1, 2, 4] {
                let other = sliced(algo, scenarios, horizon, strategy, threads, lane_words);
                assert_eq!(
                    other, base,
                    "{label}: cap {threads}, lane_words {lane_words}"
                );
            }
        }
    }
    base.iter().map(|o| o.exit_reason).collect()
}

/// Every ring-free schedule freezes some lane; replay freezes none.
fn sweep(label: &str, algo: &Algorithm, faulty: &[usize], scenarios: &[Scenario<CounterState>]) {
    let matrix = algo.n() <= 12;
    let n = algo.n();
    let f = || faulty.iter().copied();
    let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    let closed =
        |exits: &[ExitReason]| exits.iter().any(|e| matches!(e, ExitReason::Closed { .. }));

    let exits = exact(
        &format!("{label} crash"),
        algo,
        scenarios,
        &sliced_crash(algo, f(), &seeds),
        |s| adversaries::crash(algo, f(), s.seed),
        matrix,
    );
    assert!(closed(&exits), "{label} crash: {exits:?}");

    let state = algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(7));
    let exits = exact(
        &format!("{label} fixed"),
        algo,
        scenarios,
        &sliced_fixed(f(), state),
        |_| adversaries::fixed(f(), state),
        matrix,
    );
    assert!(closed(&exits), "{label} fixed: {exits:?}");

    let exits = exact(
        &format!("{label} two-faced-periodic"),
        algo,
        scenarios,
        &sliced_two_faced_periodic(n, f(), &seeds, 3),
        |s| two_faced_periodic(f(), s.seed, 3),
        matrix,
    );
    assert!(closed(&exits), "{label} two-faced-periodic: {exits:?}");

    let exits = exact(
        &format!("{label} random-periodic"),
        algo,
        scenarios,
        &sliced_random_periodic(algo, f(), &seeds, 2),
        |s| random_periodic(algo, f(), s.seed, 2),
        matrix,
    );
    assert!(closed(&exits), "{label} random-periodic: {exits:?}");

    let exits = exact(
        &format!("{label} replay"),
        algo,
        scenarios,
        &sliced_replay(n, f(), 3),
        |_| adversaries::replay(f(), 3),
        matrix,
    );
    assert!(
        exits.iter().all(|e| *e == ExitReason::FullHorizon),
        "{label} replay: {exits:?}"
    );
}

#[test]
fn sliced_freeze_is_exact_on_a4() {
    // 70 scenarios: a full word and a ragged one at `lane_words` 1.
    sweep("A(4,1)", &a4(), &[2], &Scenario::seeds(100..170));
}

#[test]
fn sliced_freeze_is_exact_on_a12() {
    sweep("A(12,3)", &figure2(1), &[0, 1, 4], &Scenario::seeds(0..4));
}

#[test]
fn sliced_freeze_is_exact_on_a36() {
    // Closure switched off runs all 5 056 rounds; an unoptimised build
    // checks one seed, a release build two.
    let seeds = if cfg!(debug_assertions) { 0..1 } else { 0..2 };
    sweep(
        "A(36,7)",
        &figure2(2),
        &[0, 1, 2, 3, 4, 12, 24],
        &Scenario::seeds(seeds),
    );
}

#[test]
fn over_budget_lanes_never_freeze() {
    // Lemma 5 covers at most F faulty nodes: with one more, no lane may
    // freeze, and every verdict must be the one with closure switched off.
    let algo = a4();
    let faulty = [0, 1];
    assert!(faulty.len() > algo.resilience());
    let horizon = algo.stabilization_bound() + 64;
    let scenarios = Scenario::seeds(0..70);
    let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    let strategy = sliced_random_periodic(&algo, faulty, &seeds, 2);
    let frozen = sliced(&algo, &scenarios, horizon, &strategy, 1, 1);
    let open = sliced(&NeverClosed(&algo), &scenarios, horizon, &strategy, 1, 1);
    assert_eq!(frozen, open);
}
