//! The soundness gate of the early-decision mode: for every adversary the
//! engine can snapshot, the early-exit verdict must be **bitwise identical**
//! to the full-horizon verdict — `Ok` reports and `Err` diagnostics alike —
//! and RNG-driven strategies must never take the early exit at all.

use sc_sim::testing::FollowMax;
use sc_sim::{
    adversaries, greedy, required_confirmation, sleeper, Batch, ExitReason, Scenario, SimError,
    Simulation,
};

/// Runs the same seeded scenario on both paths and demands bitwise-equal
/// verdicts; returns the early exit reason for further assertions.
fn assert_early_matches_full<A, F>(
    p: &FollowMax,
    make_adversary: F,
    horizon: u64,
    seed: u64,
) -> ExitReason
where
    A: sc_sim::Adversary<u64>,
    F: Fn() -> A,
{
    let mut full = Simulation::new(p, make_adversary(), seed);
    let expect = full.run_until_stable(horizon);
    let mut early = Simulation::new(p, make_adversary(), seed);
    let (got, exit) = early.run_until_stable_early(horizon);
    assert_eq!(got, expect, "verdict divergence (seed {seed})");
    exit
}

#[test]
fn fault_free_counting_is_a_fixpoint_class_cycle() {
    // FollowMax stabilises in ≤ 1 round and its configuration then cycles
    // with period c: the early exit must fire right after one full period
    // and still report the exact stabilisation round.
    let p = FollowMax { n: 5, c: 16 };
    for seed in 0..8u64 {
        let exit = assert_early_matches_full(&p, adversaries::none, 4_000, seed);
        match exit {
            ExitReason::Cycle {
                length, decided_at, ..
            } => {
                assert_eq!(length, 16, "period must be the modulus (seed {seed})");
                assert!(
                    decided_at <= 18,
                    "decided late at {decided_at} (seed {seed})"
                );
                assert!(exit.rounds_saved(4_000) >= 4_000 - 18);
            }
            other => panic!("expected a cycle exit, got {other:?} (seed {seed})"),
        }
    }
}

#[test]
fn crash_failures_replay_their_violations_algebraically() {
    // A frozen maximal value wraps FollowMax through a periodic counting
    // violation: the early path must reproduce the exact NotStabilized
    // diagnostics (last violation projected to the horizon tail) without
    // executing the tail.
    let p = FollowMax { n: 5, c: 8 };
    let mut cycles = 0;
    for seed in 0..12u64 {
        let exit = assert_early_matches_full(&p, || adversaries::crash(&p, [4], seed), 2_000, seed);
        if matches!(exit, ExitReason::Cycle { .. }) {
            cycles += 1;
        }
    }
    assert!(cycles >= 10, "crash executions are periodic: {cycles}/12");
}

#[test]
fn fixed_and_replay_adversaries_support_the_early_exit() {
    let p = FollowMax { n: 6, c: 8 };
    for seed in 0..6u64 {
        let exit = assert_early_matches_full(&p, || adversaries::fixed([2], 3u64), 2_000, seed);
        assert!(
            matches!(exit, ExitReason::Cycle { .. }),
            "fixed: {exit:?} (seed {seed})"
        );
        let exit =
            assert_early_matches_full(&p, || adversaries::replay::<u64>([1], 3), 2_000, seed);
        assert!(
            matches!(exit, ExitReason::Cycle { .. }),
            "replay: {exit:?} (seed {seed})"
        );
    }
}

#[test]
fn sleepers_delay_the_cycle_until_after_waking() {
    // The countdown keeps pre-wake configurations distinct, so the cycle
    // can only close after the wake round — and the verdict still matches.
    let p = FollowMax { n: 5, c: 8 };
    for seed in 0..4u64 {
        let wake = 120;
        let make = || sleeper(&p, [3], wake, adversaries::fixed([3], 1u64), seed);
        let exit = assert_early_matches_full(&p, make, 2_000, seed);
        match exit {
            ExitReason::Cycle { start, .. } => {
                assert!(
                    start >= wake,
                    "cycle start {start} before wake {wake} (seed {seed})"
                );
            }
            other => panic!("expected cycle after waking, got {other:?} (seed {seed})"),
        }
    }
}

#[test]
fn rng_driven_adversaries_never_take_the_early_exit() {
    let p = FollowMax { n: 5, c: 8 };
    for seed in 0..4u64 {
        let exit = assert_early_matches_full(&p, || adversaries::random(&p, [2], seed), 200, seed);
        assert_eq!(exit, ExitReason::Opaque, "random (seed {seed})");
        let exit =
            assert_early_matches_full(&p, || adversaries::two_faced(&p, [2], seed), 200, seed);
        assert_eq!(exit, ExitReason::Opaque, "two-faced (seed {seed})");
        let exit = assert_early_matches_full(&p, || greedy(&p, [2], 4, seed), 200, seed);
        assert_eq!(exit, ExitReason::Opaque, "greedy (seed {seed})");
    }
}

#[test]
fn a_sleeper_inherits_its_attacks_opacity() {
    // Deterministic until the wake round, RNG-driven after: the joint
    // strategy must opt out as a whole.
    let p = FollowMax { n: 5, c: 8 };
    let make = || sleeper(&p, [3], 40, adversaries::random(&p, [3], 9), 7);
    let exit = assert_early_matches_full(&p, make, 200, 7);
    assert_eq!(exit, ExitReason::Opaque);
}

#[test]
fn batch_early_sweeps_match_full_sweeps_scenario_for_scenario() {
    let p = FollowMax { n: 5, c: 16 };
    let scenarios = Scenario::seeds(0..16);
    let horizon = 4_000;
    let factory = |s: &Scenario<u64>| adversaries::crash(&p, [1], s.seed);
    let early = Batch::new(&p, horizon).run(&scenarios, factory);
    assert_eq!(early.outcomes.len(), scenarios.len());
    for (scenario, e) in scenarios.iter().zip(&early.outcomes) {
        let mut full = Simulation::new(&p, factory(scenario), scenario.seed);
        assert_eq!(full.run_until_stable(horizon), e.result, "seed {}", e.seed);
    }
    assert!(
        early.early_exits() >= 14,
        "crash sweeps are periodic: {}/16 early exits",
        early.early_exits()
    );
    assert!(early.rounds_saved(horizon) > 14 * (horizon - 200));
}

#[test]
fn batch_early_results_are_thread_count_invariant() {
    let p = FollowMax { n: 5, c: 8 };
    let scenarios = Scenario::seeds(0..9);
    let factory = |s: &Scenario<u64>| adversaries::crash(&p, [2], s.seed);
    let one = Batch::new(&p, 1_000).threads(1).run(&scenarios, factory);
    let many = Batch::new(&p, 1_000).threads(4).run(&scenarios, factory);
    assert_eq!(one.outcomes, many.outcomes);
}

#[test]
fn early_path_rejects_short_horizons_up_front() {
    let p = FollowMax { n: 4, c: 4 };
    let confirm = required_confirmation(4);
    let mut sim = Simulation::new(&p, adversaries::none(), 3);
    let (result, exit) = sim.run_until_stable_early(confirm - 1);
    assert!(matches!(
        result,
        Err(SimError::HorizonTooShort { required, .. }) if required == confirm
    ));
    assert_eq!(exit, ExitReason::FullHorizon);
    assert_eq!(sim.round(), 0, "rejected run must not execute rounds");
}
