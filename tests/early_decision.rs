//! Early-decision soundness on the real constructions: verdicts of the
//! exit-taking run loop must be **bitwise identical** to full-horizon
//! verdicts on the recursion stack and on the pulling counter, the cycle
//! path must actually fire where the configuration is provably periodic,
//! and RNG-driven plans/strategies must never take the cycle exit.
//!
//! The boosted counters close (Lemma 5) before their configurations recur,
//! so the cycle-path cases run them through [`NeverClosed`], which disables
//! the closure exit and nothing else.

use synchronous_counting::core::{Algorithm, CounterBuilder, CounterState};
use synchronous_counting::protocol::{Counter, PreparedProtocol};
use synchronous_counting::pulling::{KingPullMode, PullCounter, Pulled, Sampling};
use synchronous_counting::sim::testing::NeverClosed;
use synchronous_counting::sim::{
    adversaries, sleeper, Adversary, Batch, ExitReason, Scenario, Simulation,
};

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 2).unwrap().build().unwrap()
}

fn a36() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

/// The oracle (`run_until_stable`), the plain run loop
/// (`run_until_stable_early`) and the prepared one (`Batch::run_prepared`)
/// on one seeded scenario: equal verdicts, equal exits and ledgers between
/// the two loop paths. Returns the exit.
fn assert_early_matches_full<P, A, F>(
    p: &P,
    make_adversary: F,
    horizon: u64,
    seed: u64,
    label: &str,
) -> ExitReason
where
    P: Counter<State = CounterState> + PreparedProtocol + Sync,
    A: Adversary<CounterState>,
    F: Fn() -> A + Sync,
{
    let mut full = Simulation::new(p, make_adversary(), seed);
    let expect = full.run_until_stable(horizon);
    let mut early = Simulation::new(p, make_adversary(), seed);
    let (got, exit) = early.run_until_stable_early(horizon);
    assert_eq!(got, expect, "{label}: verdict divergence (seed {seed})");
    let prepared = Batch::new(p, horizon)
        .threads(1)
        .run_prepared(&[Scenario::seeded(seed)], |_| make_adversary());
    let outcome = &prepared.outcomes[0];
    assert_eq!(
        outcome.result, expect,
        "{label}: prepared-path verdict divergence (seed {seed})"
    );
    assert_eq!(
        outcome.exit_reason, exit,
        "{label}: exit divergence (seed {seed})"
    );
    assert_eq!(
        outcome.fabricated_states,
        early.fabricated_states(),
        "{label}: ledger divergence (seed {seed})"
    );
    exit
}

/// After stabilisation, A(4,1)'s configuration is periodic with the base
/// counter's modulus (2304 = 9·4⁴): the whole joint state re-occurs one
/// inner wrap later. The cycle exit must fire there and cut everything
/// beyond — this is the execution path E1/E3-style soak sweeps ride.
#[test]
fn a4_cycle_exit_fires_and_matches_full_horizon_bitwise() {
    let algo = a4();
    let p = NeverClosed(&algo);
    let period = 2304;
    let horizon = 4 * period;
    for (label, seed, exit) in [
        (
            "fault-free",
            1u64,
            assert_early_matches_full(&p, adversaries::none, horizon, 1, "fault-free"),
        ),
        (
            "crash",
            2,
            assert_early_matches_full(
                &p,
                || adversaries::crash(&algo, [1], 2),
                horizon,
                2,
                "crash",
            ),
        ),
        (
            "replay",
            3,
            assert_early_matches_full(&p, || adversaries::replay([2], 3), horizon, 3, "replay"),
        ),
    ] {
        match exit {
            ExitReason::Cycle {
                length, decided_at, ..
            } => {
                assert_eq!(
                    length % period,
                    0,
                    "{label} (seed {seed}): cycle length {length} not a wrap multiple"
                );
                assert!(
                    decided_at < horizon,
                    "{label} (seed {seed}): no rounds saved"
                );
            }
            other => panic!("{label} (seed {seed}): expected cycle exit, got {other:?}"),
        }
    }
}

#[test]
fn a4_sleeper_cycles_only_after_waking() {
    let algo = a4();
    let wake = 200;
    let make = || sleeper(&algo, [3], wake, adversaries::crash(&algo, [3], 5), 5);
    let exit = assert_early_matches_full(&algo, make, 3 * 2304, 9, "sleeper");
    match exit {
        ExitReason::Cycle { start, .. } => assert!(start >= wake, "cycle start {start} < wake"),
        other => panic!("expected post-wake cycle, got {other:?}"),
    }
}

/// On A(36,7) the joint configuration's period (lcm of the level moduli,
/// 34560) exceeds any bound-plus-margin horizon, so the detector must stay
/// silent — this direction guards against *false* recurrences — while the
/// verdicts stay bitwise identical across the adversary suite.
#[test]
fn a36_verdicts_match_across_the_adversary_suite() {
    let algo = a36();
    let p = NeverClosed(&algo);
    let faulty = [0usize, 1, 2, 3, 4, 12, 24];
    let horizon = 640;
    let exit = assert_early_matches_full(
        &p,
        || adversaries::crash(&algo, faulty, 3),
        horizon,
        3,
        "crash",
    );
    assert_eq!(exit, ExitReason::FullHorizon, "crash: no false recurrence");
    let exit =
        assert_early_matches_full(&p, || adversaries::replay(faulty, 3), horizon, 4, "replay");
    assert_eq!(exit, ExitReason::FullHorizon, "replay: no false recurrence");
    let exit = assert_early_matches_full(
        &p,
        || adversaries::two_faced(&algo, faulty, 7),
        horizon,
        5,
        "two-faced",
    );
    assert_eq!(exit, ExitReason::Opaque, "two-faced is RNG-driven");
    let wake = 64;
    let exit = assert_early_matches_full(
        &p,
        || {
            sleeper(
                &algo,
                [0, 12],
                wake,
                adversaries::crash(&algo, [0, 12], 11),
                11,
            )
        },
        horizon,
        6,
        "sleeper",
    );
    assert_eq!(
        exit,
        ExitReason::FullHorizon,
        "sleeper: no false recurrence"
    );
}

#[test]
fn pulling_counter_full_mode_takes_the_cycle_exit() {
    let algo = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
    let pc = PullCounter::from_algorithm(&algo, Sampling::Full).unwrap();
    let pulled = Pulled::new(&pc);
    assert!(pulled.deterministic_transition());
    let horizon = 3 * 2304;
    for seed in [1u64, 4] {
        let mut full = Simulation::new(&pulled, adversaries::none(), seed);
        let expect = full.run_until_stable(horizon);
        let mut early = Simulation::new(&pulled, adversaries::none(), seed);
        let (got, exit) = early.run_until_stable_early(horizon);
        assert_eq!(got, expect, "pulling verdict divergence (seed {seed})");
        assert!(
            matches!(exit, ExitReason::Cycle { .. }),
            "full pulling is deterministic and periodic, got {exit:?} (seed {seed})"
        );
    }
}

#[test]
fn fresh_sampling_plans_never_take_the_early_exit() {
    // Theorem 4's fresh samples draw from the step RNG: the typed marker
    // must disable fingerprinting even under a fault-free adversary.
    let algo = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
    let sampling = Sampling::Sampled {
        m: 9,
        king_mode: KingPullMode::All,
        fixed_seed: None,
    };
    let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
    let pulled = Pulled::new(&pc);
    assert!(!pulled.deterministic_transition());
    let horizon = pc.stabilization_bound() + 64;
    let mut full = Simulation::new(&pulled, adversaries::none(), 2);
    let expect = full.run_until_stable(horizon);
    let mut early = Simulation::new(&pulled, adversaries::none(), 2);
    let (got, exit) = early.run_until_stable_early(horizon);
    assert_eq!(got, expect);
    assert_eq!(exit, ExitReason::Opaque);
}

#[test]
fn pseudo_random_plans_are_typed_deterministic() {
    // Corollary 5 fixes the samples once: the plans are deterministic and
    // the marker must say so (the verdict-equality property then holds by
    // the same machinery as the full mode).
    let algo = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
    let sampling = Sampling::Sampled {
        m: 9,
        king_mode: KingPullMode::All,
        fixed_seed: Some(42),
    };
    let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
    let pulled = Pulled::new(&pc);
    assert!(pulled.deterministic_transition());
    let horizon = pc.stabilization_bound() + 64;
    let mut full = Simulation::new(&pulled, adversaries::none(), 3);
    let expect = full.run_until_stable(horizon);
    let mut early = Simulation::new(&pulled, adversaries::none(), 3);
    let (got, _exit) = early.run_until_stable_early(horizon);
    assert_eq!(got, expect);
}
