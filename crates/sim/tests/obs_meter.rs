//! Sweep-metering suite: `SimObs` tallies must agree with the report,
//! and metering must not perturb verdicts.

use sc_sim::testing::FollowMax;
use sc_sim::{
    adversaries, sliced_replay, sliced_two_faced_periodic, Batch, ExitReason, Scenario, SimObs,
    SlicedBatch,
};

#[test]
fn batch_meters_match_the_report() {
    let p = FollowMax { n: 4, c: 4 };
    let scenarios = Scenario::seeds(0..24);
    let obs = SimObs::recording();
    assert!(obs.is_recording());

    let plain = Batch::new(&p, 40).run(&scenarios, |_| adversaries::none());
    let observed = Batch::new(&p, 40)
        .observed(&obs)
        .run(&scenarios, |_| adversaries::none());
    assert_eq!(
        plain.outcomes, observed.outcomes,
        "metering must not perturb verdicts"
    );

    assert_eq!(obs.scenarios_done(), 24);
    let metrics = obs.metrics().expect("recording bundle");
    assert_eq!(metrics.counter("sim.scenarios"), Some(24));
    assert_eq!(
        metrics.counter("sim.stabilized"),
        Some(observed.summary().stabilized as u64)
    );
    // Fault-free FollowMax is deterministic and never closed: every run
    // stops at a cycle exit.
    assert_eq!(observed.early_exits(), 24);
    assert_eq!(metrics.counter("sim.exit.cycle"), Some(24));
    assert_eq!(metrics.counter("sim.exit.full_horizon"), Some(0));
    assert_eq!(metrics.counter("sim.exit.closed"), Some(0));
    let hist = metrics.hist("sim.stabilization_round").expect("histogram");
    assert_eq!(hist.count, observed.summary().stabilized as u64);
    assert!(obs.scenarios_per_sec() > 0.0);
}

#[test]
fn early_exits_tally_by_reason() {
    let p = FollowMax { n: 4, c: 4 };
    let scenarios = Scenario::seeds(0..16);
    let obs = SimObs::recording();
    let report = Batch::new(&p, 64)
        .observed(&obs)
        .run(&scenarios, |_| adversaries::none());

    let metrics = obs.metrics().expect("recording bundle");
    let cycles = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.exit_reason, ExitReason::Cycle { .. }))
        .count() as u64;
    let full = report
        .outcomes
        .iter()
        .filter(|o| o.exit_reason == ExitReason::FullHorizon)
        .count() as u64;
    let opaque = report
        .outcomes
        .iter()
        .filter(|o| o.exit_reason == ExitReason::Opaque)
        .count() as u64;
    assert_eq!(metrics.counter("sim.exit.cycle"), Some(cycles));
    assert_eq!(metrics.counter("sim.exit.full_horizon"), Some(full));
    assert_eq!(metrics.counter("sim.exit.opaque"), Some(opaque));
    assert_eq!(cycles + full + opaque, 16);
    assert!(
        cycles > 0,
        "deterministic fault-free FollowMax runs must cycle out early"
    );
}

#[test]
fn detached_bundle_counts_nothing() {
    let p = FollowMax { n: 3, c: 4 };
    let obs = SimObs::default();
    assert!(!obs.is_recording());
    let scenarios = Scenario::seeds(0..4);
    Batch::new(&p, 40)
        .observed(&obs)
        .run(&scenarios, |_| adversaries::none());
    assert_eq!(obs.scenarios_done(), 0);
    assert!(obs.metrics().is_none());
}

#[test]
fn closure_exits_tally_on_a12() {
    // A(12,3) with its Figure-2 fault set under two-faced equivocation:
    // the batch stops every scenario whose correct registers agree
    // (Lemma 5) and meters each stop as `sim.exit.closed`.
    let algo = sc_core::CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let horizon = sc_protocol::Counter::stabilization_bound(&algo) + 64;
    let scenarios = Scenario::seeds(0..8);
    let obs = SimObs::recording();
    let report = Batch::new(&algo, horizon)
        .observed(&obs)
        .run_prepared(&scenarios, |s| {
            adversaries::two_faced(&algo, [0, 1, 4], s.seed)
        });

    let metrics = obs.metrics().expect("recording bundle");
    let closed = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.exit_reason, ExitReason::Closed { .. }))
        .count() as u64;
    assert_eq!(metrics.counter("sim.exit.closed"), Some(closed));
    assert_eq!(
        metrics.counter("sim.exit.opaque"),
        Some(8 - closed),
        "the rest ran the full horizon, under an RNG-driven adversary"
    );
    assert_eq!(metrics.counter("sim.exit.full_horizon"), Some(0));
    assert_eq!(metrics.counter("sim.exit.cycle"), Some(0));
    assert!(
        closed > 0,
        "two-faced A(12,3) runs close within the horizon"
    );
    assert!(report.rounds_saved(horizon) > 0);
}

#[test]
fn sliced_closure_exits_tally_on_a12() {
    // The sliced twin of `closure_exits_tally_on_a12`: under a ring-free
    // two-faced schedule a lane group freezes every lane whose correct
    // registers agree (Lemma 5) and meters each as `sim.exit.closed`; a
    // replay schedule reads a ring, never freezes, and tallies none.
    let algo = sc_core::CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let horizon = sc_protocol::Counter::stabilization_bound(&algo) + 64;
    let scenarios = Scenario::seeds(0..8);
    let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();

    let obs = SimObs::recording();
    let strategy = sliced_two_faced_periodic(12, [0, 1, 4], &seeds, 2);
    let report = SlicedBatch::new(&algo, horizon)
        .observed(&obs)
        .run(&scenarios, &strategy)
        .expect("A(12,3) lowers");
    let metrics = obs.metrics().expect("recording bundle");
    let closed = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.exit_reason, ExitReason::Closed { .. }))
        .count() as u64;
    assert_eq!(metrics.counter("sim.exit.closed"), Some(closed));
    assert_eq!(metrics.counter("sim.exit.full_horizon"), Some(8 - closed));
    assert!(
        closed > 0,
        "two-faced A(12,3) lanes close within the horizon"
    );
    assert!(report.rounds_saved(horizon) > 0);

    let obs = SimObs::recording();
    let report = SlicedBatch::new(&algo, horizon)
        .observed(&obs)
        .run(&scenarios, &sliced_replay(12, [0, 1, 4], 3))
        .expect("A(12,3) lowers");
    let metrics = obs.metrics().expect("recording bundle");
    assert_eq!(metrics.counter("sim.exit.closed"), Some(0));
    assert_eq!(metrics.counter("sim.exit.full_horizon"), Some(8));
    assert_eq!(report.early_exits(), 0);
}
