//! Deterministic-harness suite: the CI face of every live scenario.
//! Fault-free and scripted runs are cross-checked state-for-state
//! against the `sc-sim` reference engine; every injector kind runs a
//! windowed disruption burst and must re-stabilise; identical configs
//! must reproduce bit-identical reports; and the four-injector plan's
//! reports stay equal to the pins recorded before the node stepped
//! through its round preparation.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::{scripted, MoveSpace, Script};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::{Counter, SyncProtocol};
use sc_runtime::{run_deterministic, FaultEntry, FaultKind, FaultPlan, MonitorCore, RuntimeConfig};
use sc_sim::{adversaries, Simulation};

const PERIOD_NS: u64 = 1_000_000;

fn a41() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .expect("A(4,1) parameters are valid")
        .build()
        .expect("A(4,1) builds")
}

fn config(plan: FaultPlan, horizon: u64, seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon,
        seed,
        confirm: None,
        quorum: None,
        plan,
    }
}

/// Generous stabilisation allowance for windowed faults: the paper bound
/// counts from the moment the system is in an arbitrary state with at
/// most f faults misbehaving — i.e. from the end of the burst.
fn slack_bound(algo: &Algorithm) -> u64 {
    algo.stabilization_bound() * 4 + 8
}

#[test]
fn fault_free_matches_simulation() {
    let algo = a41();
    let horizon = 64;
    let seed = 11;
    let report = run_deterministic(&algo, &config(FaultPlan::honest(algo.n()), horizon, seed))
        .expect("valid config");

    let states = sc_runtime::node::initial_states(&algo, seed);
    let mut sim = Simulation::with_states(&algo, adversaries::none(), states, seed);
    let trace = sim.run_trace(horizon - 1);

    for r in 0..horizon as usize {
        let row = report
            .honest_row(r, &[])
            .unwrap_or_else(|| panic!("round {r}: all honest nodes must post on time"));
        assert_eq!(
            row,
            trace.row(r),
            "round {r}: live node outputs must equal the reference engine"
        );
    }
    assert!(
        report.first_stable_round.is_some(),
        "fault-free run must stabilise"
    );
}

#[test]
fn scripted_witness_matches_scripted_adversary() {
    let algo = a41();
    let horizon = 48;
    let seed = 23;
    // A searched-style lasso script over echo/stale/raw moves.
    let space = MoveSpace {
        raw_values: 2,
        salts: 3,
        max_lag: 2,
    };
    let mut rng = SmallRng::seed_from_u64(99);
    let script = Script::random(4, vec![2], 6, 2, &space, &mut rng);

    let plan = FaultPlan::scripted(&script).expect("script imports");
    let report = run_deterministic(&algo, &config(plan, horizon, seed)).expect("valid config");

    let states = sc_runtime::node::initial_states(&algo, seed);
    let adversary = scripted(&script, &algo);
    let mut sim = Simulation::with_states(&algo, adversary, states, seed);
    let trace = sim.run_trace(horizon - 1);

    for r in 0..horizon as usize {
        let row = report
            .honest_row(r, script.fault_set())
            .unwrap_or_else(|| panic!("round {r}: honest nodes must post on time"));
        assert_eq!(
            row,
            trace.row(r),
            "round {r}: scripted live replay must equal the simulator's scripted adversary"
        );
    }
}

#[test]
fn each_injector_burst_restabilises() {
    let algo = a41();
    let bound = slack_bound(&algo);
    let mut rng = SmallRng::seed_from_u64(7);
    let script = Script::random(4, vec![1], 4, 0, &MoveSpace::echoes(3), &mut rng);
    let kinds: Vec<(&str, FaultKind)> = vec![
        ("mute", FaultKind::Mute),
        (
            "delayed",
            FaultKind::Delayed {
                jitter_permille: 1500,
            },
        ),
        ("equivocate", FaultKind::Equivocate),
        ("scripted", FaultKind::Scripted(script)),
    ];
    for (name, kind) in kinds {
        let burst_end = 24;
        let plan = FaultPlan::new(
            4,
            vec![FaultEntry {
                node: 1,
                from_round: 4,
                until_round: Some(burst_end),
                kind,
            }],
        )
        .expect("valid plan");
        let horizon = burst_end + bound + 16;
        let report = run_deterministic(&algo, &config(plan, horizon, 31)).expect("valid config");
        let last_stable = report
            .events
            .iter()
            .rev()
            .find(|e| e.stable)
            .unwrap_or_else(|| panic!("{name}: run must end stable, events {:?}", report.events));
        assert!(
            last_stable.round <= burst_end + bound,
            "{name}: re-stabilised at {} > burst end {burst_end} + bound {bound}",
            last_stable.round
        );
        let recovery = report
            .recoveries
            .iter()
            .find(|r| r.burst_end_round == burst_end);
        if report.events.iter().any(|e| !e.stable) {
            assert!(
                recovery.is_some(),
                "{name}: a disrupted run must report recovery"
            );
        }
    }
}

#[test]
fn crash_run_stabilises_and_serves_without_the_dead_node() {
    let algo = a41();
    let bound = slack_bound(&algo);
    let plan = FaultPlan::new(
        4,
        vec![FaultEntry {
            node: 3,
            from_round: 6,
            until_round: None,
            kind: FaultKind::Crash,
        }],
    )
    .expect("valid plan");
    let horizon = 6 + bound + 16;
    let report = run_deterministic(&algo, &config(plan, horizon, 5)).expect("valid config");
    let last = report.events.iter().rev().find(|e| e.stable);
    assert!(
        last.is_some(),
        "three survivors out of four must count, events {:?}",
        report.events
    );
    // The dead node's board entry goes stale, never poisoning quorum.
    let (_, final_sample) = report.trace.last().expect("trace recorded");
    let stale_tag = final_sample[3].map(|(tag, _)| tag);
    assert!(
        stale_tag.is_none() || stale_tag.unwrap() < report.rounds - 1,
        "crashed node must stop posting"
    );
}

#[test]
fn honest_deadline_miss_degrades_gracefully() {
    // An *honest* node with late publishes (jitter beyond the read
    // deadline) is charged as faulty while slow, and the run re-confirms
    // stability once it catches up.
    let algo = a41();
    let bound = slack_bound(&algo);
    let burst_end = 20;
    let plan = FaultPlan::new(
        4,
        vec![FaultEntry {
            node: 0,
            from_round: 4,
            until_round: Some(burst_end),
            kind: FaultKind::Delayed {
                jitter_permille: 2000, // up to 2 periods late: guaranteed misses
            },
        }],
    )
    .expect("valid plan");
    let horizon = burst_end + bound + 16;
    let report = run_deterministic(&algo, &config(plan, horizon, 13)).expect("valid config");
    let last_stable = report
        .events
        .iter()
        .rev()
        .find(|e| e.stable)
        .expect("run must end stable after the laggard catches up");
    assert!(last_stable.round <= burst_end + bound);
    // The slow node itself keeps reading: it must not rack up misses
    // faster than one per sender per round even while late.
    assert!(report.missed[0] <= report.rounds * 3);
}

#[test]
fn identical_configs_reproduce_bit_identically() {
    let algo = a41();
    let mut rng = SmallRng::seed_from_u64(41);
    let script = Script::random(4, vec![2], 5, 1, &MoveSpace::echoes(2), &mut rng);
    let plans = vec![
        FaultPlan::honest(4),
        FaultPlan::scripted(&script).expect("imports"),
        FaultPlan::new(
            4,
            vec![FaultEntry {
                node: 1,
                from_round: 3,
                until_round: Some(17),
                kind: FaultKind::Delayed {
                    jitter_permille: 1200,
                },
            }],
        )
        .expect("valid"),
    ];
    for plan in plans {
        let cfg = config(plan, 40, 77);
        let a = run_deterministic(&algo, &cfg).expect("valid config");
        let b = run_deterministic(&algo, &cfg).expect("valid config");
        assert_eq!(a.digest, b.digest, "digests must be bit-identical");
        assert_eq!(a.trace, b.trace, "traces must be bit-identical");
        assert_eq!(a.missed, b.missed);
        assert_eq!(a.events.len(), b.events.len());
    }
}

/// The `runtime-replay` benchmark's plan: Delayed, Crash, Scripted and
/// Equivocate bursts on A(4,1) around a seeded echo script for node 2.
fn four_injector_plan(script_seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(script_seed);
    let script = Script::random(4, vec![2], 4, 0, &MoveSpace::echoes(2), &mut rng);
    let entry = |node, from_round, until_round, kind| FaultEntry {
        node,
        from_round,
        until_round,
        kind,
    };
    FaultPlan::new(
        4,
        vec![
            entry(
                0,
                10,
                Some(18),
                FaultKind::Delayed {
                    jitter_permille: 1500,
                },
            ),
            entry(1, 14, None, FaultKind::Crash),
            entry(2, 40, Some(48), FaultKind::Scripted(script)),
            entry(3, 44, Some(52), FaultKind::Equivocate),
        ],
    )
    .expect("the four-injector plan is well-formed")
}

#[test]
fn four_injector_reports_match_their_pins() {
    let algo = a41();
    // (script seed, run seed, digest, missed, first stable round). The
    // first row is the benchmark's anchor run.
    let pins = [
        (
            0x11fe,
            0xbead,
            0x5efd_a55f_9347_2d61,
            [65, 3, 80, 72],
            Some(0),
        ),
        (0x11fe, 0x1, 0x8da9_9ad0_5662_0b61, [65, 4, 80, 72], Some(1)),
        (0x7, 0x5eed, 0xd638_4cb0_257d_f280, [65, 3, 79, 71], Some(3)),
        (
            0xcafe,
            0x2a,
            0x662f_d06e_df8d_4221,
            [65, 3, 80, 72],
            Some(1),
        ),
    ];
    for (script_seed, run_seed, digest, missed, first_stable) in pins {
        let cfg = RuntimeConfig {
            quorum: Some(3),
            ..config(four_injector_plan(script_seed), 80, run_seed)
        };
        let report = run_deterministic(&algo, &cfg).expect("valid config");
        assert_eq!(
            (
                report.digest,
                report.missed.as_slice(),
                report.first_stable_round
            ),
            (digest, missed.as_slice(), first_stable),
            "script seed {script_seed:#x}, run seed {run_seed:#x}"
        );
    }
}

#[test]
fn fault_free_a12_report_matches_its_pin() {
    let algo = CounterBuilder::corollary1(1, 2)
        .and_then(|b| b.boost(3))
        .expect("A(12,3) parameters are valid")
        .build()
        .expect("A(12,3) builds");
    let report =
        run_deterministic(&algo, &config(FaultPlan::honest(12), 120, 0x12)).expect("valid config");
    assert_eq!(report.digest, 0x7b74_6d86_d06a_dbc0);
    assert_eq!(report.missed, vec![0; 12]);
    assert_eq!(report.first_stable_round, Some(5));
}

#[test]
fn monitor_confirms_counting_not_agreement() {
    // A board frozen on one agreed value must never confirm stability.
    let cell = sc_runtime::SnapshotCell::new();
    let mut monitor = MonitorCore::new(3, 2, MonitorCore::default_confirm(2));
    for round in 0..20u64 {
        let sample = vec![Some((round, 1u64)); 4]; // agreed but frozen
        monitor.observe(round, &sample, round, &cell);
    }
    assert!(
        !monitor.is_stable(),
        "a frozen counter is agreement without counting"
    );
    assert_eq!(cell.load().0, 0, "snapshot must stay unpublished");
}
