//! End-to-end behaviour of the pulling-model counters (§5, Theorem 4,
//! Corollaries 4–5), running on the **shared zero-copy engine**: every
//! execution here drives [`Pulled`] through `sc_sim::Simulation` / `Batch`
//! — the pulling model no longer has a private simulator.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::{Counter as _, NodeId};
use sc_pulling::{KingPullMode, PullCounter, PullProtocol, Pulled, Sampling};
use sc_sim::{
    adversaries, first_stable_window, required_confirmation, violation_rate, Batch, Scenario,
    SimError, Simulation,
};

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

fn a4_slack() -> Algorithm {
    CounterBuilder::trivial()
        .with_modulus(8)
        .with_king_slack(1)
        .boost_with_resilience(4, 1)
        .unwrap()
        .build()
        .unwrap()
}

/// Full pulling must replicate the deterministic broadcast execution
/// exactly: same initial configuration, no faults → identical output traces.
#[test]
fn full_pulling_equals_broadcast_execution() {
    use sc_protocol::SyncProtocol as _;
    let algo = a4();
    let pc = PullCounter::from_algorithm(&algo, Sampling::Full).unwrap();
    let pulled = Pulled::new(&pc);

    let mut rng = SmallRng::seed_from_u64(5);
    let det_states: Vec<_> = (0..4)
        .map(|i| algo.random_state(NodeId::new(i), &mut rng))
        .collect();
    // Mirror the same configuration in the pulling state space.
    let pull_states: Vec<_> = det_states.iter().map(|s| mirror_state(&algo, *s)).collect();

    let mut det = Simulation::with_states(&algo, adversaries::none(), det_states, 1);
    let mut pull = Simulation::with_states(&pulled, adversaries::none(), pull_states, 2);

    for round in 0..600 {
        assert_eq!(
            det.outputs_now(),
            pull.outputs_now(),
            "diverged at round {round}"
        );
        det.step();
        pull.step();
    }
}

/// Rebuilds a deterministic `CounterState` as a `PullState` (`prev_slot` has
/// no deterministic counterpart; full mode recomputes it every round, so 0
/// is fine).
fn mirror_state(algo: &Algorithm, s: sc_core::CounterState) -> sc_pulling::PullState {
    match algo {
        Algorithm::Trivial(_) => sc_pulling::PullState::Trivial(algo.trivial_of(s)),
        Algorithm::Boosted(b) => {
            sc_pulling::PullState::Boosted(Box::new(sc_pulling::PullBoostedState {
                inner: mirror_state(b.inner(), b.inner_of(s)),
                regs: b.regs_of(s),
                prev_slot: 0,
            }))
        }
        Algorithm::Lut(_) => unreachable!("no LUT levels here"),
    }
}

/// A(12, 1): one boosting level over A(4,1), deliberately run at resilience
/// F = 1 so the fault ratio F/N = 1/12 is comfortably below 1/3 — the
/// concentration regime the Lemma 8 analysis needs (for N = 4, F = 1 the
/// ratio 1/4 sits so close to the threshold that small samples glitch
/// constantly, which is expected behaviour, not a bug).
fn a12_f1() -> Algorithm {
    CounterBuilder::corollary1(1, 576) // 576 = 9·4³ = next level's c_req
        .unwrap()
        .boost_with_resilience(3, 1)
        .unwrap()
        .build()
        .unwrap()
}

#[test]
fn sampled_counter_stabilizes_with_all_kings() {
    // Fault-free: sampled thresholds are then deterministically satisfied
    // and stabilisation must be strict and within the bound.
    let algo = a4();
    let sampling = Sampling::Sampled {
        m: 9,
        king_mode: KingPullMode::All,
        fixed_seed: None,
    };
    let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
    let pulled = Pulled::new(&pc);
    for seed in 0..3 {
        let mut sim = Simulation::new(&pulled, adversaries::none(), seed);
        let report = sim
            .run_until_stable(pc.stabilization_bound() + 64)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.stabilization_round <= pc.stabilization_bound());
    }
    // The declared message complexity is honoured by actual plans: every
    // node's drawn plan has exactly `plan_len` requests.
    let mut rng = SmallRng::seed_from_u64(7);
    for i in 0..pc.n() {
        let node = NodeId::new(i);
        let state = pc.random_state(node, &mut rng);
        assert_eq!(pc.plan(node, &state, &mut rng).len(), pc.plan_len());
    }
}

#[test]
fn batch_sweeps_drive_the_pulled_counter() {
    // The whole point of the port: pulling scenarios sweep through the
    // shared Batch engine with its streaming OnlineDetector.
    let algo = a4();
    let pc = PullCounter::from_algorithm(&algo, Sampling::Full).unwrap();
    let pulled = Pulled::new(&pc);
    let horizon = pc.stabilization_bound() + 64;
    let scenarios = Scenario::seeds(0..8);
    let report = Batch::new(&pulled, horizon).run(&scenarios, |_| adversaries::none());
    let summary = report.summary();
    assert_eq!(summary.stabilized, 8);
    assert!(summary.worst <= pc.stabilization_bound());
    // Batch verdicts must match looped single runs on the same engine.
    for scenario in &scenarios {
        let mut sim = Simulation::new(&pulled, adversaries::none(), scenario.seed);
        let expect = sim.run_until_stable(horizon);
        assert_eq!(report.outcomes[scenario.seed as usize].result, expect);
    }
}

#[test]
fn short_horizons_fail_fast_on_the_pulled_engine() {
    // HorizonTooShort must fire *before* any round is executed — also for
    // pulling executions on the shared engine (modulus 8 ⇒ confirmation 16).
    let algo = a4();
    let pc = PullCounter::from_algorithm(&algo, Sampling::Full).unwrap();
    let pulled = Pulled::new(&pc);
    let confirm = required_confirmation(pc.modulus());
    let mut sim = Simulation::new(&pulled, adversaries::none(), 1);
    match sim.run_until_stable(confirm - 1) {
        Err(SimError::HorizonTooShort { horizon, required }) => {
            assert_eq!(horizon, confirm - 1);
            assert_eq!(required, confirm);
        }
        other => panic!("expected HorizonTooShort, got {other:?}"),
    }
    assert_eq!(sim.round(), 0, "rejected run must not execute rounds");
    // The batched path rejects every scenario the same way.
    let report =
        Batch::new(&pulled, confirm - 1).run(&Scenario::seeds(0..3), |_| adversaries::none());
    for outcome in &report.outcomes {
        assert!(matches!(
            outcome.result,
            Err(SimError::HorizonTooShort { .. })
        ));
    }
}

#[test]
fn sampled_counter_stabilizes_whp_under_byzantine_faults() {
    // Probabilistic counter (Theorem 4): stabilisation means reaching a long
    // correct window; afterwards a small per-round failure probability
    // remains (Lemma 8), so measure the rate instead of demanding a perfect
    // suffix.
    let pc = PullCounter::from_algorithm(
        &a12_f1(),
        Sampling::Sampled {
            m: 15,
            king_mode: KingPullMode::All,
            fixed_seed: None,
        },
    )
    .unwrap();
    let pulled = Pulled::new(&pc);
    let bound = pc.stabilization_bound();
    for seed in [2u64, 33] {
        let sampler = |node: NodeId, rng: &mut SmallRng| pc.random_state(node, rng);
        let adv = adversaries::random_from(sampler, [5], seed);
        let mut sim = Simulation::new(&pulled, adv, seed);
        let trace = sim.run_trace(bound + 512);
        let start = first_stable_window(&trace, pc.modulus(), 64)
            .unwrap_or_else(|| panic!("seed {seed}: no stable window found"));
        assert!(
            start <= bound,
            "seed {seed}: window starts at {start} > bound {bound}"
        );
        let rate = violation_rate(&trace, pc.modulus(), start);
        assert!(
            rate < 0.05,
            "seed {seed}: post-stabilisation failure rate {rate}"
        );
    }
}

#[test]
fn sampled_counter_stabilizes_with_predicted_kings() {
    let algo = a4_slack();
    let sampling = Sampling::Sampled {
        m: 9,
        king_mode: KingPullMode::Predicted,
        fixed_seed: None,
    };
    let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
    let pulled = Pulled::new(&pc);
    for seed in 0..3 {
        let mut sim = Simulation::new(&pulled, adversaries::none(), seed);
        let report = sim
            .run_until_stable(pc.stabilization_bound() + 64)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.stabilization_round <= pc.stabilization_bound());
    }
}

#[test]
fn pseudo_random_variant_stabilizes_under_oblivious_faults() {
    // Corollary 5: fix the samples once; an oblivious adversary picks the
    // fault set without seeing them. With high probability over the seed,
    // the fixed samples are good and the execution stabilises and keeps
    // counting *deterministically*.
    let algo = a12_f1();
    for fault in [0usize, 7] {
        let sampling = Sampling::Sampled {
            m: 15,
            king_mode: KingPullMode::All,
            fixed_seed: Some(1234),
        };
        let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
        let pulled = Pulled::new(&pc);
        let sampler = |node: NodeId, rng: &mut SmallRng| pc.random_state(node, rng);
        let adv = adversaries::random_from(sampler, [fault], 7);
        let mut sim = Simulation::new(&pulled, adv, 21);
        let bound = pc.stabilization_bound();
        let trace = sim.run_trace(bound + 256);
        let start = first_stable_window(&trace, pc.modulus(), 64)
            .unwrap_or_else(|| panic!("fault {fault}: no stable window"));
        assert!(start <= bound);
        // Once the fixed good samples have stabilised the system, counting
        // continues without any further failures at all.
        let rate = violation_rate(&trace, pc.modulus(), start);
        assert_eq!(
            rate, 0.0,
            "fault {fault}: pseudo-random run glitched after stabilising"
        );
    }
}

#[test]
fn sampled_pull_count_is_sublinear_for_larger_networks() {
    // A(12, 3) with sampling: pulls per round ≪ deterministic N−1 = 11…
    // sampling shines asymptotically; here we simply check the ledger:
    // k·m + m + kings, independent of N's block contents.
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let sampling = Sampling::Sampled {
        m: 5,
        king_mode: KingPullMode::All,
        fixed_seed: None,
    };
    let pc = PullCounter::from_algorithm(&algo, sampling).unwrap();
    // Level 2: k=3 blocks ⇒ 3·5 + 5 + (F+2 = 5) = 25 pulls, plus the inner
    // A(4,1) level: 4·5 + 5 + 3 = 28 pulls. Total 53 regardless of N.
    assert_eq!(pc.plan_len(), 53);
    // And a drawn plan really issues that many requests.
    let mut rng = SmallRng::seed_from_u64(3);
    let state = pc.random_state(NodeId::new(4), &mut rng);
    assert_eq!(pc.plan(NodeId::new(4), &state, &mut rng).len(), 53);
}

#[test]
fn per_level_sampling_policy_mixes_full_and_sampled() {
    // §5.4: sample where the level is large, pull everything where small.
    let algo = a12_f1();
    let pc = PullCounter::from_algorithm_with(&algo, &mut |p| {
        if p.n_total() > 8 {
            Sampling::Sampled {
                m: 9,
                king_mode: KingPullMode::All,
                fixed_seed: None,
            }
        } else {
            Sampling::Full
        }
    })
    .unwrap();
    // Inner A(4,1) level is Full (3 pulls from block mates); outer sampled:
    // 3·9 + 9 + (F+2 = 3) = 39. Total 42.
    assert_eq!(pc.plan_len(), 3 + 39);
    // The mixed counter still stabilises under a Byzantine node.
    let pulled = Pulled::new(&pc);
    let sampler = |node: NodeId, rng: &mut SmallRng| pc.random_state(node, rng);
    let adv = adversaries::random_from(sampler, [5], 4);
    let mut sim = Simulation::new(&pulled, adv, 4);
    let bound = pc.stabilization_bound();
    let trace = sim.run_trace(bound + 512);
    let start = first_stable_window(&trace, pc.modulus(), 64).expect("no stable window");
    assert!(start <= bound);
    let _ = algo.modulus();
}

#[test]
fn pull_state_codec_roundtrips_at_declared_width() {
    // The shared engine's Counter impl carries a bit-exact codec; it must
    // roundtrip every sampled state at exactly `state_bits` width.
    use sc_protocol::{BitVec, SyncProtocol as _};
    let algo = a12_f1();
    let pc = PullCounter::from_algorithm(
        &algo,
        Sampling::Sampled {
            m: 9,
            king_mode: KingPullMode::All,
            fixed_seed: None,
        },
    )
    .unwrap();
    let pulled = Pulled::new(&pc);
    let mut rng = SmallRng::seed_from_u64(11);
    for i in 0..pc.n() {
        let node = NodeId::new(i);
        let state = pulled.random_state(node, &mut rng);
        let mut bits = BitVec::new();
        pulled.encode_state(node, &state, &mut bits);
        assert_eq!(bits.len() as u32, pulled.state_bits(), "node {i}");
        let back = pulled.decode_state(node, &mut bits.reader()).unwrap();
        assert_eq!(back, state, "node {i}");
    }
}
