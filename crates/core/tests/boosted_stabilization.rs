//! End-to-end stabilisation of the Theorem 1 construction.
//!
//! Self-stabilisation is quantified over all initial configurations and all
//! adversaries; these tests sample that space aggressively (every fault
//! placement × several strategies × several seeds) and assert the *proven*
//! bound `T(B) ≤ T(A) + 3(F+2)(2m)^k` on every single run. A fabricated
//! non-counter is also checked to *fail*, guarding against a vacuous
//! detector.

use sc_core::{adversaries as core_adv, Algorithm, CounterBuilder};
use sc_protocol::Counter;
use sc_sim::{adversaries, required_confirmation, Adversary, OnlineDetector, Simulation};

/// A(4, 1, 8): Corollary 1 with f = 1.
fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

fn assert_stabilizes<A>(algo: &Algorithm, adv: A, seed: u64, label: &str)
where
    A: Adversary<sc_core::CounterState>,
{
    let bound = algo.stabilization_bound();
    let mut sim = Simulation::new(algo, adv, seed);
    let report = sim
        .run_until_stable(bound + 64)
        .unwrap_or_else(|e| panic!("{label} (seed {seed}): {e}"));
    assert!(
        report.stabilization_round <= bound,
        "{label} (seed {seed}): stabilised at {} > bound {bound}",
        report.stabilization_round
    );
}

#[test]
fn a4_stabilizes_fault_free() {
    let algo = a4();
    for seed in 0..5 {
        assert_stabilizes(&algo, adversaries::none(), seed, "A(4,1) fault-free");
    }
}

#[test]
fn a4_stabilizes_under_every_fault_position_and_strategy() {
    let algo = a4();
    for faulty in 0..4usize {
        for seed in [1u64, 77] {
            assert_stabilizes(
                &algo,
                adversaries::crash(&algo, [faulty], seed),
                seed,
                "A(4,1) crash",
            );
            assert_stabilizes(
                &algo,
                adversaries::random(&algo, [faulty], seed),
                seed,
                "A(4,1) random",
            );
            assert_stabilizes(
                &algo,
                adversaries::two_faced(&algo, [faulty], seed),
                seed,
                "A(4,1) two-faced",
            );
            assert_stabilizes(
                &algo,
                adversaries::replay([faulty], 3),
                seed,
                "A(4,1) replay",
            );
            assert_stabilizes(
                &algo,
                core_adv::bad_king(&algo, [faulty], seed),
                seed,
                "A(4,1) bad-king",
            );
            assert_stabilizes(
                &algo,
                core_adv::pointer_split(&algo, [faulty], seed),
                seed,
                "A(4,1) pointer-split",
            );
        }
    }
}

#[test]
fn a12_stabilizes_with_three_byzantine_nodes() {
    // A(12, 3): one boosting level over A(4, 1).
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(algo.resilience(), 3);
    // Worst placement: make one whole block faulty (4 > f = 1 would need 2;
    // we place 2 in block 0 to make it faulty, 1 spread).
    let placements: [&[usize]; 3] = [&[0, 1, 4], &[0, 5, 9], &[2, 6, 10]];
    for (i, faulty) in placements.iter().enumerate() {
        for seed in [3u64, 19] {
            assert_stabilizes(
                &algo,
                adversaries::random(&algo, faulty.iter().copied(), seed),
                seed,
                &format!("A(12,3) random placement {i}"),
            );
            assert_stabilizes(
                &algo,
                core_adv::bad_king(&algo, faulty.iter().copied(), seed),
                seed,
                &format!("A(12,3) bad-king placement {i}"),
            );
        }
    }
}

#[test]
fn agreement_persists_once_reached() {
    // Lemma 5, executable: run past stabilisation, then keep adversarially
    // stepping and verify counting never breaks again.
    let algo = a4();
    let adv = core_adv::bad_king(&algo, [2], 5);
    let mut sim = Simulation::new(&algo, adv, 11);
    sim.run_until_stable(algo.stabilization_bound() + 64)
        .unwrap();
    let trace = sim.run_trace(500);
    for r in 0..trace.len() - 1 {
        let now = trace
            .agreed_value(r)
            .expect("agreement lost after stabilisation");
        let next = trace
            .agreed_value(r + 1)
            .expect("agreement lost after stabilisation");
        assert_eq!(
            next,
            (now + 1) % algo.modulus(),
            "counting broke at offset {r}"
        );
    }
}

#[test]
fn deterministic_counter_ignores_protocol_rng() {
    let algo = a4();
    // Same initial states, different protocol seeds → identical executions.
    use rand::SeedableRng as _;
    let mut init_rng = rand::rngs::SmallRng::seed_from_u64(400);
    use sc_protocol::{NodeId, SyncProtocol as _};
    let states: Vec<_> = (0..4)
        .map(|i| algo.random_state(NodeId::new(i), &mut init_rng))
        .collect();
    let mut a =
        Simulation::with_states(&algo, adversaries::crash(&algo, [1], 9), states.clone(), 1);
    let mut b = Simulation::with_states(&algo, adversaries::crash(&algo, [1], 9), states, 2);
    a.run(300);
    b.run(300);
    assert_eq!(a.states(), b.states());
}

#[test]
fn broken_counter_is_caught_by_the_detector() {
    // A "counter" that freezes instead of incrementing must NOT pass
    // stabilisation detection — guards against a vacuous test harness.
    let algo = Algorithm::trivial(4).unwrap();
    // Trivial counter on one node; freeze it by replaying its own state via
    // an explicit non-incrementing protocol is not expressible here, so
    // instead check the detector directly on a frozen trace.
    use sc_protocol::NodeId;
    use sc_sim::{detect_stabilization, OutputTrace};
    let mut trace = OutputTrace::new(vec![NodeId::new(0)]);
    for _ in 0..50 {
        trace.push_row(vec![2]);
    }
    assert!(detect_stabilization(&trace, algo.modulus(), 8).is_err());
}

#[test]
fn recovers_from_transient_corruption_bursts() {
    // The self-stabilisation promise in full: stabilise, corrupt every
    // register in the system, re-stabilise within the bound — repeatedly,
    // with a live Byzantine node throughout.
    let algo = a4();
    let adv = adversaries::two_faced(&algo, [3], 13);
    let mut sim = Simulation::new(&algo, adv, 13);
    sim.run_until_stable(algo.stabilization_bound() + 64)
        .unwrap();
    for burst in 0..3u64 {
        sim.corrupt_all(500 + burst);
        let report = sim
            .run_until_stable(algo.stabilization_bound() + 64)
            .unwrap_or_else(|e| panic!("burst {burst}: {e}"));
        assert!(
            report.stabilization_round <= algo.stabilization_bound(),
            "burst {burst}: {} > bound",
            report.stabilization_round
        );
    }
}

#[test]
fn partial_corruption_of_one_block_recovers() {
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let adv = adversaries::random(&algo, [5], 4);
    let mut sim = Simulation::new(&algo, adv, 4);
    sim.run_until_stable(algo.stabilization_bound() + 64)
        .unwrap();
    // Wipe block 0 (nodes 0..4) — fewer than a majority of blocks.
    use sc_protocol::NodeId;
    sim.corrupt((0..4).map(NodeId::new), 77);
    let report = sim
        .run_until_stable(algo.stabilization_bound() + 64)
        .unwrap();
    assert!(report.stabilization_round <= algo.stabilization_bound());
}

#[test]
fn sleeper_attack_cannot_break_agreement_after_onset() {
    // The strongest Lemma 5 stress: faults behave honestly until well past
    // stabilisation, then switch to king equivocation. Counting must
    // continue uninterrupted through the onset.
    let algo = a4();
    let wake = 120u64;
    let attack = core_adv::bad_king(&algo, [2], 21);
    let adv = sc_sim::sleeper(&algo, [2], wake, attack, 21);
    let mut sim = Simulation::new(&algo, adv, 33);
    sim.run(wake); // stabilised long ago (fault-free behaviour)
    let trace = sim.run_trace(400);
    for r in 0..trace.len() - 1 {
        let now = trace
            .agreed_value(r)
            .expect("agreement lost after attack onset");
        let next = trace
            .agreed_value(r + 1)
            .expect("agreement lost after attack onset");
        assert_eq!(
            next,
            (now + 1) % algo.modulus(),
            "counting broke at offset {r}"
        );
    }
}

#[test]
fn greedy_lookahead_stays_within_the_bound() {
    // The greedy one-step-lookahead adversary uses the transition function
    // itself; the proven bound must still hold.
    let algo = a4();
    for seed in [2u64, 15] {
        let adv = sc_sim::greedy(&algo, [0], 6, seed);
        let mut sim = Simulation::new(&algo, adv, seed);
        let report = sim
            .run_until_stable(algo.stabilization_bound() + 64)
            .unwrap_or_else(|e| panic!("greedy seed {seed}: {e}"));
        assert!(report.stabilization_round <= algo.stabilization_bound());
    }
}

/// Steps an execution every round to its horizon `T + 64` — no exit of
/// any kind — and checks Lemma 5's closure predicate ([`Counter::closed`])
/// on the way: once it holds at round r it holds at every later round, the
/// execution has stabilised by r, and the agreed output counts from r to
/// the horizon. Returns the first closed round, if any.
fn assert_closure_sound<A>(algo: &Algorithm, adv: A, seed: u64, label: &str) -> Option<u64>
where
    A: Adversary<sc_core::CounterState>,
{
    let horizon = algo.stabilization_bound() + 64;
    let modulus = algo.modulus();
    let mut sim = Simulation::new(algo, adv, seed);
    let mut detector = OnlineDetector::new(modulus);
    let mut last = sim.agreed_output_now();
    detector.observe(last);
    let mut closed_at = algo.closed(sim.states(), sim.honest()).then_some(0);
    for round in 1..=horizon {
        sim.step_prepared();
        let now = sim.agreed_output_now();
        detector.observe(now);
        let closed = algo.closed(sim.states(), sim.honest());
        if let Some(at) = closed_at {
            assert!(
                closed,
                "{label} (seed {seed}): closed at round {at}, open again at {round}"
            );
            assert!(
                now.is_some() && now == last.map(|v| (v + 1) % modulus),
                "{label} (seed {seed}): closed at round {at}, but round {round} reads \
                 {now:?} after {last:?}"
            );
        } else if closed {
            closed_at = Some(round);
        }
        last = now;
    }
    if let Some(at) = closed_at {
        let report = detector
            .finish(required_confirmation(modulus))
            .unwrap_or_else(|e| panic!("{label} (seed {seed}): closed at {at}, yet {e}"));
        assert!(
            report.stabilization_round <= at,
            "{label} (seed {seed}): closed at {at} before stabilising at {}",
            report.stabilization_round
        );
    }
    closed_at
}

/// Every adversary of the soundness gate on `algo` with fault set
/// `faulty`, one fresh instance per seed.
fn gate_adversaries<'a>(
    algo: &'a Algorithm,
    faulty: &'a [usize],
    seed: u64,
) -> Vec<(&'static str, Box<dyn Adversary<sc_core::CounterState> + 'a>)> {
    let f = || faulty.iter().copied();
    let wake = (algo.stabilization_bound() + 64) / 2;
    vec![
        ("none", Box::new(adversaries::none())),
        ("crash", Box::new(adversaries::crash(algo, f(), seed))),
        ("random", Box::new(adversaries::random(algo, f(), seed))),
        (
            "two-faced",
            Box::new(adversaries::two_faced(algo, f(), seed)),
        ),
        ("replay", Box::new(adversaries::replay(f(), 3))),
        (
            "sleeper",
            Box::new(sc_sim::sleeper(
                algo,
                f(),
                wake,
                core_adv::bad_king(algo, f(), seed),
                seed,
            )),
        ),
        ("greedy", Box::new(sc_sim::greedy(algo, f(), 2, seed))),
        ("bad-king", Box::new(core_adv::bad_king(algo, f(), seed))),
    ]
}

/// The soundness gate of the batch engine's closure exit on the Figure-2
/// stack: every adversary, every round stepped, the predicate checked
/// against the execution it claims to decide.
fn closure_gate(label: &str, algo: &Algorithm, faulty: &[usize], seeds: std::ops::Range<u64>) {
    let mut closed = 0;
    let mut runs = 0;
    for seed in seeds {
        for (name, adv) in gate_adversaries(algo, faulty, seed) {
            runs += 1;
            let at = assert_closure_sound(algo, adv, seed, &format!("{label} {name}"));
            closed += usize::from(at.is_some());
        }
    }
    // Every run stabilises within the horizon, and the predicate holds at
    // most a few rounds after stabilisation: a gate that never closes
    // would check nothing.
    assert_eq!(closed, runs, "{label}: {closed}/{runs} runs closed");
}

#[test]
fn lemma5_closure_is_sound_on_a4() {
    closure_gate("A(4,1)", &a4(), &[1], 0..4);
}

#[test]
fn lemma5_closure_is_sound_on_a12() {
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    closure_gate("A(12,3)", &algo, &[0, 1, 4], 0..3);
}

#[test]
fn lemma5_closure_is_sound_on_a36() {
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    // A full A(36,7) horizon is 5 056 rounds; an unoptimised build checks
    // one seed, a release build (CI's `verify` job runs one) four.
    let seeds = if cfg!(debug_assertions) { 0..1 } else { 0..4 };
    closure_gate("A(36,7)", &algo, &[0, 1, 2, 3, 4, 12, 24], seeds);
}
