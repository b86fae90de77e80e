//! Cross-validation of the model checker against the simulator — and of the
//! bitset game core against the retained first-generation checker: an
//! algorithm the verifier certifies must stabilise in simulation within the
//! verified exact worst case, from *every* initial configuration; an
//! algorithm the verifier rejects must exhibit a non-stabilising execution
//! under some adversary; and on random small instances the two checker
//! generations must return bitwise-identical verdicts, witnesses included.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synchronous_counting::core::{Algorithm, CounterState, LutCounter, LutSpec};
use synchronous_counting::sim::{adversaries, Simulation};
use synchronous_counting::verifier::{
    analyze, reference, synthesize, verify, SynthesisOutcome, Verdict, Witness,
};

fn follow_leader() -> LutSpec {
    LutSpec {
        n: 2,
        f: 0,
        c: 2,
        states: 2,
        transition: vec![vec![1, 0, 1, 0], vec![1, 0, 1, 0]],
        output: vec![vec![0, 1], vec![0, 1]],
        stabilization_bound: 1,
    }
}

#[test]
fn verified_time_is_an_upper_bound_for_every_execution() {
    let lut = LutCounter::new(follow_leader()).unwrap();
    let Verdict::Stabilizes { worst_case_time } = verify(&lut).unwrap() else {
        panic!("follow-leader must verify");
    };
    let algo = Algorithm::lut(follow_leader()).unwrap();
    for s0 in 0..2u8 {
        for s1 in 0..2u8 {
            let states = vec![CounterState::new(s0.into()), CounterState::new(s1.into())];
            let mut sim = Simulation::with_states(&algo, adversaries::none(), states, 0);
            let report = sim.run_until_stable(64).unwrap();
            assert!(
                report.stabilization_round <= worst_case_time,
                "simulation ({s0},{s1}) stabilised at {} > verified {worst_case_time}",
                report.stabilization_round
            );
        }
    }
}

#[test]
fn synthesized_counters_run_correctly_on_the_simulator() {
    let report = synthesize(2, 0, 2, 2, 11, 5_000).unwrap();
    let SynthesisOutcome::Found {
        counter,
        worst_case_time,
    } = report.outcome
    else {
        panic!("trivial instance must synthesise");
    };
    let algo = Algorithm::lut(counter.spec().clone()).unwrap();
    for seed in 0..8 {
        let mut sim = Simulation::new(&algo, adversaries::none(), seed);
        let report = sim.run_until_stable(64).unwrap();
        assert!(report.stabilization_round <= worst_case_time);
    }
}

/// A random table-driven counter, small enough for the reference checker's
/// seed limits (`n ≤ 4`, `|X| ≤ 4`).
fn random_lut(n: usize, f: usize, states: u8, c: u64, seed: u64) -> LutCounter {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rows = (states as usize).pow(n as u32);
    let transition: Vec<Vec<u8>> = (0..n)
        .map(|_| (0..rows).map(|_| rng.random_range(0..states)).collect())
        .collect();
    let output: Vec<Vec<u64>> = (0..n)
        .map(|_| (0..states).map(|_| rng.random_range(0..c)).collect())
        .collect();
    LutCounter::new(LutSpec {
        n,
        f,
        c,
        states,
        transition,
        output,
        stabilization_bound: 0,
    })
    .unwrap()
}

/// The witness must be replayable from its own data alone: every recorded
/// transition satisfies the transition function with the recorded Byzantine
/// values substituted, the lasso closes, and the script wraps around it.
fn assert_witness_replayable(lut: &LutCounter, witness: &Witness) {
    assert!(witness.configs.len() >= 2);
    assert_eq!(witness.byz.len(), witness.configs.len() - 1);
    assert_eq!(
        witness.configs.last(),
        witness.configs.get(witness.cycle_start)
    );
    for t in 0..witness.byz.len() {
        for (hi, &node) in witness.honest.iter().enumerate() {
            let mut received = vec![0u8; lut.spec().n];
            for (hj, &hv) in witness.honest.iter().enumerate() {
                received[hv] = witness.configs[t][hj];
            }
            for (g, &fv) in witness.fault_set.iter().enumerate() {
                received[fv] = witness.byz[t][hi][g];
            }
            assert_eq!(
                lut.next(node, &received),
                witness.configs[t + 1][hi],
                "transition {t} node {node} inconsistent"
            );
        }
    }
    let steps = witness.byz.len() as u64;
    let cycle = steps - witness.cycle_start as u64;
    for j in 0..cycle {
        assert_eq!(
            witness.script_at(steps + j),
            witness.script_at(witness.cycle_start as u64 + j),
            "script does not wrap around the lasso"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The bitset game core and the retained reference checker agree
    /// bitwise on random small LUTs: identical `Verdict`s (exact
    /// `worst_case_time`, same failing fault set, value-for-value equal
    /// replayable witnesses) and identical `AnalysisSummary`s (the
    /// synthesis scoring function), across fault-free and `f = 1`
    /// instances.
    #[test]
    fn bitset_core_matches_reference_checker(
        shape in 0usize..5,
        states in 2u8..=4,
        c in 2u64..=3,
        seed in proptest::any::<u64>(),
    ) {
        let (n, f) = [(1, 0), (2, 0), (3, 0), (4, 0), (4, 1)][shape];
        let c = c.min(u64::from(states));
        let lut = random_lut(n, f, states, c, seed);

        let summary = analyze(&lut).unwrap();
        prop_assert_eq!(&summary, &reference::analyze(&lut).unwrap());

        let verdict = verify(&lut).unwrap();
        prop_assert_eq!(&verdict, &reference::verify(&lut).unwrap());
        match &verdict {
            Verdict::Stabilizes { worst_case_time } => {
                prop_assert_eq!(*worst_case_time, summary.worst_time);
                prop_assert_eq!(summary.coverage, 1.0);
            }
            Verdict::Fails { witness, .. } => assert_witness_replayable(&lut, witness),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Instances big enough for the parallel gate (`|X|^n = 8^4 = 4096 ≥
    /// 2^12`, five fault sets): on multi-core machines `analyze` fans the
    /// fault-set games out with `std::thread::scope`, and the chunked fold
    /// must still be bitwise identical to the reference checker's serial
    /// sweep — same coverage, same worst time, same *first* failing fault
    /// set. (On a single core this degenerates to the serial path; the
    /// equality assertion is identical either way.)
    #[test]
    fn parallel_fan_out_matches_reference_checker(seed in proptest::any::<u64>()) {
        let lut = random_lut(4, 1, 8, 2, seed);
        prop_assert_eq!(
            analyze(&lut).unwrap(),
            reference::analyze(&lut).unwrap()
        );
    }
}

#[test]
fn rejected_algorithm_fails_in_simulation_too() {
    // Quorumless max-following with f = 1: the verifier rejects it; the
    // two-faced equivocator realises the rejection as an actual
    // non-stabilising (or at least bound-violating) execution.
    let rows: Vec<u8> = (0..16u32)
        .map(|index| {
            let max = (0..4).map(|u| (index >> u & 1) as u8).max().unwrap();
            (max + 1) % 2
        })
        .collect();
    let spec = LutSpec {
        n: 4,
        f: 1,
        c: 2,
        states: 2,
        transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
        output: vec![vec![0, 1]; 4],
        stabilization_bound: 0,
    };
    let lut = LutCounter::new(spec.clone()).unwrap();
    assert!(matches!(verify(&lut).unwrap(), Verdict::Fails { .. }));

    // Per-receiver random states realise the checker's counterexample:
    // when every correct node holds 0, sending 1 to *some* receivers and 0
    // to others splits the max-followers permanently. (The two-faced donor
    // strategy cannot: donor states are honest states, so it cannot inject
    // a 1 once the correct nodes agree on 0.)
    let algo = Algorithm::lut(spec).unwrap();
    let mut any_failure = false;
    for seed in 0..20 {
        let adv = adversaries::random(&algo, [0], seed);
        let mut sim = Simulation::new(&algo, adv, seed);
        if sim.run_until_stable(512).is_err() {
            any_failure = true;
            break;
        }
    }
    assert!(
        any_failure,
        "verifier rejected the algorithm but no adversary run broke it — \
         the two tools disagree"
    );
}
