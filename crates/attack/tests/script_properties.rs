//! Property coverage for script round-tripping:
//!
//! * the `Script` codec is lossless on arbitrary scripts,
//! * witness-imported scripts replay to the witness's configurations on the
//!   live engine,
//! * a mutated script's early-decision objective equals a from-scratch
//!   full-horizon evaluation (`early ≡ full` on scripted runs).

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::{MoveSpace, Objective, SampledRaw, Script};
use sc_core::{Algorithm, CounterState, LutCounter, LutSpec};
use sc_protocol::BitVec;
use sc_sim::testing::FollowMax;
use sc_sim::Simulation;
use sc_verifier::{verify, Verdict};

/// A random well-formed script: n in 2..=5, one or two faults, 1..=6
/// rounds, any cycle start, full move vocabulary.
fn random_script(seed: u64) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed);
    use rand::Rng;
    let n: usize = rng.random_range(2..=5);
    let f: usize = rng.random_range(1..=2.min(n - 1));
    let mut fault_set: Vec<usize> = (0..n).collect();
    // Deterministic subset: rotate by seed and take f, then sort.
    fault_set.rotate_left(rng.random_range(0..n));
    fault_set.truncate(f);
    fault_set.sort_unstable();
    let rounds: usize = rng.random_range(1..=6);
    let cycle_start: usize = rng.random_range(0..rounds);
    let space = MoveSpace {
        raw_values: rng.random_range(0..=4),
        salts: rng.random_range(1..=4),
        max_lag: rng.random_range(0..=3),
    };
    Script::random(n, fault_set, rounds, cycle_start, &space, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode → decode is the identity on arbitrary scripts.
    #[test]
    fn script_codec_is_lossless(seed in proptest::any::<u64>()) {
        let script = random_script(seed);
        let mut bits = BitVec::new();
        script.encode(&mut bits);
        let back = Script::decode(&mut bits.reader()).unwrap();
        prop_assert_eq!(&back, &script);
        // And re-encoding the decoded script is bit-identical.
        let mut bits2 = BitVec::new();
        back.encode(&mut bits2);
        prop_assert_eq!(bits.len(), bits2.len());
        prop_assert_eq!(bits.words(), bits2.words());
    }
}

/// Random `n = 4, f = 1` two-state LUT, exactly like the verifier cross
/// tests build them.
fn random_lut(seed: u64) -> LutCounter {
    let mut rng = SmallRng::seed_from_u64(seed);
    use rand::Rng;
    let rows = 16usize;
    let transition: Vec<Vec<u8>> = (0..4)
        .map(|_| (0..rows).map(|_| rng.random_range(0..2u8)).collect())
        .collect();
    LutCounter::new(LutSpec {
        n: 4,
        f: 1,
        c: 2,
        states: 2,
        transition,
        output: vec![vec![0, 1]; 4],
        stabilization_bound: 0,
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whenever the exhaustive checker refutes a random LUT, the imported
    /// witness script drives the live simulator through the witness's
    /// configurations, value for value, beyond the lasso length.
    #[test]
    fn witness_imported_scripts_replay_to_the_witness_configs(seed in proptest::any::<u64>()) {
        let lut = random_lut(seed);
        let Ok(Verdict::Fails { witness, .. }) = verify(&lut) else {
            // Stabilising tables have no witness to import; next case.
            continue;
        };
        let algo = Algorithm::Lut(lut);
        let script = Script::from_witness(&witness);
        let mut states = vec![CounterState::new(0); 4];
        for (hi, &node) in witness.honest.iter().enumerate() {
            states[node] = CounterState::new(witness.configs[0][hi].into());
        }
        let adversary = sc_attack::ScriptedAdversary::new(&script, &algo);
        let mut sim = Simulation::with_states(&algo, adversary, states, 0);
        let steps = witness.byz.len();
        let cycle = steps - witness.cycle_start;
        for t in 0..(steps + 2 * cycle) as u64 {
            let idx = if (t as usize) < steps {
                t as usize
            } else {
                witness.cycle_start + ((t as usize - witness.cycle_start) % cycle)
            };
            for (hi, &node) in witness.honest.iter().enumerate() {
                prop_assert_eq!(
                    &sim.states()[node],
                    &CounterState::new(witness.configs[idx][hi].into()),
                    "round {} diverged at node {}", t, node
                );
            }
            sim.step();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Mutating a script in place and evaluating with the early-decision
    /// inner loop gives exactly the full-horizon objective — the soundness
    /// contract the search relies on (`early ≡ full` on scripted runs).
    #[test]
    fn mutated_script_objective_equals_full_horizon(seed in proptest::any::<u64>()) {
        let p = FollowMax { n: 4, c: 8 };
        let space = MoveSpace { raw_values: 4, salts: 3, max_lag: 2 };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut script = Script::random(4, vec![1], 3, 1, &space, &mut rng);
        let mut obj = Objective::new(&p, SampledRaw(&p), vec![1], 0..4, 96).unwrap();

        // A chain of in-place mutations; after each, early must equal full.
        for step in 0..4u64 {
            let to = [0usize, 2, 3][step as usize % 3];
            let round = step as usize % 3;
            let prev = script.set_move(round, 0, to, space.sample(&mut rng));
            let early = obj.evaluate(&script);
            let full = obj.evaluate_full(&script);
            prop_assert_eq!(early, full, "mutation {} diverged", step);
            if step % 2 == 1 {
                // Undo half the time so both directions are exercised.
                script.set_move(round, 0, to, prev);
            }
        }
        prop_assert!(obj.evaluations() == 8);
    }
}
