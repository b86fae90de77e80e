//! The strongest cross-validation in the workspace: the model checker's
//! failure **witness** — a lasso-shaped execution with explicit Byzantine
//! values per (round, receiver) — is replayed on the real simulator via the
//! library-grade scripted adversary (`sc_attack::scripted`), and
//! the live system follows the predicted configurations exactly, forever
//! failing to stabilise.

use synchronous_counting::attack::{scripted, Script};
use synchronous_counting::core::{Algorithm, CounterState, LutCounter, LutSpec};
use synchronous_counting::sim::Simulation;
use synchronous_counting::verifier::{verify, Verdict};

fn follow_max() -> LutSpec {
    let rows: Vec<u8> = (0..16u32)
        .map(|index| {
            let max = (0..4).map(|u| (index >> u & 1) as u8).max().unwrap();
            (max + 1) % 2
        })
        .collect();
    LutSpec {
        n: 4,
        f: 1,
        c: 2,
        states: 2,
        transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
        output: vec![vec![0, 1]; 4],
        stabilization_bound: 0,
    }
}

#[test]
fn checker_witness_replays_exactly_on_the_simulator() {
    let spec = follow_max();
    let lut = LutCounter::new(spec.clone()).unwrap();
    let Verdict::Fails { witness, .. } = verify(&lut).unwrap() else {
        panic!("follow-max must fail");
    };

    // Start the simulator in the witness's first configuration.
    let algo = Algorithm::lut(spec).unwrap();
    let mut states = vec![CounterState::new(0); 4];
    for (hi, &node) in witness.honest.iter().enumerate() {
        states[node] = CounterState::new(witness.configs[0][hi].into());
    }
    // The witness imports losslessly as a script of raw moves; the
    // Algorithm's raw vocabulary is exact for LUT states, so the scripted
    // adversary fabricates precisely the witness's Byzantine values.
    let script = Script::from_witness(&witness);
    let adversary = scripted(&script, &algo);
    let mut sim = Simulation::with_states(&algo, adversary, states, 0);

    // Follow the script far beyond the lasso length: the live states must
    // match the predicted configurations at every single round.
    let steps = witness.byz.len();
    let cycle = steps - witness.cycle_start;
    for t in 0..(steps + 3 * cycle) as u64 {
        let idx = if (t as usize) < steps {
            t as usize
        } else {
            witness.cycle_start + ((t as usize - witness.cycle_start) % cycle)
        };
        for (hi, &node) in witness.honest.iter().enumerate() {
            assert_eq!(
                sim.states()[node],
                CounterState::new(witness.configs[idx][hi].into()),
                "round {t}: simulator diverged from the witness at node {node}"
            );
        }
        sim.step();
    }

    // And, of course, the scripted execution never stabilises.
    let trace = sim.run_trace(64);
    assert!(
        synchronous_counting::sim::detect_stabilization(&trace, 2, 8).is_err(),
        "witness execution must not count correctly"
    );
}

#[test]
fn witness_script_wraps_around_the_lasso() {
    let lut = LutCounter::new(follow_max()).unwrap();
    let Verdict::Fails { witness, .. } = verify(&lut).unwrap() else {
        panic!();
    };
    let steps = witness.byz.len() as u64;
    let cycle = steps - witness.cycle_start as u64;
    // The script at (steps + k·cycle + j) equals the script at
    // (cycle_start + j) for any k — both on the witness itself and on its
    // imported `Script` form.
    let script = Script::from_witness(&witness);
    assert_eq!(script.len() as u64, steps);
    assert_eq!(script.cycle_start(), witness.cycle_start);
    for j in 0..cycle {
        let base = witness.script_at(witness.cycle_start as u64 + j);
        assert_eq!(witness.script_at(steps + j), base);
        assert_eq!(witness.script_at(steps + cycle + j), base);
        let base_idx = script.index_at(witness.cycle_start as u64 + j);
        assert_eq!(script.index_at(steps + j), base_idx);
        assert_eq!(script.index_at(steps + cycle + j), base_idx);
    }
}

#[test]
fn scripted_replay_rides_the_early_decision_exit() {
    // The promoted adversary snapshots (the private test-local `Scripted`
    // it replaced could not), so a witness replay is decided by the cycle
    // detector instead of executing a long horizon round for round.
    let spec = follow_max();
    let lut = LutCounter::new(spec.clone()).unwrap();
    let Verdict::Fails { witness, .. } = verify(&lut).unwrap() else {
        panic!();
    };
    let algo = Algorithm::lut(spec).unwrap();
    let mut states = vec![CounterState::new(0); 4];
    for (hi, &node) in witness.honest.iter().enumerate() {
        states[node] = CounterState::new(witness.configs[0][hi].into());
    }
    let script = Script::from_witness(&witness);
    let horizon = 1 << 14;
    let mut early = Simulation::with_states(&algo, scripted(&script, &algo), states.clone(), 0);
    let (verdict, exit) = early.run_until_stable_early(horizon);
    assert!(
        matches!(exit, synchronous_counting::sim::ExitReason::Cycle { decided_at, .. }
            if decided_at < horizon / 4),
        "scripted lasso must be decided early, got {exit:?}"
    );
    // Bitwise-identical verdict to the full-horizon run.
    let mut full = Simulation::with_states(&algo, scripted(&script, &algo), states, 0);
    assert_eq!(verdict, full.run_until_stable(horizon));
    assert!(verdict.is_err(), "witness executions never stabilise");
}
