//! The algorithm-synthesis workbench: exhaustively verify small counters
//! (the pipeline behind the computer-designed algorithms of Table 1) and
//! search for new ones, then *run* a synthesised algorithm on the simulator
//! to cross-check the model checker against execution.
//!
//! Run with `cargo run --release --example synthesis_workbench`.

use synchronous_counting::core::{Algorithm, LutSpec};
use synchronous_counting::protocol::Counter;
use synchronous_counting::sim::{adversaries, Simulation};
use synchronous_counting::verifier::{synthesize, verify, SynthesisOutcome, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Verify a hand-written algorithm: 2 nodes following node 0.
    let follow_leader = LutSpec {
        n: 2,
        f: 0,
        c: 2,
        states: 2,
        transition: vec![vec![1, 0, 1, 0], vec![1, 0, 1, 0]],
        output: vec![vec![0, 1], vec![0, 1]],
        stabilization_bound: 1,
    };
    let lut = synchronous_counting::core::LutCounter::new(follow_leader)?;
    match verify(&lut)? {
        Verdict::Stabilizes { worst_case_time } => {
            println!("follow-leader verifies: exact worst-case time {worst_case_time}");
        }
        Verdict::Fails { .. } => unreachable!("follow-leader is correct"),
    }

    // 2. Synthesise a 2-node 2-counter from scratch.
    let report = synthesize(2, 0, 2, 2, 1, 5_000)?;
    let SynthesisOutcome::Found {
        counter,
        worst_case_time,
    } = report.outcome
    else {
        panic!("the fault-free instance is easily synthesisable");
    };
    println!(
        "synthesised a 2-node 2-counter in {} evaluations; verified T = {worst_case_time}",
        report.evaluations
    );

    // 3. Run the synthesised algorithm on the simulator from every initial
    //    configuration: the observed stabilisation must respect the
    //    verifier's exact worst case.
    let algo = Algorithm::lut(counter.spec().clone())?;
    let mut worst_seen = 0u64;
    for s0 in 0..2u8 {
        for s1 in 0..2u8 {
            let states = vec![
                synchronous_counting::core::CounterState::new(s0.into()),
                synchronous_counting::core::CounterState::new(s1.into()),
            ];
            let mut sim = Simulation::with_states(&algo, adversaries::none(), states, 0);
            let observed = sim.run_until_stable(64)?;
            worst_seen = worst_seen.max(observed.stabilization_round);
        }
    }
    println!(
        "simulated from all {} initial configurations: worst observed {} ≤ verified {}",
        4, worst_seen, worst_case_time
    );
    assert!(worst_seen <= worst_case_time);

    // 4. Attempt the hard instance of [4, 5] with a small budget and report
    //    how close the search got.
    let report = synthesize(4, 1, 2, 3, 7, 10_000)?;
    match report.outcome {
        SynthesisOutcome::Found {
            worst_case_time, ..
        } => {
            println!("n=4, f=1, |X|=3: FOUND a counter with T = {worst_case_time}!");
        }
        SynthesisOutcome::Exhausted { best_coverage } => {
            println!(
                "n=4, f=1, |X|=3: budget exhausted at coverage {best_coverage:.3} \
                 (the published solution needed SAT-scale search)"
            );
        }
    }
    let _ = algo.modulus();
    Ok(())
}
