//! Op count of the bit-sliced round programs the attack search runs.
//!
//! `attack-search` anneals scripts against A(12,3) with the Figure-2 fault
//! set {0, 1, 4}; almost all of its time is `Program::exec` over the round
//! programs those scripts compile to. This test lowers the programs of a
//! seeded set of echo face tables (every faulty sender shows every correct
//! receiver the current broadcast of a random correct donor), prints ops
//! and written plane-words per [`Op`] kind, and pins the mean op count per
//! round so the op stream cannot silently grow back.
//!
//! Run with `cargo test -p sc-core --test op_count -- --nocapture` to see
//! the table.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::{bits_for, FaceRef, NodeId, Op, Program, RoundFaces, SyncProtocol};
use sc_sim::SlicedProtocol;

/// Face tables lowered (one program each).
const TABLES: usize = 50;

/// Ceiling on the mean ops per round. Lowered with restoring-division
/// chains and popcount adder trees in place of the fused `DivMod` and
/// `AtLeast` ops, these tables averaged 3 364.2 ops per round.
const MAX_MEAN_OPS: f64 = 1_750.0;

fn a12() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

/// The op's kind and the plane-words it writes at one lane word.
fn kind(op: &Op) -> (&'static str, u64) {
    match *op {
        Op::Load { w, .. } => ("Load", w.into()),
        Op::Const { w, .. } => ("Const", w.into()),
        Op::Not { w, .. } => ("Not", w.into()),
        Op::And { w, .. } => ("And", w.into()),
        Op::Or { w, .. } => ("Or", w.into()),
        Op::Xor { w, .. } => ("Xor", w.into()),
        Op::Mux { w, .. } => ("Mux", w.into()),
        Op::Eq { .. } => ("Eq", 1),
        Op::Lt { .. } => ("Lt", 1),
        Op::Add { w, .. } => ("Add", w.into()),
        Op::DivMod { aw, d, .. } => ("DivMod", u64::from(aw) + u64::from(bits_for(d.into()))),
        Op::AtLeast { .. } => ("AtLeast", 1),
        Op::Store { w, .. } => ("Store", w.into()),
    }
}

/// The round programs of `TABLES` seeded echo face tables.
fn echo_programs() -> Vec<Arc<Program>> {
    let algo = a12();
    let n = algo.n();
    let faulty: Vec<NodeId> = [0, 1, 4].into_iter().map(NodeId::new).collect();
    let honest: Vec<u32> = (0..n as u32)
        .filter(|&v| !faulty.contains(&NodeId::new(v as usize)))
        .collect();
    let mut model = algo.sliced_model(&faulty).expect("A(12,3) lowers");
    let mut rng = SmallRng::seed_from_u64(0x0c0u64);
    (0..TABLES)
        .map(|_| {
            let mut faces = RoundFaces::new(faulty.len(), n);
            for g in 0..faulty.len() {
                for v in 0..n {
                    // Rows of faulty receivers are never read; the sliced
                    // engine canonicalises them to `Honest(0)`.
                    if !faulty.contains(&NodeId::new(v)) {
                        let donor = honest[rng.random_range(0..honest.len())];
                        faces.set_face(g, n, v, FaceRef::Honest(donor));
                    }
                }
            }
            model.round_program(&faces)
        })
        .collect()
}

#[test]
fn a12_figure2_echo_rounds_stay_under_the_op_budget() {
    let programs = echo_programs();
    let mut by_kind: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let (mut ops, mut words, mut arena) = (0u64, 0u64, 0u64);
    for program in &programs {
        for op in &program.ops {
            let (name, w) = kind(op);
            let entry = by_kind.entry(name).or_default();
            entry.0 += 1;
            entry.1 += w;
            words += w;
        }
        ops += program.ops.len() as u64;
        arena += u64::from(program.arena_planes);
    }
    let rounds = programs.len() as f64;
    println!("A(12,3), faults {{0,1,4}}, {TABLES} echo face tables, per round:");
    println!("{:<8} {:>9} {:>12}", "op", "ops", "plane-words");
    for (name, (count, w)) in &by_kind {
        println!(
            "{name:<8} {:>9.1} {:>12.1}",
            *count as f64 / rounds,
            *w as f64 / rounds
        );
    }
    let mean_ops = ops as f64 / rounds;
    println!(
        "{:<8} {:>9.1} {:>12.1}   (arena {:.1} planes)",
        "total",
        mean_ops,
        words as f64 / rounds,
        arena as f64 / rounds
    );
    assert!(
        mean_ops <= MAX_MEAN_OPS,
        "mean ops per A(12,3) round {mean_ops:.1} exceeds {MAX_MEAN_OPS}"
    );
}
