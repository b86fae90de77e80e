//! The orbit-quotient equivalence gate: on exchangeable LUTs the
//! symmetry-quotiented solver must be **bitwise** indistinguishable from
//! the retained full bitset solver — identical `AnalysisSummary`s,
//! identical `Verdict`s, byte-identical replayable witnesses — while
//! deciding instances whose full configuration space the old limits
//! reject. The synthesis pre-filter is audited the same way: every
//! candidate it rejects must be one the exhaustive verifier also refutes
//! (reject-only soundness), and a filtered sweep finds exactly the
//! counters an unfiltered sweep finds.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synchronous_counting::attack::{scripted, AttackPreFilter, Script};
use synchronous_counting::core::{Algorithm, CounterState, LutCounter, LutSpec};
use synchronous_counting::sim::Simulation;
use synchronous_counting::verifier::{
    reference, sweep_family, Analyzer, NoFilter, SolverMode, SweepCheckpoint, SymmetricFamily,
    Verdict, Witness,
};

/// A random **exchangeable** table-driven counter: one shared transition
/// table that depends only on the multiset of received states (a fresh
/// random next-state per multiset class), one shared output table.
fn random_symmetric_lut(n: usize, f: usize, states: u8, c: u64, seed: u64) -> LutCounter {
    let mut rng = SmallRng::seed_from_u64(seed);
    let x = states as usize;
    let rows = x.pow(n as u32);
    let mut class: HashMap<Vec<u8>, u8> = HashMap::new();
    let mut table = vec![0u8; rows];
    for (r, slot) in table.iter_mut().enumerate() {
        let mut digits = Vec::with_capacity(n);
        let mut rest = r;
        for _ in 0..n {
            digits.push((rest % x) as u8);
            rest /= x;
        }
        digits.sort_unstable();
        *slot = *class
            .entry(digits)
            .or_insert_with(|| rng.random_range(0..states));
    }
    let output: Vec<u64> = (0..states).map(|_| rng.random_range(0..c)).collect();
    LutCounter::new(LutSpec {
        n,
        f,
        c,
        states,
        transition: vec![table; n],
        output: vec![output; n],
        stabilization_bound: 0,
    })
    .unwrap()
}

/// Local consistency: every recorded transition satisfies the transition
/// function with the recorded Byzantine values substituted, the lasso
/// closes, and the script wraps around it.
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
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// On random exchangeable LUTs across every shape the reference
    /// checker can host, forced-quotient and forced-full analysis agree
    /// bitwise: same `AnalysisSummary` (exact coverage fraction included),
    /// same `Verdict`, value-for-value equal witnesses — and `Auto` (which
    /// detects the symmetry and quotients) agrees with both.
    #[test]
    fn quotient_matches_full_solver_bitwise(
        shape in 0usize..5,
        states in 2u8..=4,
        c in 2u64..=3,
        seed in proptest::any::<u64>(),
    ) {
        let (n, f) = [(1, 0), (2, 0), (3, 0), (4, 0), (4, 1)][shape];
        let c = c.min(u64::from(states));
        let lut = random_symmetric_lut(n, f, states, c, seed);

        let mut full = Analyzer::with_mode(SolverMode::Full);
        let mut quot = Analyzer::with_mode(SolverMode::Quotient);
        let mut auto = Analyzer::new();

        let summary = full.analyze(&lut).unwrap();
        prop_assert_eq!(&summary, &quot.analyze(&lut).unwrap());
        prop_assert_eq!(&summary, &auto.analyze(&lut).unwrap());
        prop_assert_eq!(&summary, &reference::analyze(&lut).unwrap());

        let verdict = full.verify(&lut).unwrap();
        prop_assert_eq!(&verdict, &quot.verify(&lut).unwrap());
        if let Verdict::Fails { witness, .. } = &verdict {
            assert_witness_replayable(&lut, witness);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Symmetry-aware fault-set enumeration (one game per fault-set size,
    /// statistics scaled by multiplicity) is a bitwise no-op on the
    /// summary — including which first failing fault set is reported,
    /// because the preorder enumeration visits the prefix chain first.
    #[test]
    fn dedup_fault_sets_matches_full_enumeration(
        states in 2u8..=3,
        seed in proptest::any::<u64>(),
    ) {
        let lut = random_symmetric_lut(4, 1, states, 2, seed);
        let mut plain = Analyzer::with_mode(SolverMode::Quotient);
        let mut dedup = Analyzer::with_mode(SolverMode::Quotient);
        dedup.dedup_fault_sets(true);
        prop_assert_eq!(plain.analyze(&lut).unwrap(), dedup.analyze(&lut).unwrap());

        // The flag is sound on the full engine too (it simply never fires
        // for non-exchangeable tables, and fires identically here).
        let mut full_dedup = Analyzer::new();
        full_dedup.dedup_fault_sets(true);
        prop_assert_eq!(
            plain.analyze(&lut).unwrap(),
            full_dedup.analyze(&lut).unwrap()
        );
    }
}

#[test]
fn quotient_mode_refuses_asymmetric_tables() {
    // A positional table (copy node 0's received state) is not invariant
    // under permuting received positions: Auto must fall back to the full
    // solver, and forced Quotient must error rather than quotient it.
    let rows: Vec<u8> = (0..8).map(|r| (r & 1) as u8).collect();
    let lut = LutCounter::new(LutSpec {
        n: 3,
        f: 0,
        c: 2,
        states: 2,
        transition: vec![rows; 3],
        output: vec![vec![0, 1]; 3],
        stabilization_bound: 0,
    })
    .unwrap();
    let full = Analyzer::with_mode(SolverMode::Full).analyze(&lut).unwrap();
    assert_eq!(full, Analyzer::new().analyze(&lut).unwrap());
    assert!(Analyzer::with_mode(SolverMode::Quotient)
        .analyze(&lut)
        .is_err());
}

/// The n = 5 instance the old limits reject: 16 states on 5 nodes is
/// `16^5 = 2^20` configurations — the full solver's fault-free mask table
/// (`2^20 · 5` words) exceeds its budget and the reference checker's seed
/// limit (`2^14`) is far behind — but only `C(20, 5) = 15504` orbits.
fn sum_mod_lut_n5_x16() -> LutCounter {
    let n = 5usize;
    let x = 16usize;
    let rows = x.pow(n as u32);
    let mut table = vec![0u8; rows];
    for (r, slot) in table.iter_mut().enumerate() {
        let mut sum = 0usize;
        let mut rest = r;
        for _ in 0..n {
            sum += rest % x;
            rest /= x;
        }
        *slot = (sum % x) as u8;
    }
    LutCounter::new(LutSpec {
        n,
        f: 1,
        c: 2,
        states: 16,
        transition: vec![table; n],
        output: vec![(0..16).map(|s| s % 2).collect(); n],
        stabilization_bound: 0,
    })
    .unwrap()
}

#[test]
fn quotient_decides_an_n5_instance_beyond_the_old_limits() {
    let lut = sum_mod_lut_n5_x16();
    assert!(reference::analyze(&lut).is_err(), "reference must reject");
    assert!(
        Analyzer::with_mode(SolverMode::Full).analyze(&lut).is_err(),
        "the unquotiented solver's limits must reject 2^20 × 5 mask words"
    );
    let mut quot = Analyzer::with_mode(SolverMode::Quotient);
    quot.dedup_fault_sets(true);
    let summary = quot.analyze(&lut).unwrap();
    // Sum-following has no quorum: one equivocating fault breaks it (and
    // even fault-free counting mod 2 over a sum mod 16 drifts). What
    // matters here is that the quotient *decides* the instance exactly.
    assert!(summary.coverage >= 0.0 && summary.coverage <= 1.0);
    assert!(
        summary.failure.is_some(),
        "sum-following should not be 1-resilient"
    );
}

#[test]
fn quotient_witness_is_byte_identical_and_replays_on_the_simulator() {
    // Follow-max is exchangeable (max is position-invariant) and
    // 0-resilient: both engines must refute it with the *same* witness,
    // and the quotient-extracted lasso must drive the live simulator.
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
        transition: vec![rows; 4],
        output: vec![vec![0, 1]; 4],
        stabilization_bound: 0,
    };
    let lut = LutCounter::new(spec.clone()).unwrap();

    let full = Analyzer::with_mode(SolverMode::Full).verify(&lut).unwrap();
    let quot = Analyzer::with_mode(SolverMode::Quotient)
        .verify(&lut)
        .unwrap();
    assert_eq!(full, quot, "witnesses must be byte-identical across modes");
    let Verdict::Fails { witness, .. } = quot else {
        panic!("follow-max must fail");
    };
    assert_witness_replayable(&lut, &witness);

    // Replay the quotient's witness on the real engine via the scripted
    // adversary: the live states must track the predicted configurations.
    let algo = Algorithm::lut(spec).unwrap();
    let mut states = vec![CounterState::new(0); 4];
    for (hi, &node) in witness.honest.iter().enumerate() {
        states[node] = CounterState::new(witness.configs[0][hi].into());
    }
    let script = Script::from_witness(&witness);
    let adversary = scripted(&script, &algo);
    let mut sim = Simulation::with_states(&algo, adversary, states, 0);
    let steps = witness.byz.len();
    let cycle = steps - witness.cycle_start;
    for t in 0..steps + 2 * cycle {
        let idx = if t < steps {
            t
        } else {
            witness.cycle_start + ((t - witness.cycle_start) % cycle)
        };
        for (hi, &node) in witness.honest.iter().enumerate() {
            assert_eq!(
                sim.states()[node],
                CounterState::new(witness.configs[idx][hi].into()),
                "round {t}: simulator diverged from the quotient witness"
            );
        }
        sim.step();
    }
}

#[test]
fn n5_family_sweep_is_filter_sound_end_to_end() {
    // The declared n = 5, f = 1 candidate family: 2 states, 6 multiset
    // classes, 64 exchangeable candidates. Sweep it twice — once through
    // the attack pre-filter, once unfiltered — and audit the ledgers.
    let family = SymmetricFamily::new(5, 1, 2, 2).unwrap();
    assert_eq!(family.classes(), 6);
    assert_eq!(family.len(), Some(64));

    let mut filtered = SweepCheckpoint::new();
    let mut filter = AttackPreFilter::new(4, 3, 48, 9);
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    let outcome =
        sweep_family(&family, &mut filter, &mut analyzer, &mut filtered, u64::MAX).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.processed, 64);

    let mut baseline = SweepCheckpoint::new();
    sweep_family(
        &family,
        &mut NoFilter,
        &mut analyzer,
        &mut baseline,
        u64::MAX,
    )
    .unwrap();

    // Ledger invariants: every candidate is screened, the split is exact,
    // every survivor is exhaustively verified.
    let ledger = filtered.ledger;
    assert_eq!(ledger.screened, 64);
    assert_eq!(ledger.screened, ledger.filtered + ledger.survivors);
    assert_eq!(ledger.verified, ledger.survivors);
    assert!(ledger.found <= ledger.verified);
    assert_eq!(filter.screened(), 64);
    assert_eq!(filter.rejected(), ledger.filtered);
    assert_eq!(baseline.ledger.screened, 64);
    assert_eq!(baseline.ledger.survivors, 64);

    // Reject-only soundness, audited two ways: (1) the filtered sweep
    // finds exactly the correct candidates the unfiltered sweep finds;
    // (2) every candidate the filter rejected is one the exhaustive
    // verifier refutes.
    assert_eq!(filtered.found, baseline.found);
    let mut lut = family.seed().unwrap();
    for index in 0..64 {
        if filtered.survivors.contains(&index) {
            continue;
        }
        family.instantiate(index, &mut lut);
        assert!(
            analyzer.analyze(&lut).unwrap().failure.is_some(),
            "pre-filter rejected candidate {index} but the verifier accepts it"
        );
    }
}
