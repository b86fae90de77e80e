//! Verdict equivalence and soundness of [`AttackPreFilter`] against the
//! configuration it had before it chose its engine and its goal: the same
//! seeded sweep and hill-climb, but on the bit-sliced path and spending the
//! whole budget. Rebuilt here from public API ([`Objective::new`] +
//! [`Objective::attach_sliced`] + un-targeted [`hill_climb`], broken iff the
//! best delay has an unstable scenario), it must agree with
//! [`CandidateFilter::reject`] candidate by candidate — the early-decision
//! scalar path scores every script identically, and stopping at the first
//! unstable script cannot change whether one exists.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::search::hill_climb;
use sc_attack::{AttackPreFilter, MoveSpace, Objective, SearchConfig};
use sc_core::{Algorithm, LutCounter};
use sc_verifier::{
    analyze, sweep_family, Analyzer, CandidateFilter, SweepCheckpoint, SweepLedger, SymmetricFamily,
};

/// The campaign's filter parameters: scenarios, script rounds, budget, seed.
const SCENARIOS: usize = 4;
const ROUNDS: usize = 3;
const BUDGET: u64 = 48;
const SEED: u64 = 9;

fn new_filter() -> AttackPreFilter {
    AttackPreFilter::new(SCENARIOS, ROUNDS, BUDGET, SEED)
}

/// What the filter answered for `lut` before this change.
fn sliced_whole_budget_verdict(lut: &LutCounter) -> bool {
    let spec = lut.spec().clone();
    let (n, f, states) = (spec.n, spec.f, spec.states);
    let horizon = (states as u64).pow(n as u32) + sc_sim::required_confirmation(spec.c);
    let algo = Algorithm::lut(spec).unwrap();
    let mut obj =
        Objective::new(&algo, &algo, (0..f).collect(), 0..SCENARIOS as u64, horizon).unwrap();
    assert!(obj.attach_sliced(), "LUT candidates lower");
    let space = MoveSpace {
        raw_values: states,
        salts: 2,
        max_lag: 2,
    };
    let mut cfg = SearchConfig::new(ROUNDS, space, SEED);
    cfg.budget = BUDGET;
    cfg.restarts = 2;
    cfg.threads = 1;
    let report = hill_climb(&obj, &cfg);
    assert!(report.evaluations > 2, "the old filter spent its budget");
    report.delay.unstable > 0
}

#[test]
fn the_whole_x2_family_agrees_and_every_rejection_is_confirmed() {
    let family = SymmetricFamily::new(5, 1, 2, 2).unwrap();
    let mut filter = new_filter();
    let mut lut = family.seed().unwrap();
    for index in 0..family.len().unwrap() {
        family.instantiate(index, &mut lut);
        let rejected = filter.reject(&lut);
        assert_eq!(
            rejected,
            sliced_whole_budget_verdict(&lut),
            "candidate {index}"
        );
        if rejected {
            assert!(
                analyze(&lut).unwrap().failure.is_some(),
                "candidate {index} rejected, but the verifier accepts it"
            );
        }
    }
    assert!(
        filter.evaluations() <= 3 * filter.rejected() + BUDGET * (64 - filter.rejected()),
        "a rejected candidate costs a few evaluations, not the budget: {} over {} rejections",
        filter.evaluations(),
        filter.rejected()
    );

    // And the campaign's ledger is what it was.
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    let mut checkpoint = SweepCheckpoint::new();
    let outcome = sweep_family(
        &family,
        &mut new_filter(),
        &mut analyzer,
        &mut checkpoint,
        u64::MAX,
    )
    .unwrap();
    assert!(outcome.complete);
    assert_eq!(
        checkpoint.ledger,
        SweepLedger {
            screened: 64,
            filtered: 61,
            survivors: 3,
            verified: 3,
            found: 0,
        }
    );
}

#[test]
fn seed_derived_x3_candidates_agree() {
    // The family's first candidates, where survivors are dense (13 and 40
    // pass the filter) so both verdicts are compared, then candidates
    // sampled from anywhere in the `3^21`-member family, almost all of
    // which break (about 1 in 4 000 survives). The reference costs about a
    // second per candidate unoptimised, so a debug build checks a subset
    // and a release build (CI's `verify` job runs one) all 200.
    let (leading, sampled) = if cfg!(debug_assertions) {
        (16, 16)
    } else {
        (48, 152)
    };
    let family = SymmetricFamily::new(5, 1, 2, 3).unwrap();
    let len = family.len().unwrap();
    // A fixed seed, so the sample repeats exactly.
    let mut rng = SmallRng::seed_from_u64(0x5eed_cafe);
    let sampled = (0..sampled).map(|_| rng.random_range(0..len));
    let indices: Vec<u64> = (0..leading).chain(sampled).collect();
    // The reference spends the whole budget on the full horizon, which is
    // what made the campaign slow: spread it over the pool.
    let verdicts = sc_exec::map(indices.len(), sc_exec::threads(), |i| {
        let mut lut = family.seed().unwrap();
        family.instantiate(indices[i], &mut lut);
        (new_filter().reject(&lut), sliced_whole_budget_verdict(&lut))
    });
    for (index, (now, before)) in indices.iter().zip(&verdicts) {
        assert_eq!(now, before, "candidate {index}");
    }
    let rejected = verdicts.iter().filter(|(now, _)| *now).count();
    assert!(
        0 < rejected && rejected < verdicts.len(),
        "the sample must hold both verdicts, {rejected} of {} rejected",
        verdicts.len()
    );
}
