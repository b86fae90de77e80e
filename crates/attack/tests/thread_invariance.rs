//! Thread-count invariance of the pool-backed fan-outs this crate touches:
//!
//! * `SlicedBatch` verdicts on a real lowered protocol (A(4,1)) are
//!   bitwise identical at thread caps 1, 2 and 7;
//! * `search` (random + hill-climb) returns the same best script, delay
//!   and evaluation count at those caps — and so do `random_search`,
//!   `hill_climb` and `anneal` with a `SearchConfig::target`, whichever
//!   task reaches it (the report is defined in task order, so the tasks a
//!   serial run never starts must not leak in from the pool), down to the
//!   sweeps anneal's per-restart score tables let it skip;
//! * a `sweep_family` campaign with the attack pre-filter produces an
//!   identical checkpoint — ledger, survivors, finds — and identical
//!   filter audit counters on explicit 1-, 2- and 7-thread pools,
//!   including when the 7-thread sweep is budgeted into uneven chunks and
//!   resumed through the checkpoint codec mid-campaign.

use proptest::{prop_assert_eq, proptest, ProptestConfig};
use sc_attack::search::{anneal, hill_climb, random_search};
use sc_attack::{AttackPreFilter, Delay, MoveSpace, Objective, SearchConfig, SearchReport};
use sc_core::{Algorithm, CounterBuilder};
use sc_sim::{sliced_crash, Scenario, SlicedBatch};
use sc_verifier::{sweep_family_on, Analyzer, SweepCheckpoint, SymmetricFamily};

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn sliced_batch_verdicts_are_identical_at_caps_1_2_and_7(
        base_seed in proptest::any::<u32>(),
        scenarios in 1usize..130,
    ) {
        let algo = a4();
        let list =
            Scenario::seeds((base_seed as u64)..(base_seed as u64 + scenarios as u64));
        let seeds: Vec<u64> = list.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&algo, [1], &seeds);
        let one = SlicedBatch::new(&algo, 64)
            .threads(1)
            .run(&list, &strategy)
            .unwrap();
        for threads in [2, 7] {
            let many = SlicedBatch::new(&algo, 64)
                .threads(threads)
                .run(&list, &strategy)
                .unwrap();
            prop_assert_eq!(&one.outcomes, &many.outcomes, "cap {}", threads);
        }
    }

    #[test]
    fn search_results_are_identical_at_caps_1_2_and_7(seed in proptest::any::<u64>()) {
        let algo = a4();
        let mut obj =
            sc_attack::Objective::new(&algo, &algo, vec![1], 0..4, 64).unwrap();
        obj.attach_sliced();
        let space = MoveSpace { raw_values: 5, salts: 2, max_lag: 2 };
        let mut cfg = SearchConfig::new(3, space, seed);
        cfg.budget = 24;
        cfg.threads = 1;
        let one = random_search(&obj, &cfg);
        for threads in [2, 7] {
            cfg.threads = threads;
            let many = random_search(&obj, &cfg);
            prop_assert_eq!(&one.best, &many.best, "cap {}", threads);
            prop_assert_eq!(one.delay, many.delay, "cap {}", threads);
            prop_assert_eq!(one.evaluations, many.evaluations, "cap {}", threads);
        }
    }

    #[test]
    fn targeted_search_reports_are_identical_at_caps_1_2_and_7(seed in proptest::any::<u64>()) {
        let algo = a4();
        let mut obj = Objective::new(&algo, &algo, vec![1], 0..4, 64).unwrap();
        obj.attach_sliced();
        let space = MoveSpace { raw_values: 5, salts: 2, max_lag: 2 };
        let mut cfg = SearchConfig::new(3, space, seed);
        cfg.budget = 24;
        type Strategy<'a> =
            fn(&Objective<'a, Algorithm, &'a Algorithm>, &SearchConfig) -> SearchReport;
        let strategies: [(&str, Strategy<'_>); 3] = [
            ("random_search", random_search),
            ("hill_climb", hill_climb),
            ("anneal", anneal),
        ];
        for (name, strategy) in strategies {
            cfg.threads = 1;
            cfg.target = None;
            let whole = strategy(&obj, &cfg);
            // Reached by the very first evaluation of task 0; by whichever
            // task found the un-targeted best; by no task at all.
            let never = Delay { worst: u64::MAX, ..whole.delay };
            for target in [Delay::default(), whole.delay, never] {
                cfg.target = Some(target);
                cfg.threads = 1;
                let one = strategy(&obj, &cfg);
                for threads in [2, 7] {
                    cfg.threads = threads;
                    let many = strategy(&obj, &cfg);
                    prop_assert_eq!(&one.best, &many.best, "{} cap {}", name, threads);
                    prop_assert_eq!(one.delay, many.delay, "{} cap {}", name, threads);
                    prop_assert_eq!(one.evaluations, many.evaluations, "{} cap {}", name, threads);
                    prop_assert_eq!(one.sweeps, many.sweeps, "{} cap {}", name, threads);
                }
            }
        }
    }
}

/// One full pre-filtered sweep of the n = 4 symmetric family per thread
/// cap, all folded to the same checkpoint and the same audit counters.
#[test]
fn prefiltered_sweep_checkpoints_are_identical_at_caps_1_2_and_7() {
    let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
    let total = family.len().unwrap();
    let sweep = |pool_workers: usize, threads: usize| {
        let pool = sc_exec::Pool::new(pool_workers);
        let mut filter = AttackPreFilter::new(4, 3, 24, 7);
        let mut analyzer = Analyzer::new();
        analyzer.dedup_fault_sets(true);
        let mut checkpoint = SweepCheckpoint::new();
        let outcome = sweep_family_on(
            &pool,
            threads,
            &family,
            &mut filter,
            &mut analyzer,
            &mut checkpoint,
            u64::MAX,
        )
        .unwrap();
        assert!(outcome.complete);
        (
            checkpoint,
            (filter.screened(), filter.rejected(), filter.evaluations()),
        )
    };
    let (serial, serial_audit) = sweep(0, 1);
    assert_eq!(serial.ledger.screened, total);
    assert_eq!(
        serial.ledger.screened,
        serial.ledger.filtered + serial.ledger.survivors
    );
    assert_eq!(serial.ledger.verified, serial.ledger.survivors);
    for (workers, threads) in [(1, 2), (6, 7)] {
        let (parallel, audit) = sweep(workers, threads);
        assert_eq!(parallel, serial, "sweep at cap {threads} diverges");
        assert_eq!(audit, serial_audit, "audit counters at cap {threads}");
    }
}

/// A budgeted 7-thread sweep resumed through the checkpoint codec in
/// uneven chunks must land on the serial one-shot checkpoint exactly —
/// mid-chunk resume points are part of the determinism contract.
#[test]
fn budgeted_parallel_sweep_resumes_mid_chunk_to_the_serial_checkpoint() {
    let family = SymmetricFamily::new(4, 1, 2, 2).unwrap();
    let one_shot = {
        let pool = sc_exec::Pool::new(0);
        let mut filter = AttackPreFilter::new(4, 3, 24, 7);
        let mut analyzer = Analyzer::new();
        let mut checkpoint = SweepCheckpoint::new();
        sweep_family_on(
            &pool,
            1,
            &family,
            &mut filter,
            &mut analyzer,
            &mut checkpoint,
            u64::MAX,
        )
        .unwrap();
        checkpoint
    };
    let pool = sc_exec::Pool::new(6);
    let mut filter = AttackPreFilter::new(4, 3, 24, 7);
    let mut analyzer = Analyzer::new();
    let mut resumed = SweepCheckpoint::new();
    loop {
        let outcome = sweep_family_on(
            &pool,
            7,
            &family,
            &mut filter,
            &mut analyzer,
            &mut resumed,
            7,
        )
        .unwrap();
        // Round-trip the checkpoint, as a killed campaign would.
        let mut bits = sc_protocol::BitVec::new();
        resumed.encode(&mut bits);
        resumed = SweepCheckpoint::decode(&mut bits.reader()).unwrap();
        if outcome.complete {
            break;
        }
    }
    assert_eq!(resumed, one_shot);
    // The forked filters screened every candidate exactly once.
    assert_eq!(filter.screened(), family.len().unwrap());
}
