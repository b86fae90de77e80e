//! Thread-count invariance of the pool-backed `Batch` fan-out: reports
//! must be bitwise identical whatever the thread cap (`SC_THREADS` only
//! picks the default cap — every task is a pure function of its scenario
//! index, and results are folded in submission order). Property-tested
//! over random sweeps at the caps the executor treats differently: 1
//! (serial path), 2 (submitter plus one claimer), and 7 (more claimants
//! than most sweeps have scenarios). The sliced twin lives in
//! `sc-attack`'s `thread_invariance` suite, next to a public
//! `SlicedProtocol` instance.

use proptest::prelude::*;
use sc_sim::testing::FollowMax;
use sc_sim::{adversaries, Batch, Scenario};

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn batch_reports_are_identical_at_caps_1_2_and_7(
        n in 3usize..6,
        c in 2u64..9,
        base_seed in proptest::any::<u32>(),
        scenarios in 1usize..24,
    ) {
        let p = FollowMax { n, c };
        let faulty = n - 1;
        let seeds = (base_seed as u64)..(base_seed as u64 + scenarios as u64);
        let scenarios = Scenario::seeds(seeds);
        let factory = |s: &Scenario<u64>| adversaries::crash(&p, [faulty], s.seed);
        let one = Batch::new(&p, 600).threads(1).run(&scenarios, factory);
        for threads in [2, 7] {
            let many = Batch::new(&p, 600)
                .threads(threads)
                .run(&scenarios, factory);
            prop_assert_eq!(&one.outcomes, &many.outcomes, "cap {}", threads);
        }
    }
}
