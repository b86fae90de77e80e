//! The search fan-out submits its restarts to the persistent `sc-exec`
//! pool whenever the thread cap allows more than one executor — also for a
//! scalar (un-sliced) objective, and also when this crate is built on its
//! own. Its own test binary, so no other test submits to the global pool
//! between the two `stats()` reads.

use sc_attack::search::random_search;
use sc_attack::{MoveSpace, Objective, SearchConfig};
use sc_core::CounterBuilder;

#[test]
fn random_search_with_two_threads_submits_to_the_pool() {
    let algo = CounterBuilder::corollary1(1, 8).unwrap().build().unwrap();
    let obj = Objective::new(&algo, &algo, vec![1], 0..4, 64).unwrap();
    let space = MoveSpace {
        raw_values: 5,
        salts: 2,
        max_lag: 2,
    };
    let mut cfg = SearchConfig::new(3, space, 7);
    cfg.budget = 4;
    cfg.restarts = 2;
    cfg.threads = 2;

    let before = sc_exec::pool().stats().batches;
    let pooled = random_search(&obj, &cfg);
    let after = sc_exec::pool().stats().batches;
    assert!(
        after > before,
        "a 2-thread, 2-restart search ran without submitting a pool batch"
    );

    cfg.threads = 1;
    let inline = random_search(&obj, &cfg);
    assert_eq!(pooled.best, inline.best);
    assert_eq!(pooled.delay, inline.delay);
    assert_eq!(pooled.evaluations, inline.evaluations);
}
