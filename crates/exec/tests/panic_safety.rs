//! Panic-safety regression suite for the executor: a panicking `map`
//! must not poison the pool, later submissions, or per-worker
//! [`WorkerScratch`] state. The scenario that motivated these tests is a
//! worker task that panics halfway through mutating its scratch slot —
//! without unwind discarding, the *next* batch folded against the
//! half-mutated leftovers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sc_exec::{Pool, WorkerScratch};

#[test]
fn panicking_map_does_not_poison_the_next_fold() {
    // Per-worker accumulators that the panicking task corrupts mid-way:
    // it pushes a poison marker *then* panics, so a slot returned to the
    // table despite the unwind would contaminate the next batch's fold.
    let scratch: WorkerScratch<Vec<u64>> = WorkerScratch::new();
    let pool = Pool::new(3);

    let attempt = catch_unwind(AssertUnwindSafe(|| {
        pool.map(32, 4, |i| {
            scratch.with(Vec::new, |acc| {
                if i == 13 {
                    acc.push(u64::MAX); // half-done mutation…
                    panic!("task 13 exploded mid-mutation");
                }
                acc.push(i as u64);
            });
            i
        })
    }));
    assert!(attempt.is_err(), "the panic must re-raise on the submitter");

    // Whatever survived in the table must be clean: the panicking
    // thread's slot was dropped on unwind, not returned.
    for slot in scratch.take_all() {
        assert!(
            !slot.contains(&u64::MAX),
            "a half-mutated scratch slot leaked past the panic: {slot:?}"
        );
    }

    // The next submission folds correctly from fresh scratch.
    let got = pool.map(16, 4, |i| {
        scratch.with(Vec::new, |acc| acc.push(i as u64));
        i * 2
    });
    assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    let mut folded: Vec<u64> = scratch.take_all().into_iter().flatten().collect();
    folded.sort_unstable();
    assert_eq!(folded, (0..16).collect::<Vec<u64>>());
}

#[test]
fn batch_aborts_eagerly_after_a_panic() {
    // Once a task panics, indices claimed afterwards are drained without
    // executing. Event-driven, not timed: every honest task holds its
    // claimant until the pool has counted the panic, and seeing that
    // count (Acquire) implies seeing the abort flag, so each claimant's
    // next claim is drained.
    const CLAIMANTS: usize = 2; // the submitter plus one pool worker
    let pool = Pool::new(2);
    let executed = AtomicUsize::new(0);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        pool.map(64, CLAIMANTS, |i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                panic!("first task fails");
            }
            // Safety timeout only: index 0 is the first claim of the
            // batch, so the panic is already under way.
            let deadline = Instant::now() + Duration::from_secs(5);
            while pool.stats().panicked == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            i
        })
    }));
    assert!(attempt.is_err());
    assert_eq!(pool.stats().panicked, 1);
    // Index 0 (its claimant sets the flag itself, so it runs nothing
    // more), plus at most the one claim each other claimant had in flight
    // before it saw the panic; every later claim is drained.
    let ran = executed.load(Ordering::Relaxed);
    assert!(
        ran <= 1 + (CLAIMANTS - 1),
        "abort flag must stop the batch after the in-flight claims, ran {ran}"
    );

    // The pool itself survives and serves the next batch in full.
    assert_eq!(pool.map(8, 4, |i| i + 1), (1..=8).collect::<Vec<_>>());
}

#[test]
fn serial_map_skips_everything_after_the_panicking_index() {
    // cap = 1 executes on the submitting thread in index order, so the
    // abort semantics are exact: the panic propagates immediately and
    // no later index runs.
    let pool = Pool::new(2);
    let executed = AtomicUsize::new(0);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        pool.map(16, 1, |i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                panic!("index 3 fails serially");
            }
            i
        })
    }));
    assert!(attempt.is_err());
    assert_eq!(
        executed.load(Ordering::Relaxed),
        4,
        "serial execution stops at the panicking index"
    );
    assert_eq!(pool.map(4, 4, |i| i), vec![0, 1, 2, 3]);
}

#[test]
fn repeated_panics_never_wedge_the_pool() {
    // A pool that leaks a ticket, a slot, or a poisoned mutex on panic
    // eventually deadlocks under repetition. Hammer it.
    let pool = Pool::new(2);
    for round in 0..50 {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.map(8, 4, move |i| {
                if i == round % 8 {
                    panic!("round {round} fails at {i}");
                }
                i
            })
        }));
        assert!(attempt.is_err(), "round {round} must re-raise");
        let ok = pool.map(4, 4, |i| i * 10);
        assert_eq!(ok, vec![0, 10, 20, 30], "round {round} aftermath");
    }
}
