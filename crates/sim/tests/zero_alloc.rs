//! The scalar round allocates nothing.
//!
//! A counter state is one machine word, the round preparation is refilled
//! in place, and adversary leases and fabricated states live in buffers
//! that are only ever cleared — so once an execution has warmed up, a round
//! of the engine must not touch the allocator at all. This binary installs
//! a counting allocator to hold the engine to that, on the paper's
//! Figure-2 stack under every adversary of the `sweep-stabilise` workload
//! and every face kind of the oblivious strategies (packed, ring, gather).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterBuilder, CounterState};
use sc_protocol::{NodeId, SyncProtocol};
use sc_sim::{adversaries, random_periodic, two_faced_periodic, Adversary, Simulation};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// the test harness's own threads do not show up in a measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter bump in a
// const-initialised, destructor-free thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is passed through as the caller gave it.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 64;
const MEASURED: u64 = 256;

/// Allocations made by [`MEASURED`] rounds that follow [`WARM_UP`] rounds,
/// on the prepared path or the plain one.
fn allocations_in_steady_state<A: Adversary<CounterState>>(
    algo: &Algorithm,
    adversary: A,
    prepared: bool,
) -> u64 {
    let mut sim = Simulation::new(algo, adversary, 7);
    let mut run = |rounds: u64| {
        for _ in 0..rounds {
            if prepared {
                sim.step_prepared();
            } else {
                sim.step();
            }
        }
    };
    run(WARM_UP);
    let before = ALLOCATIONS.with(Cell::get);
    run(MEASURED);
    let after = ALLOCATIONS.with(Cell::get);
    // The rounds ran, and the counter is live.
    assert_eq!(sim.round(), WARM_UP + MEASURED);
    assert!(before > 0, "the counting allocator is not installed");
    after - before
}

/// Holds none / crash / random / two-faced, and the face kinds of fixed
/// and random-periodic (packed), replay (ring) and two-faced-periodic
/// (gather), on `faulty` to zero allocations.
fn assert_no_allocation(label: &str, algo: &Algorithm, faulty: &[usize], prepared: bool) {
    let faulty = || faulty.iter().copied();
    let state = algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(14));
    let measured = [
        (
            "none",
            allocations_in_steady_state(algo, adversaries::none(), prepared),
        ),
        (
            "crash",
            allocations_in_steady_state(algo, adversaries::crash(algo, faulty(), 11), prepared),
        ),
        (
            "random",
            allocations_in_steady_state(algo, adversaries::random(algo, faulty(), 12), prepared),
        ),
        (
            "two-faced",
            allocations_in_steady_state(algo, adversaries::two_faced(algo, faulty(), 13), prepared),
        ),
        (
            "fixed",
            allocations_in_steady_state(algo, adversaries::fixed(faulty(), state), prepared),
        ),
        (
            "replay",
            allocations_in_steady_state(algo, adversaries::replay(faulty(), 3), prepared),
        ),
        (
            "two-faced-periodic",
            allocations_in_steady_state(algo, two_faced_periodic(faulty(), 15, 4), prepared),
        ),
        (
            "random-periodic",
            allocations_in_steady_state(algo, random_periodic(algo, faulty(), 16, 4), prepared),
        ),
    ];
    for (adversary, allocations) in measured {
        assert_eq!(
            allocations, 0,
            "{label} under {adversary}: {MEASURED} rounds allocated"
        );
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let a4 = CounterBuilder::corollary1(1, 2).unwrap();
    let a36 = a4.clone().boost(3).unwrap().boost(3).unwrap();
    // The Figure-2 fault set: five nodes of block 0, one in each other block.
    let figure2 = [0, 1, 2, 3, 4, 12, 24];
    assert_no_allocation(
        "A(36,7) step_prepared",
        &a36.build().unwrap(),
        &figure2,
        true,
    );
    assert_no_allocation("A(4,1) step", &a4.build().unwrap(), &[1], false);
}
