//! A warm runtime round allocates nothing.
//!
//! A node keeps its round preparation, codec scratch, inbox, donor list
//! and donor ring for the whole run, so once the ring has filled, none of
//! the per-round node operations may touch the allocator: honest,
//! equivocating and scripted publishes, and the read + step. Neither may
//! the node's trace seams, whether its `NodeTrace` is detached or
//! recording into a ring. This binary installs a counting allocator to
//! hold the node to that, on A(4,1) and A(12,3).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::{MoveSpace, Script};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::{Counter, SyncProtocol};
use sc_runtime::obs::FlightConfig;
use sc_runtime::{
    initial_states, FaultEntry, FaultKind, MailboxPlane, NodeCore, NodeTrace, OutputBoard,
    RuntimeObs,
};

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

/// Allocations made by `op`.
fn allocations(op: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    op();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs [`WARM_UP`] + [`MEASURED`] rounds of a network in which node
/// `scripted` replays a script with echo, stale and raw moves, node
/// `equivocator` publishes two faces and every other node is honest, and
/// holds every per-round node operation of the measured rounds, and every
/// trace seam call on `obs`'s node tracers, to zero allocations.
fn assert_warm_rounds_allocate_nothing(label: &str, algo: &Algorithm, obs: &RuntimeObs) {
    let n = algo.n();
    let (scripted, equivocator) = (1, 2);
    let space = MoveSpace {
        raw_values: 2,
        salts: 3,
        max_lag: 2,
    };
    let mut rng = SmallRng::seed_from_u64(99);
    let script = Script::random(n, vec![scripted], 6, 2, &space, &mut rng);
    assert!(script.max_lag() > 0, "the donor ring is exercised");
    let plane = MailboxPlane::new(n, algo.state_bits());
    let board = OutputBoard::new(n);
    let mut cores: Vec<NodeCore<'_, Algorithm>> = initial_states(algo, 5)
        .into_iter()
        .enumerate()
        .map(|(id, state)| {
            let fault = (id == scripted).then(|| FaultEntry {
                node: id,
                from_round: 0,
                until_round: None,
                kind: FaultKind::Scripted(script.clone()),
            });
            NodeCore::new(algo, id, state, 5, fault)
        })
        .collect();
    // The tracers' timestamp closures read the round: a clock is not
    // what is measured here.
    let mut tracers: Vec<NodeTrace> = (0..n).map(|id| obs.node_tracer(id)).collect();

    // Per operation: allocations over the measured rounds.
    let mut ledger = [
        ("publish_honest", 0),
        ("publish_equivocate", 0),
        ("observe_for_script + publish_scripted", 0),
        ("read_and_step", 0),
        ("trace seams", 0),
    ];
    for round in 0..WARM_UP + MEASURED {
        let mut spent = [0; 5];
        for (id, (core, tracer)) in cores.iter_mut().zip(&mut tracers).enumerate() {
            spent[4] += allocations(|| tracer.round_open(|| round, round));
            if id == equivocator {
                spent[1] += allocations(|| core.publish_equivocate(&plane, round));
                spent[4] += allocations(|| tracer.fault_active(|| round, round, 3));
            } else if id != scripted {
                spent[0] += allocations(|| core.publish_honest(&plane, &board, round));
                spent[4] += allocations(|| tracer.publish(|| round, round, || core.output()));
            }
        }
        spent[2] += allocations(|| {
            cores[scripted].observe_for_script(&plane, round);
            cores[scripted].publish_scripted(&plane, round);
        });
        spent[4] += allocations(|| {
            tracers[scripted].fault_active(|| round, round, 4);
            // No node here is delayed; the late-publish seam is driven on
            // the scripted node's tracer so every seam is measured.
            tracers[scripted].publish_late(|| round, round, 1);
        });
        for (core, tracer) in cores.iter_mut().zip(&mut tracers) {
            spent[3] += allocations(|| core.read_and_step(&plane, round));
            spent[4] += allocations(|| tracer.read_step(|| round, round, core.missed()));
        }
        if round >= WARM_UP {
            for ((_, total), spent) in ledger.iter_mut().zip(spent) {
                *total += spent;
            }
        }
    }
    // The rounds ran: the honest nodes heard every sender every round.
    assert_eq!(
        cores[0].missed(),
        0,
        "{label}: honest node 0 missed messages"
    );
    for (op, total) in ledger {
        assert_eq!(
            total, 0,
            "{label}: {MEASURED} warm rounds of {op} allocated"
        );
    }
}

#[test]
fn the_counting_allocator_is_installed() {
    assert!(allocations(|| drop(std::hint::black_box(vec![0u8; 8]))) > 0);
}

/// A(4,1) and A(12,3).
fn figure2_lower_levels() -> [(&'static str, Algorithm); 2] {
    let a4 = CounterBuilder::corollary1(1, 2).expect("A(4,1) parameters are valid");
    let a12 = a4.clone().boost(3).expect("A(12,3) parameters are valid");
    [
        ("A(4,1)", a4.build().expect("A(4,1) builds")),
        ("A(12,3)", a12.build().expect("A(12,3) builds")),
    ]
}

#[test]
fn warm_node_rounds_do_not_allocate() {
    let detached = RuntimeObs::default();
    for (label, algo) in figure2_lower_levels() {
        assert_warm_rounds_allocate_nothing(label, &algo, &detached);
    }
}

#[test]
fn warm_recording_trace_seams_do_not_allocate() {
    for (label, algo) in figure2_lower_levels() {
        let recording = RuntimeObs::recording(FlightConfig::default());
        assert_warm_rounds_allocate_nothing(label, &algo, &recording);
        let collector = recording.collector().expect("recording bundle");
        assert!(
            collector.total_pushed() > 0,
            "{label}: the recording tracers must have pushed events"
        );
    }
}
