//! The oblivious strategies are face schedules on the scalar engine too.
//!
//! `crash`, `fixed`, `replay`, `two_faced_periodic`, `random_periodic`
//! and scripted attacks all run through [`FacedAdversary`], which plays one
//! lane of a [`SlicedStrategy`](synchronous_counting::sim::SlicedStrategy)
//! on the scalar engine. Each of them replaced a hand-written scalar
//! strategy. The constants below were recorded from those hand-written
//! strategies on the same scenarios, through every `Batch` entry point:
//!
//! * per-outcome `result`, `fabricated_states` and exit kind, folded into
//!   one digest per case. Scripted cases leave `fabricated_states` out:
//!   scripted `Raw` moves are now pinned once per execution instead of
//!   fabricated once per round;
//! * the `decided_at` round of every cycle exit. A scripted adapter's
//!   snapshot is coarser than the hand-written one: its ring folds the
//!   `max_lag` past broadcasts a later round can still read, where the
//!   hand-written strategy also folded the oldest, which none can. So a
//!   scripted cycle exit may decide earlier, never later (every recorded
//!   one decides 1–4 rounds earlier); every other exit decides at the
//!   recorded round.
//!
//! The fixed-horizon entry points now stop at Lemma 5's closure
//! ([`ExitReason::Closed`]) under the adapters that fabricate nothing. Its
//! verdict and ledger are the full-horizon ones by construction, so the
//! digest folds it as a full-horizon exit (kind 0) and the pins stay as
//! recorded; every closure exit is also replayed by hand at the full
//! horizon and must equal that replay.
//!
//! [`FacedAdversary`]: synchronous_counting::sim::FacedAdversary

use rand::rngs::SmallRng;
use rand::SeedableRng;
use synchronous_counting::attack::{self, MoveSpace, RawState, SampledRaw, Script};
use synchronous_counting::core::{Algorithm, CounterBuilder, CounterState};
use synchronous_counting::protocol::{Counter, Fingerprint, NodeId, SyncProtocol};
use synchronous_counting::sim::testing::FollowMax;
use synchronous_counting::sim::{
    adversaries, random_periodic, required_confirmation, two_faced_periodic, Adversary, Batch,
    BatchReport, ExitReason, OnlineDetector, Scenario, Simulation,
};

/// The strategies of one protocol, in pin order.
const STRATEGIES: [&str; 11] = [
    "crash",
    "fixed",
    "replay-1",
    "replay-2",
    "replay-3",
    "replay-4",
    "two-faced-periodic",
    "random-periodic",
    "scripted-0",
    "scripted-1",
    "scripted-2",
];

/// What one case pins: the digest of the full-horizon entry points, the
/// digest of the early-decision ones, and the recorded `decided_at` of
/// every cycle exit (in outcome order).
struct Pin {
    full: u64,
    early: u64,
    decided: &'static [u64],
}

/// FNV-1a over the debug rendering of each outcome's compared fields.
fn digest(report: &BatchReport, scripted: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in &report.outcomes {
        let kind = match o.exit_reason {
            ExitReason::FullHorizon | ExitReason::Closed { .. } => 0,
            ExitReason::Opaque => 1,
            ExitReason::Cycle { .. } => 2,
        };
        let fabricated = if scripted { 0 } else { o.fabricated_states };
        for byte in format!("{}|{:?}|{fabricated}|{kind};", o.seed, o.result).bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn decided(report: &BatchReport) -> Vec<u64> {
    report
        .outcomes
        .iter()
        .filter_map(|o| match o.exit_reason {
            ExitReason::Cycle { decided_at, .. } => Some(decided_at),
            _ => None,
        })
        .collect()
}

/// Checks one case against its pin.
fn check(label: &str, full: &BatchReport, early: &BatchReport, scripted: bool, pin: &Pin) {
    assert_eq!(
        digest(full, scripted),
        pin.full,
        "{label}: full-horizon outcomes"
    );
    assert_eq!(
        digest(early, scripted),
        pin.early,
        "{label}: early outcomes"
    );
    let got = decided(early);
    assert_eq!(got.len(), pin.decided.len(), "{label}: cycle exits");
    for (i, (&at, &recorded)) in got.iter().zip(pin.decided).enumerate() {
        assert!(
            at <= recorded,
            "{label}: cycle exit {i} decided at {at}, after the recorded {recorded}"
        );
        assert!(
            scripted || at == recorded,
            "{label}: cycle exit {i} decided at {at}, not the recorded {recorded}"
        );
    }
}

/// Replays every closure exit of `report` by hand at the full horizon —
/// `Simulation::step` and an `OnlineDetector`, no exit — and returns how
/// many there were. The exit records the rounds it skips, so its verdict
/// and fabrication ledger must equal the replay's.
fn check_closed_exits<P>(
    label: &str,
    p: &P,
    make: &Factory<'_, P::State>,
    scenarios: &[Scenario<P::State>],
    report: &BatchReport,
    horizon: u64,
) -> usize
where
    P: Counter,
{
    let mut closed = 0;
    for (scenario, outcome) in scenarios.iter().zip(&report.outcomes) {
        if !matches!(outcome.exit_reason, ExitReason::Closed { .. }) {
            continue;
        }
        closed += 1;
        let mut sim = Simulation::new(p, make(scenario), scenario.seed);
        let mut detector = OnlineDetector::new(p.modulus());
        detector.observe(sim.agreed_output_now());
        for _ in 0..horizon {
            sim.step();
            detector.observe(sim.agreed_output_now());
        }
        let seed = scenario.seed;
        assert_eq!(
            outcome.result,
            detector.finish(required_confirmation(p.modulus())),
            "{label} (seed {seed}): closure exit verdict"
        );
        assert_eq!(
            outcome.fabricated_states,
            sim.fabricated_states(),
            "{label} (seed {seed}): closure exit ledger"
        );
    }
    closed
}

/// Random scripts over all three move kinds, deterministic per index.
fn scripts(n: usize, faulty: &[usize]) -> Vec<Script> {
    let space = MoveSpace {
        raw_values: 4,
        salts: 3,
        max_lag: 3,
    };
    (0..3u64)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(0xface + i);
            let rounds = 1 + i as usize * 2;
            Script::random(n, faulty.to_vec(), rounds, i as usize, &space, &mut rng)
        })
        .collect()
}

/// A per-scenario adversary factory, as every `Batch` entry point takes.
type Factory<'a, S> = dyn Fn(&Scenario<S>) -> Box<dyn Adversary<S> + 'a> + Sync + 'a;

/// Strategy `k` of [`STRATEGIES`], a fresh adversary per scenario.
fn factory<'a, P, R>(
    p: &'a P,
    faulty: &'a [usize],
    fixed_state: &'a P::State,
    scripts: &'a [Script],
    raw: &'a R,
    k: usize,
) -> Box<Factory<'a, P::State>>
where
    P: SyncProtocol + Sync,
    P::State: Clone + std::fmt::Debug + Sync,
    R: RawState<P::State> + Sync,
{
    let f = move || faulty.iter().copied();
    match k {
        0 => Box::new(move |s| Box::new(adversaries::crash(p, f(), s.seed))),
        1 => Box::new(move |_| Box::new(adversaries::fixed(f(), fixed_state.clone()))),
        2..=5 => Box::new(move |_| Box::new(adversaries::replay::<P::State>(f(), k - 1))),
        6 => Box::new(move |s| Box::new(two_faced_periodic(f(), s.seed, 3))),
        7 => Box::new(move |s| Box::new(random_periodic(p, f(), s.seed, 3))),
        _ => {
            let script = &scripts[k - 8];
            Box::new(move |_| Box::new(attack::scripted(script, raw)))
        }
    }
}

/// The prepared entry points of a protocol that has them:
/// `Batch::{run_prepared, run_prepared_early}` under one factory.
type Prepared<'p, S> = dyn Fn(&Factory<'_, S>) -> Option<(BatchReport, BatchReport)> + 'p;

/// Every strategy on one protocol through `Batch::{run, run_early}`, and
/// through `prepared`'s entry points when the protocol has them — those
/// must agree with the plain paths outcome for outcome.
#[allow(clippy::too_many_arguments)]
fn sweep<P, R>(
    label: &str,
    p: &P,
    faulty: &[usize],
    fixed_state: P::State,
    raw: R,
    scenarios: &[Scenario<P::State>],
    horizon: u64,
    prepared: &Prepared<'_, P::State>,
    pins: &[Pin; 11],
) -> usize
where
    P: Counter + Fingerprint + Sync,
    P::State: Clone + std::fmt::Debug + Send + Sync,
    R: RawState<P::State> + Sync,
{
    let scripts = scripts(p.n(), faulty);
    let batch = Batch::new(p, horizon).threads(2);
    let mut closed = 0;
    for (k, name) in STRATEGIES.iter().enumerate() {
        let label = format!("{label} {name}");
        let make = factory(p, faulty, &fixed_state, &scripts, &raw, k);
        let full = batch.run(scenarios, |s| make(s));
        let early = batch.run_early(scenarios, |s| make(s));
        if let Some((full_prepared, early_prepared)) = prepared(&*make) {
            assert_eq!(
                full_prepared.outcomes, full.outcomes,
                "{label}: run_prepared"
            );
            assert_eq!(
                early_prepared.outcomes, early.outcomes,
                "{label}: run_prepared_early"
            );
        }
        check(&label, &full, &early, k >= 8, &pins[k]);
        closed += check_closed_exits(&label, p, &*make, scenarios, &full, horizon);
    }
    closed
}

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 2).unwrap().build().unwrap()
}

fn a12() -> Algorithm {
    CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap()
}

/// A state of `algo` for `fixed` to send, sampled once.
fn some_state(algo: &Algorithm) -> CounterState {
    algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(99))
}

/// All four `Batch` entry points of an [`Algorithm`].
fn algorithm_sweep(
    label: &str,
    algo: &Algorithm,
    faulty: &[usize],
    seeds: std::ops::Range<u64>,
    horizon: u64,
    pins: &[Pin; 11],
) -> usize {
    let scenarios = Scenario::seeds(seeds);
    let batch = Batch::new(algo, horizon).threads(2);
    let prepared = |make: &Factory<'_, CounterState>| {
        Some((
            batch.run_prepared(&scenarios, |s| make(s)),
            batch.run_prepared_early(&scenarios, |s| make(s)),
        ))
    };
    sweep(
        label,
        algo,
        faulty,
        some_state(algo),
        algo,
        &scenarios,
        horizon,
        &prepared,
        pins,
    )
}

#[test]
fn followmax_matches_the_recorded_strategies() {
    let p = FollowMax { n: 5, c: 8 };
    let scenarios = Scenario::seeds(0..16);
    sweep(
        "FollowMax",
        &p,
        &[2],
        6,
        SampledRaw(&p),
        &scenarios,
        64,
        &|_| None,
        &FOLLOWMAX,
    );
}

#[test]
fn followmax_two_faults_match_the_recorded_strategies() {
    // Two faulty senders share the replay ring, and replay's donors
    // {0, 2, 3, 5} leave correct node 6 out: this is the multi-sender ring
    // snapshot's cycle-exit gate (A(12,3) recorded no cycle exit at
    // horizons up to 4000).
    let p = FollowMax { n: 7, c: 8 };
    let scenarios = Scenario::seeds(0..16);
    sweep(
        "FollowMax two faults",
        &p,
        &[1, 4],
        6,
        SampledRaw(&p),
        &scenarios,
        96,
        &|_| None,
        &FOLLOWMAX_TWO_FAULTS,
    );
}

#[test]
fn a4_matches_the_recorded_strategies() {
    // Node 1 faulty: replay's donors {0, 3} are a strict subset of the
    // correct nodes, so a ring snapshot of every correct node would be
    // finer than the recorded one.
    let closed = algorithm_sweep("A(4,1)", &a4(), &[1], 0..6, 3 * 2304, &A4);
    assert!(closed > 0, "A(4,1): no closure exit to replay");
}

#[test]
fn a12_matches_the_recorded_strategies() {
    let closed = algorithm_sweep("A(12,3)", &a12(), &[0, 5, 10], 0..4, 160, &A12);
    assert!(closed > 0, "A(12,3): no closure exit to replay");
}

// Recorded from the hand-written strategies these adapters replaced.

/// FollowMax { n: 5, c: 8 }, node 2 faulty, seeds 0..16, horizon 64.
#[rustfmt::skip]
const FOLLOWMAX: [Pin; 11] = [
    /* crash */ Pin { full: 0xe15d3362ad26a2b7, early: 0x511dfc8f83ef19e7, decided: &[2, 6, 7, 8, 8, 3, 3, 4, 7, 6, 5, 9, 6, 2, 8, 8] },
    /* fixed */ Pin { full: 0x953d7a1f74eb583f, early: 0x8ab0738858cad037, decided: &[3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3] },
    /* replay-1 */ Pin { full: 0xf3cb2f886eeddf6d, early: 0xaebfbdee32b0db11, decided: &[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9] },
    /* replay-2 */ Pin { full: 0x9b4b3a6ede51fc42, early: 0x7b0521528f492b99, decided: &[13, 11, 13, 15, 11, 12, 15, 11, 13, 11, 11, 11, 11, 13, 11, 11] },
    /* replay-3 */ Pin { full: 0xc82d9621f2c81e24, early: 0x7ec2d82cb41ef00a, decided: &[18, 30, 17, 26, 15, 15, 20, 27, 21, 15, 15, 15, 15, 23, 20, 21] },
    /* replay-4 */ Pin { full: 0x936cd0fda7b5b402, early: 0xd720c20bbc55233c, decided: &[24, 52, 23, 47, 21, 28, 29, 36, 40, 21, 21, 33, 21, 31, 27, 28] },
    /* two-faced-periodic */ Pin { full: 0xf3cb2f886eeddf6d, early: 0xaebfbdee32b0db11, decided: &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25] },
    /* random-periodic */ Pin { full: 0x1bfad15b3caa7135, early: 0xc80a2f9647b4f1d5, decided: &[6, 5, 6, 4, 5, 4, 4, 7, 4, 7, 6, 5, 5, 11, 8, 5] },
    /* scripted-0 */ Pin { full: 0x2c3ccadec23ce0b7, early: 0xee699fced715a0d7, decided: &[18, 24, 17, 18, 15, 20, 18, 25, 17, 15, 15, 15, 15, 20, 19, 21] },
    /* scripted-1 */ Pin { full: 0xb3e82882afd06825, early: 0xbbfb7eded2e05c51, decided: &[11, 17, 15, 15, 17, 15, 11, 17, 7, 17, 17, 17, 17, 15, 17, 17] },
    /* scripted-2 */ Pin { full: 0xb3e82882afd06825, early: 0xbbfb7eded2e05c51, decided: &[17, 17, 17, 23, 23, 26, 17, 23, 17, 26, 26, 11, 26, 20, 17, 17] },
];

/// FollowMax { n: 7, c: 8 }, nodes 1 and 4 faulty, seeds 0..16, horizon 96.
#[rustfmt::skip]
const FOLLOWMAX_TWO_FAULTS: [Pin; 11] = [
    /* crash */ Pin { full: 0xce44924c54ac2c9d, early: 0x94f4dc50f2d0b741, decided: &[2, 4, 7, 5, 5, 3, 2, 4, 2, 6, 5, 4, 5, 2, 8, 7] },
    /* fixed */ Pin { full: 0x0a1d6ab1a53ad777, early: 0x61ebea1b8da10277, decided: &[3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3] },
    /* replay-1 */ Pin { full: 0x1dc8dffb9e87037d, early: 0x53abc913d81deb59, decided: &[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9] },
    /* replay-2 */ Pin { full: 0x90734c7a46c6ec62, early: 0x9fe5593de7601669, decided: &[13, 16, 11, 13, 11, 15, 11, 11, 11, 13, 11, 11, 11, 13, 12, 11] },
    /* replay-3 */ Pin { full: 0xf36c1a390c124a61, early: 0x3ddb957bfc844f1a, decided: &[22, 22, 21, 18, 15, 20, 21, 15, 15, 17, 15, 15, 21, 19, 16, 21] },
    /* replay-4 */ Pin { full: 0x2cdcbc8988b15de5, early: 0x65af0d5daee70eaf, decided: &[42, 29, 31, 25, 21, 29, 28, 33, 21, 23, 38, 26, 42, 42, 22, 28] },
    /* two-faced-periodic */ Pin { full: 0x1dc8dffb9e87037d, early: 0x53abc913d81deb59, decided: &[25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25] },
    /* random-periodic */ Pin { full: 0xead9f5f0d63087f3, early: 0x478e486232358a2b, decided: &[7, 7, 8, 4, 5, 4, 8, 5, 5, 6, 8, 5, 4, 4, 8, 8] },
    /* scripted-0 */ Pin { full: 0x7d859a08dcf28a89, early: 0xb0050d1930ed06d5, decided: &[16, 10, 15, 11, 12, 12, 9, 12, 15, 12, 9, 12, 15, 16, 12, 15] },
    /* scripted-1 */ Pin { full: 0x7d859a08dcf28a89, early: 0xb0050d1930ed06d5, decided: &[15, 17, 16, 23, 31, 27, 27, 31, 14, 15, 17, 23, 16, 15, 15, 16] },
    /* scripted-2 */ Pin { full: 0x7d859a08dcf28a89, early: 0xb0050d1930ed06d5, decided: &[29, 27, 35, 27, 28, 27, 24, 35, 28, 27, 35, 35, 31, 29, 27, 24] },
];

/// A(4,1), node 1 faulty, seeds 0..6, horizon 3 · 2304.
#[rustfmt::skip]
const A4: [Pin; 11] = [
    /* crash */ Pin { full: 0x6a367c2810146abf, early: 0x040e965d7a4717d7, decided: &[2305, 2314, 2305, 2307, 2306, 2307] },
    /* fixed */ Pin { full: 0x6a367c2810146abf, early: 0x040e965d7a4717d7, decided: &[2305, 2314, 2305, 2307, 2306, 2307] },
    /* replay-1 */ Pin { full: 0x90bd7a3587af9cb8, early: 0xc80bb203b33a16d8, decided: &[2305, 2306, 2306, 2307, 2306, 2307] },
    /* replay-2 */ Pin { full: 0x3684a633beff6fb7, early: 0x3bb8d9a3576eab13, decided: &[2306, 2306, 2307, 2308, 2307, 2308] },
    /* replay-3 */ Pin { full: 0x4bbba1a5d72e99b7, early: 0x3f2cf6ca53b4072a, decided: &[2307, 2307, 2308, 2309, 2308, 2312] },
    /* replay-4 */ Pin { full: 0x4bbba1a5d72e99b7, early: 0xb03944f771f9ef6a, decided: &[2308, 2308, 2309, 2310, 2309, 2313] },
    /* two-faced-periodic */ Pin { full: 0x8e0c31cce98b737c, early: 0x3e646fbf9e4c5a3c, decided: &[2305, 2308, 2306, 2307, 2306, 2310] },
    /* random-periodic */ Pin { full: 0x9456f935323dea08, early: 0x954b55c0d9be887c, decided: &[2305, 2314, 2305, 2307, 2306, 2310] },
    /* scripted-0 */ Pin { full: 0xfcf62310794ed907, early: 0x8827bf403af35f3f, decided: &[2309, 2311, 2309, 2311, 2313, 2314] },
    /* scripted-1 */ Pin { full: 0xb386fe9d6be04d30, early: 0x4ef42174f3a12c20, decided: &[2309, 2315, 2309, 2311, 2310, 2314] },
    /* scripted-2 */ Pin { full: 0xb9656b28a3e7e488, early: 0xdd7b97e8bfbe8c3c, decided: &[2309, 2323, 2309, 2313, 2310, 2311] },
];

/// A(12,3), nodes 0, 5 and 10 faulty, seeds 0..4, horizon 160.
#[rustfmt::skip]
const A12: [Pin; 11] = [
    /* crash */ Pin { full: 0xe94fa9e787a6d618, early: 0xe94fa9e787a6d618, decided: &[] },
    /* fixed */ Pin { full: 0x4c655ccece21472f, early: 0x4c655ccece21472f, decided: &[] },
    /* replay-1 */ Pin { full: 0xe81275f1eaaa029d, early: 0xe81275f1eaaa029d, decided: &[] },
    /* replay-2 */ Pin { full: 0x4674f93ab23860b7, early: 0x4674f93ab23860b7, decided: &[] },
    /* replay-3 */ Pin { full: 0x353e3b4f9d2faa24, early: 0x353e3b4f9d2faa24, decided: &[] },
    /* replay-4 */ Pin { full: 0xefbe097d11200992, early: 0xefbe097d11200992, decided: &[] },
    /* two-faced-periodic */ Pin { full: 0xf7055b7d2e4451dc, early: 0xf7055b7d2e4451dc, decided: &[] },
    /* random-periodic */ Pin { full: 0xd234fe8d70244dea, early: 0xd234fe8d70244dea, decided: &[] },
    /* scripted-0 */ Pin { full: 0x50c617cd4c1c63bb, early: 0x50c617cd4c1c63bb, decided: &[] },
    /* scripted-1 */ Pin { full: 0xbf8062dcd8d63d56, early: 0xbf8062dcd8d63d56, decided: &[] },
    /* scripted-2 */ Pin { full: 0xc8715c89af37952a, early: 0xc8715c89af37952a, decided: &[] },
];
