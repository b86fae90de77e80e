//! Driver conformance: the three exit-taking drivers are one run loop.
//!
//! `Batch::run`, `Batch::run_prepared` and
//! `Simulation::run_until_stable_early` share the simulation's run loop,
//! which stops at the first sound exit (Lemma 5's closure, or a recurrence
//! of the joint configuration). Over generated protocols, adversaries,
//! fault sets, seeds, horizons (too short ones included) and thread caps,
//! the three must agree on `(result, exit_reason, fabricated_states)`;
//! every result must equal the oracle `Simulation::run_until_stable`, and
//! every ledger but a cycle exit's must equal the full horizon's, which the
//! oracle's own simulation holds after stepping every round.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_core::{Algorithm, CounterBuilder, CounterState};
use sc_protocol::{Counter, NodeId, PreparedProtocol, SyncProtocol};
use sc_sim::testing::FollowMax;
use sc_sim::{
    adversaries, random_periodic, required_confirmation, sleeper, two_faced_periodic, Adversary,
    Batch, ExitReason, Scenario, SimError, Simulation,
};

/// The adversaries generated, by index.
const ADVERSARIES: [&str; 11] = [
    "none",
    "crash",
    "fixed",
    "replay-1",
    "replay-2",
    "replay-3",
    "two-faced-periodic",
    "random-periodic",
    "random",
    "two-faced",
    "sleeper",
];

/// One generated case, protocol aside.
#[derive(Clone, Debug)]
struct Case {
    adversary: usize,
    faulty: Vec<usize>,
    seed: u64,
    horizon: u64,
    threads: usize,
}

/// Adversary `case.adversary` over `case.faulty`, a fresh one per call.
fn adversary<'p, P>(p: &'p P, case: &Case, seed: u64) -> Box<dyn Adversary<P::State> + 'p>
where
    P: Counter,
    P::State: 'static,
{
    let f = || case.faulty.iter().copied();
    match case.adversary {
        0 => Box::new(adversaries::none()),
        1 => Box::new(adversaries::crash(p, f(), seed)),
        2 => {
            let state = p.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(seed));
            Box::new(adversaries::fixed(f(), state))
        }
        3..=5 => Box::new(adversaries::replay::<P::State>(f(), case.adversary - 2)),
        6 => Box::new(two_faced_periodic(f(), seed, 3)),
        7 => Box::new(random_periodic(p, f(), seed, 3)),
        8 => Box::new(adversaries::random(p, f(), seed)),
        9 => Box::new(adversaries::two_faced(p, f(), seed)),
        _ => Box::new(sleeper(
            p,
            f(),
            case.horizon / 3,
            adversaries::crash(p, f(), seed),
            seed,
        )),
    }
}

/// Runs `case` through the three drivers and the oracle and checks every
/// agreement the module promises.
fn check<P>(label: &str, p: &P, case: &Case)
where
    P: Counter + PreparedProtocol + Sync,
    P::State: Send + Sync + 'static,
{
    let label = format!("{label} {} {case:?}", ADVERSARIES[case.adversary]);
    let horizon = case.horizon;
    let make = |s: &Scenario<P::State>| adversary(p, case, s.seed);
    let scenarios = [Scenario::seeded(case.seed)];

    let mut oracle = Simulation::new(p, make(&scenarios[0]), case.seed);
    let expect = oracle.run_until_stable(horizon);
    let mut sim = Simulation::new(p, make(&scenarios[0]), case.seed);
    let (result, exit) = sim.run_until_stable_early(horizon);
    let single = (result, exit, sim.fabricated_states());

    let batch = Batch::new(p, horizon).threads(case.threads);
    for (path, report) in [
        ("run", batch.run(&scenarios, make)),
        ("run_prepared", batch.run_prepared(&scenarios, make)),
    ] {
        let o = &report.outcomes[0];
        let got = (o.result.clone(), o.exit_reason, o.fabricated_states);
        assert_eq!(got, single, "{label}: {path} vs run_until_stable_early");
    }

    let (result, exit, fabricated) = single;
    assert_eq!(result, expect, "{label}: verdict vs the oracle");
    let too_short = matches!(expect, Err(SimError::HorizonTooShort { .. }));
    let executed = match exit {
        ExitReason::Cycle { decided_at, .. } | ExitReason::Closed { decided_at } => decided_at,
        ExitReason::FullHorizon | ExitReason::Opaque if too_short => 0,
        ExitReason::FullHorizon | ExitReason::Opaque => horizon,
    };
    assert_eq!(sim.round(), executed, "{label}: rounds executed");
    let full_ledger = oracle.fabricated_states();
    if matches!(exit, ExitReason::Cycle { .. }) {
        assert!(fabricated <= full_ledger, "{label}: cycle ledger");
    } else {
        assert_eq!(
            fabricated, full_ledger,
            "{label}: ledger vs the full horizon"
        );
    }
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

/// The generated fault set: a subset of the `n` nodes of at most
/// `max(f, 1)` members (FollowMax is 0-resilient; one fault lets the
/// adversaries break it, so failing verdicts are generated too).
fn fault_set(n: usize, f: usize, bits: u64) -> Vec<usize> {
    let size = (bits % (f.max(1) as u64 + 1)) as usize;
    let mut nodes: Vec<usize> = (0..n).collect();
    let mut draw = bits >> 8;
    let mut faulty = Vec::with_capacity(size);
    for _ in 0..size {
        faulty.push(nodes.swap_remove((draw % nodes.len() as u64) as usize));
        draw /= n as u64;
    }
    faulty.sort_unstable();
    faulty
}

/// The generated horizon: below the confirmation suffix, or between it and
/// `longest`.
fn horizon(confirm: u64, longest: u64, short: bool, pick: u64) -> u64 {
    if short {
        pick % confirm
    } else {
        confirm + pick % (longest - confirm + 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn drivers_agree_with_each_other_and_the_oracle(
        protocol in 0usize..3,
        adversary in 0usize..11,
        fault_bits in any::<u64>(),
        seed in any::<u32>(),
        short in prop_oneof![1 => Just(true), 5 => Just(false)],
        pick in any::<u64>(),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(7usize)],
    ) {
        let seed = u64::from(seed);
        match protocol {
            0 => {
                let p = FollowMax { n: 5, c: 8 };
                let confirm = required_confirmation(p.c);
                let case = Case {
                    adversary,
                    faulty: fault_set(p.n, p.resilience(), fault_bits),
                    seed,
                    horizon: horizon(confirm, 160, short, pick),
                    threads,
                };
                check("FollowMax{5,8}", &p, &case);
            }
            k => {
                let algo = if k == 1 { a4() } else { a12() };
                let confirm = required_confirmation(algo.modulus());
                let longest = if k == 1 { 3 * 2304 } else { 400 };
                let case = Case {
                    adversary,
                    faulty: fault_set(algo.n(), algo.resilience(), fault_bits),
                    seed,
                    horizon: horizon(confirm, longest, short, pick),
                    threads,
                };
                check(if k == 1 { "A(4,1)" } else { "A(12,3)" }, &algo, &case);
            }
        }
    }
}

/// The `sweep-stabilise` crash shape — A(36,7), the Figure-2 fault set,
/// `stabilization_bound() + 64` rounds — closes through the single-scenario
/// driver exactly as through `Batch::run_prepared`, instead of hashing a
/// configuration every round of the full horizon.
#[test]
fn sweep_stabilise_crash_closes_through_run_until_stable_early() {
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let faulty = [0usize, 1, 2, 3, 4, 12, 24];
    let horizon = algo.stabilization_bound() + 64;
    let seeds = if cfg!(debug_assertions) { 0..1 } else { 0..2 };
    let make = |s: &Scenario<CounterState>| adversaries::crash(&algo, faulty, s.seed);
    for seed in seeds {
        let scenario = Scenario::seeded(seed);
        let mut sim = Simulation::new(&algo, make(&scenario), seed);
        let (result, exit) = sim.run_until_stable_early(horizon);
        assert!(
            matches!(exit, ExitReason::Closed { .. }),
            "seed {seed}: {exit:?}"
        );
        let batch = Batch::new(&algo, horizon).threads(1);
        let outcome = &batch.run_prepared(&[scenario], make).outcomes[0];
        assert_eq!(outcome.result, result, "seed {seed}: verdict");
        assert_eq!(outcome.exit_reason, exit, "seed {seed}: exit");
        assert_eq!(
            outcome.fabricated_states,
            sim.fabricated_states(),
            "seed {seed}: ledger"
        );
    }
}
