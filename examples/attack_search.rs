//! Adversary-search workbench: hunt for stabilisation-delaying attacks on
//! A(4,1) and compare them against the built-in strategy library.
//!
//! ```sh
//! cargo run --release --example attack_search -- [budget] [horizon] [seed]
//! ```
//!
//! The search treats adversaries as data ([`Script`]s of per-(round,
//! sender, receiver) moves), scores them by the stabilisation delay they
//! inflict on a fixed seed sweep, and climbs the equivocation space with
//! in-place script edits. The printed table shows every built-in strategy's
//! delay on the same sweep next to the best found script — the measured
//! lower bound on the protocol's worst case.

use synchronous_counting::attack::{search, MoveSpace, Objective, SampledRaw, SearchConfig};
use synchronous_counting::core::CounterBuilder;
use synchronous_counting::protocol::{BitVec, Counter};
use synchronous_counting::sim::{adversaries, sleeper, Adversary};

fn main() {
    let mut args = std::env::args().skip(1);
    let budget: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(512);
    let horizon: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(96);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);

    let algo = CounterBuilder::corollary1(1, 2)
        .expect("Corollary 1 parameters are valid")
        .build()
        .expect("A(4,1) builds");
    let faulty = vec![1usize];
    let seeds = 0..8u64;
    println!(
        "A(4,1): n = 4, f = 1, proven bound T(A) = {} rounds; sweep = {} seeds x {} rounds, faulty {:?}\n",
        algo.stabilization_bound(),
        seeds.end,
        horizon,
        faulty
    );

    let mut objective = Objective::new(&algo, SampledRaw(&algo), faulty.clone(), seeds, horizon)
        .expect("horizon fits the confirmation suffix");

    println!(
        "| {:<16} | {:>10} | {:>8} | {:>12} |",
        "strategy", "worst", "unstable", "total delay"
    );
    println!(
        "|{}|{}|{}|{}|",
        "-".repeat(18),
        "-".repeat(12),
        "-".repeat(10),
        "-".repeat(14)
    );
    let mut best_builtin = synchronous_counting::attack::Delay::default();
    let builtins: Vec<(&str, synchronous_counting::attack::Delay)> = vec![
        (
            "crash",
            objective.measure(|seed| {
                Box::new(adversaries::crash(&algo, faulty.iter().copied(), seed))
                    as Box<dyn Adversary<_>>
            }),
        ),
        (
            "random",
            objective.measure(|seed| {
                Box::new(adversaries::random(&algo, faulty.iter().copied(), seed))
                    as Box<dyn Adversary<_>>
            }),
        ),
        (
            "two-faced",
            objective.measure(|seed| {
                Box::new(adversaries::two_faced(&algo, faulty.iter().copied(), seed))
                    as Box<dyn Adversary<_>>
            }),
        ),
        (
            "replay",
            objective.measure(|_| {
                Box::new(adversaries::replay(faulty.iter().copied(), 3)) as Box<dyn Adversary<_>>
            }),
        ),
        (
            "sleeper+crash",
            objective.measure(|seed| {
                Box::new(sleeper(
                    &algo,
                    faulty.iter().copied(),
                    32,
                    adversaries::crash(&algo, faulty.iter().copied(), seed),
                    seed,
                )) as Box<dyn Adversary<_>>
            }),
        ),
    ];
    for (name, delay) in &builtins {
        println!(
            "| {:<16} | {:>10} | {:>8} | {:>12} |",
            name, delay.worst, delay.unstable, delay.total
        );
        best_builtin = best_builtin.max(*delay);
    }

    let mut cfg = SearchConfig::new(
        4,
        MoveSpace {
            raw_values: 8,
            salts: 3,
            max_lag: 3,
        },
        seed,
    );
    cfg.budget = budget;
    let start = std::time::Instant::now();
    let report = search::search(&objective, &cfg);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "| {:<16} | {:>10} | {:>8} | {:>12} |",
        "searched script", report.delay.worst, report.delay.unstable, report.delay.total
    );

    let mut bits = BitVec::new();
    report.best.encode(&mut bits);
    println!(
        "\nsearch: {} candidates scored ({} swept) in {:.2} s ({:.0} evals/s); best script = {} rounds, {} bits encoded",
        report.evaluations,
        report.sweeps,
        elapsed,
        report.evaluations as f64 / elapsed,
        report.best.len(),
        bits.len()
    );
    println!(
        "search vs best built-in: worst {} vs {} ({})",
        report.delay.worst,
        best_builtin.worst,
        if report.delay > best_builtin {
            "search wins"
        } else {
            "library wins — raise the budget"
        }
    );
}
