//! Engine throughput and early-decision sweeps on the Figure-2 recursion
//! stack `A(4,1) → A(12,3) → A(36,7)`.
//!
//! Three things are measured:
//!
//! * criterion micro-benches of a fixed sweep per level, on the looped
//!   single-run pipeline and the batched pipeline,
//! * a summary table of rounds/sec over a 64-scenario sweep per adversary
//!   regime — the batch's rate counts the rounds it executed before its
//!   closure or cycle exits — with the per-round speedup factor and the
//!   **state-materialisation ledger**, and
//! * the **early-decision table**: E1/E3-style long-horizon sweeps run
//!   full-horizon (the looped pipeline, every round executed) vs.
//!   [`Batch::run_prepared`], which stops at the first closure or cycle
//!   exit, with decided-at and rounds-saved columns per regime. Verdicts of the two
//!   modes are asserted **identical scenario for scenario** — running this
//!   bench (e.g. `THROUGHPUT_SUMMARY_ONLY=1` in CI) is the divergence gate,
//! * the **bit-sliced table**: objective evals/s, scalar vs sliced engine
//!   on identical scripts per Figure-2 level (per-script delay equality
//!   asserted; the A(36,7) row gates ≥ 20×), plus structured-move search
//!   vs plain hill-climbing on the sliced A(4,1) objective; the run
//!   appends its measurements to `BENCH_bitsliced.json`,
//! * the **synthesis table**: the game solver's orbit indexing vs its
//!   full-configuration indexing on an exchangeable `n = 4, f = 1` workload
//!   (bitwise-equal summaries asserted, ≥ 3× speedup gated), and the
//!   end-to-end `n = 5, f = 1` campaign — attack pre-filter + quotient
//!   verifier over the declared 64-candidate symmetric family, with the
//!   audit ledger; measurements append to `BENCH_synthesis.json`,
//! * the **parallel-scaling table**: the persistent `sc-exec` pool vs the
//!   pre-pool spawn-per-call fan-out on a repeated small-batch A(4,1)
//!   sweep (verdict equality asserted, ≥ 1.5× gated — spawn overhead is
//!   the whole difference), thread-cap rows (1 / 2 / all) for that sweep
//!   and for the n = 5 family sweep (checkpoint equality asserted across
//!   caps), and the pre-filter's cold vs warm sweep-context evals/s;
//!   measurements append to `BENCH_parallel.json`,
//! * the **runtime table**: one live `sc-runtime` A(4,1) run with real
//!   injected faults (delayed, scripted-witness, equivocate, crash) under
//!   saturating snapshot readers — reads/s (≥ 1M gated), per-burst
//!   recovery percentiles, batched read-latency percentiles, and the
//!   deterministic harness's digest-equality witness; measurements append
//!   to `BENCH_runtime.json`,
//! * the **observability table**: the recording live hot path within
//!   **≤ 5%** of a detached bundle's wall clock, the metered
//!   `CounterHandle` read path holding the **≥ 1M reads/s** gate, the
//!   traced-vs-untraced digest-equality witness, and a flight-recorder
//!   firing on an injected over-budget burst; measurements append to
//!   `BENCH_obs.json`.
//!
//! The first-generation `reference_step` engine and its clone-cost baseline
//! are gone (the bitwise equivalence gate stayed green from PR 1 through
//! PR 2); the loop pipeline now measures the *architecture* difference that
//! remains — per-scenario stepping with a materialised `OutputTrace` and
//! offline detection versus batched prepared rounds with streaming
//! detection — on the same zero-copy core.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_attack::AttackPreFilter;
use sc_attack::{search, Delay, MoveSpace, Objective, RawState, SampledRaw, Script, SearchConfig};
use sc_core::{Algorithm, CounterBuilder, CounterState, LutCounter, LutSpec};
use sc_protocol::{Counter, SyncProtocol as _};
use sc_pulling::{PullCounter, Pulled, Sampling};
use sc_sim::{
    adversaries, detect_stabilization, random_periodic, required_confirmation, sleeper,
    two_faced_periodic, Adversary, Batch, BatchReport, ExitReason, OutputTrace, Scenario,
    Simulation, StabilizationReport,
};
use sc_verifier::{
    sweep_family, synthesize, Analyzer, SolverMode, SweepCheckpoint, SymmetricFamily,
    SynthesisOutcome,
};

const SCENARIOS: u64 = 64;
const HORIZON: u64 = 96;

/// Scenarios per regime of the early-decision table.
const EARLY_SCENARIOS: u64 = 16;
/// E1/E3-style soak horizon for the early-decision table: A(4,1)'s joint
/// configuration is periodic with the base modulus 2304 once stabilised, so
/// 32 wraps is a long-run counting confirmation the cycle exit collapses to
/// little more than one wrap.
const EARLY_HORIZON: u64 = 32 * 2304;

type Verdicts = Vec<Result<StabilizationReport, sc_sim::SimError>>;
type AdversaryFactory<'a> = Box<dyn Fn(u64) -> Box<dyn Adversary<CounterState> + 'a> + Sync + 'a>;

fn stack() -> Vec<(&'static str, Algorithm, Vec<usize>)> {
    vec![
        (
            "A(4,1)",
            CounterBuilder::corollary1(1, 2).unwrap().build().unwrap(),
            vec![1],
        ),
        (
            "A(12,3)",
            CounterBuilder::corollary1(1, 2)
                .unwrap()
                .boost(3)
                .unwrap()
                .build()
                .unwrap(),
            vec![0, 1, 4],
        ),
        (
            "A(36,7)",
            CounterBuilder::corollary1(1, 2)
                .unwrap()
                .boost(3)
                .unwrap()
                .boost(3)
                .unwrap()
                .build()
                .unwrap(),
            vec![0, 1, 2, 3, 4, 12, 24],
        ),
    ]
}

/// The adversary regimes swept: no faults, frozen (crash) faults,
/// fresh-random equivocation, the Byzantine echo attacks (two-faced,
/// replay), a sleeper that turns into a crash mid-run, and the
/// **derandomised periodic variants** of the RNG-driven attacks
/// (`two-faced*`, `random*` — seed-derived periodic schedules that
/// snapshot, extending the early-decision exit to the equivocation
/// regimes). Together they bracket the message cost an adversary adds on
/// top of the engine and split into snapshot-capable (fault-free, crash,
/// replay, sleeper, both periodic variants) and RNG-driven (random,
/// two-faced) halves for the early-decision table.
fn regimes<'a>(
    algo: &'a Algorithm,
    faulty: &'a [usize],
) -> Vec<(&'static str, AdversaryFactory<'a>)> {
    vec![
        ("fault-free", Box::new(|_| Box::new(adversaries::none()))),
        (
            "crash",
            Box::new(move |seed| Box::new(adversaries::crash(algo, faulty.iter().copied(), seed))),
        ),
        (
            "random",
            Box::new(move |seed| Box::new(adversaries::random(algo, faulty.iter().copied(), seed))),
        ),
        (
            "two-faced",
            Box::new(move |seed| {
                Box::new(adversaries::two_faced(algo, faulty.iter().copied(), seed))
            }),
        ),
        (
            "replay",
            Box::new(move |_| Box::new(adversaries::replay(faulty.iter().copied(), 3))),
        ),
        (
            "sleeper",
            Box::new(move |seed| {
                Box::new(sleeper(
                    algo,
                    faulty.iter().copied(),
                    64,
                    adversaries::crash(algo, faulty.iter().copied(), seed),
                    seed,
                ))
            }),
        ),
        (
            "two-faced*",
            Box::new(move |seed| Box::new(two_faced_periodic(faulty.iter().copied(), seed, 8))),
        ),
        (
            "random*",
            Box::new(move |seed| Box::new(random_periodic(algo, faulty.iter().copied(), seed, 8))),
        ),
    ]
}

/// The per-scenario loop pipeline: single-stepped engine, materialised
/// trace, offline detection. Returns the verdicts and the pool-fabrication
/// ledger.
fn sweep_loop(
    algo: &Algorithm,
    factory: &AdversaryFactory<'_>,
    seeds: u64,
    horizon: u64,
) -> (Verdicts, u64) {
    let confirm = required_confirmation(algo.modulus());
    let mut fabricated = 0u64;
    let verdicts = (0..seeds)
        .map(|seed| {
            let mut sim = Simulation::new(algo, factory(seed), seed);
            let mut trace = OutputTrace::new(sim.honest().to_vec());
            trace.push_row(sim.outputs_now());
            for _ in 0..horizon {
                sim.step();
                trace.push_row(sim.outputs_now());
            }
            fabricated += sim.fabricated_states();
            detect_stabilization(&trace, algo.modulus(), confirm)
        })
        .collect();
    (verdicts, fabricated)
}

/// The batched zero-copy pipeline for the same sweep: prepared rounds, each
/// scenario stopping at its first closure or cycle exit.
fn sweep_batched(
    algo: &Algorithm,
    factory: &AdversaryFactory<'_>,
    seeds: u64,
    horizon: u64,
) -> BatchReport {
    let scenarios = Scenario::seeds(0..seeds);
    Batch::new(algo, horizon).run_prepared(&scenarios, |s: &Scenario<CounterState>| factory(s.seed))
}

/// A report's verdicts, in scenario order.
fn verdicts(report: &BatchReport) -> Verdicts {
    report.outcomes.iter().map(|o| o.result.clone()).collect()
}

fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("throughput");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    for (label, algo, faulty) in stack() {
        for (regime, factory) in regimes(&algo, &faulty) {
            g.bench_function(format!("single_run_loop_{label}_{regime}"), |b| {
                b.iter(|| sweep_loop(&algo, &factory, 8, HORIZON))
            });
            g.bench_function(format!("batched_{label}_{regime}"), |b| {
                b.iter(|| sweep_batched(&algo, &factory, 8, HORIZON))
            });
        }
    }
    g.finish();
}

/// One timed full-size sweep per engine per (level, adversary), printed as
/// the rounds/sec baseline table — the batch's rate over the rounds it
/// executed — with the per-round speedup factor and the
/// state-materialisation ledger of both pipelines.
fn summary_table() {
    println!("\n## {SCENARIOS}-scenario sweeps, {HORIZON} rounds each — rounds/sec baseline\n");
    println!(
        "The batch stops a scenario at its closure or cycle exit: its rate counts the \
         rounds it executed (`batch rounds`), and `speedup` compares per-round rates.\n"
    );
    println!(
        "| {:<8} | {:<10} | {:>16} | {:>16} | {:>12} | {:>8} | {:>12} | {:>12} |",
        "counter",
        "adversary",
        "loop (rounds/s)",
        "batch (rounds/s)",
        "batch rounds",
        "speedup",
        "loop fabric",
        "batch fabric"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(10),
        "-".repeat(12),
        "-".repeat(18),
        "-".repeat(18),
        "-".repeat(14),
        "-".repeat(10),
        "-".repeat(14),
        "-".repeat(14)
    );
    for (label, algo, faulty) in stack() {
        for (regime, factory) in regimes(&algo, &faulty) {
            let total_rounds = (SCENARIOS * HORIZON) as f64;

            let start = Instant::now();
            let (looped, loop_fabricated) = sweep_loop(&algo, &factory, SCENARIOS, HORIZON);
            let loop_time = start.elapsed().as_secs_f64();

            let start = Instant::now();
            let batched = sweep_batched(&algo, &factory, SCENARIOS, HORIZON);
            let batched_time = start.elapsed().as_secs_f64();
            let batch_fabricated = batched.fabricated_states();
            let executed = SCENARIOS * HORIZON - batched.rounds_saved(HORIZON);
            let batched = verdicts(&batched);

            // Same protocol, same seeds, same horizon ⇒ identical verdicts;
            // a throughput number for a divergent engine is meaningless.
            assert_eq!(
                looped, batched,
                "{label}/{regime}: engines disagree — benchmark invalid"
            );

            let loop_rate = total_rounds / loop_time;
            let batch_rate = executed as f64 / batched_time;
            println!(
                "| {:<8} | {:<10} | {:>16.0} | {:>16.0} | {:>12} | {:>7.2}x | {:>12} | {:>12} |",
                label,
                regime,
                loop_rate,
                batch_rate,
                executed,
                batch_rate / loop_rate,
                loop_fabricated,
                batch_fabricated
            );
        }
    }
    println!();
}

/// The early-decision table: E1/E3-style soak sweeps on A(4,1), full
/// horizon vs. closure- and cycle-exiting, with the decided-at /
/// rounds-saved ledger.
/// Divergence between the two modes aborts the bench — this is the verdict
/// gate CI runs in `THROUGHPUT_SUMMARY_ONLY=1` mode.
fn early_decision_table() {
    let (label, algo, faulty) = stack().remove(0);
    println!(
        "## early-decision sweeps — {label}, {EARLY_SCENARIOS} scenarios × {EARLY_HORIZON} rounds\n"
    );
    println!(
        "| {:<10} | {:>6} | {:>14} | {:>14} | {:>12} | {:>14} | {:>8} |",
        "adversary", "exits", "decided (max)", "rounds saved", "full (s)", "early (s)", "speedup"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(12),
        "-".repeat(8),
        "-".repeat(16),
        "-".repeat(16),
        "-".repeat(14),
        "-".repeat(16),
        "-".repeat(10)
    );
    for (regime, factory) in regimes(&algo, &faulty) {
        // The full column executes every round: the looped pipeline has no
        // exit of any kind.
        let start = Instant::now();
        let (full, _) = sweep_loop(&algo, &factory, EARLY_SCENARIOS, EARLY_HORIZON);
        let full_time = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let early = sweep_batched(&algo, &factory, EARLY_SCENARIOS, EARLY_HORIZON);
        let early_time = start.elapsed().as_secs_f64();

        // The whole point: early-exit verdicts must be bitwise identical to
        // full-horizon verdicts, scenario for scenario.
        assert_eq!(
            full,
            verdicts(&early),
            "{label}/{regime}: early-exit verdict diverges from full horizon"
        );

        let decided_max = early
            .outcomes
            .iter()
            .filter_map(|o| match o.exit_reason {
                ExitReason::Cycle { decided_at, .. } | ExitReason::Closed { decided_at } => {
                    Some(decided_at)
                }
                _ => None,
            })
            .max();
        println!(
            "| {:<10} | {:>2}/{:<3} | {:>14} | {:>14} | {:>12.2} | {:>14.2} | {:>7.1}x |",
            regime,
            early.early_exits(),
            EARLY_SCENARIOS,
            decided_max.map_or_else(|| "-".into(), |d| d.to_string()),
            early.rounds_saved(EARLY_HORIZON),
            full_time,
            early_time,
            full_time / early_time
        );
    }
    println!();
}

/// The move vocabulary every worst-case search row samples from.
const SEARCH_SPACE: MoveSpace = MoveSpace {
    raw_values: 8,
    salts: 3,
    max_lag: 3,
};

/// Folds `(name, delay)` rows to the strongest (first wins ties).
fn max_delay(rows: impl IntoIterator<Item = (&'static str, Delay)>) -> (&'static str, Delay) {
    rows.into_iter().fold(("-", Delay::default()), |best, row| {
        if row.1 > best.1 {
            row
        } else {
            best
        }
    })
}

/// Measures every library regime of `regimes` on `objective`'s sweep and
/// returns the strongest, with its name.
fn strongest_builtin<P>(
    objective: &mut Objective<'_, P, SampledRaw<'_, P>>,
    regimes: Vec<(&'static str, AdversaryFactory<'_>)>,
) -> (&'static str, Delay)
where
    P: Counter<State = CounterState>,
{
    let measured: Vec<(&'static str, Delay)> = regimes
        .into_iter()
        .map(|(name, factory)| (name, objective.measure(factory)))
        .collect();
    max_delay(measured)
}

/// One row of the worst-case table: the strongest built-in strategy vs the
/// best script the guided search finds on the same `(seed, fault set)`
/// sweep, with the search's evaluation throughput.
struct WorstCaseRow {
    label: String,
    horizon: u64,
    seeds: u64,
    builtin_name: &'static str,
    builtin: Delay,
    searched: Delay,
    evaluations: u64,
    evals_per_sec: f64,
}

impl WorstCaseRow {
    fn print(&self) {
        println!(
            "| {:<14} | {:>7} | {:>5} | {:>13} | {:>10} | {:>13} | {:>8} | {:>6} | {:>9.0} |",
            self.label,
            self.horizon,
            self.seeds,
            format!("{} ({})", self.builtin.worst, self.builtin_name),
            self.builtin.total,
            self.searched.worst,
            self.searched.total,
            self.evaluations,
            self.evals_per_sec,
        );
    }
}

/// Runs the search-vs-library comparison for one protocol.
fn worst_case_row<P, R>(
    label: &str,
    objective: &mut Objective<'_, P, R>,
    builtin: (&'static str, Delay),
    space: MoveSpace,
    budget: u64,
) -> WorstCaseRow
where
    P: Counter + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    let mut cfg = SearchConfig::new(4, space, 1);
    cfg.budget = budget;
    let start = Instant::now();
    let report = search::search(objective, &cfg);
    let elapsed = start.elapsed().as_secs_f64();
    WorstCaseRow {
        label: label.to_string(),
        horizon: objective.horizon(),
        seeds: objective.scenarios() as u64,
        builtin_name: builtin.0,
        builtin: builtin.1,
        searched: report.delay,
        evaluations: report.evaluations,
        evals_per_sec: report.evaluations as f64 / elapsed,
    }
}

/// The worst-case adversary search table: per protocol × fault set, the
/// strongest built-in strategy's sweep delay next to the best **searched
/// script**'s, on the identical `(seed, fault set)` sweep, plus the
/// search's evaluation throughput. The A(4,1) row is the acceptance gate:
/// the search must *strictly* exceed every built-in strategy — the
/// assertion aborts the bench (and the CI smoke run) otherwise.
fn worst_case_table() {
    println!(
        "## worst-case adversary search — best built-in vs searched script, same (seed, f) sweep\n"
    );
    println!(
        "| {:<14} | {:>7} | {:>5} | {:>13} | {:>10} | {:>13} | {:>8} | {:>6} | {:>9} |",
        "counter",
        "horizon",
        "seeds",
        "builtin worst",
        "b. total",
        "search worst",
        "s. total",
        "evals",
        "evals/s"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(16),
        "-".repeat(9),
        "-".repeat(7),
        "-".repeat(15),
        "-".repeat(12),
        "-".repeat(15),
        "-".repeat(10),
        "-".repeat(8),
        "-".repeat(11)
    );
    // Per-level sweep shapes: A(4,1) gets the real hunt at the summary
    // sweep's 96-round horizon — it is the acceptance gate. The deeper
    // stacks stabilise in hundreds of rounds even under a mere crash, so
    // their sweeps run a 1024-round horizon (neither saturates there) with
    // fewer seeds and a probe-sized budget.
    let shapes: [(u64, u64, u64); 3] = [(96, 8, 384), (1024, 4, 48), (1024, 4, 16)];
    for ((horizon, seeds, budget), (label, algo, faulty)) in shapes.into_iter().zip(stack()) {
        let mut objective =
            Objective::new(&algo, SampledRaw(&algo), faulty.clone(), 0..seeds, horizon)
                .expect("sweep horizon fits the confirmation suffix");
        let builtin = strongest_builtin(&mut objective, regimes(&algo, &faulty));
        let row = worst_case_row(label, &mut objective, builtin, SEARCH_SPACE, budget);
        row.print();
        if label == "A(4,1)" {
            assert!(
                row.searched > row.builtin,
                "{label}: the searched script ({:?}) must strictly exceed every \
                 built-in strategy (strongest: {} at {:?})",
                row.searched,
                row.builtin_name,
                row.builtin
            );
        }
    }

    // The pulling counter sweeps through the same engine; the scripted
    // adversary answers pulls through the shared message plane like any
    // other strategy.
    let base = stack().remove(0).1;
    let pc = PullCounter::from_algorithm(&base, Sampling::Full)
        .expect("A(4,1) transplants into the pulling model");
    let pulled = Pulled::new(&pc);
    let faulty = vec![1usize];
    let mut objective = Objective::new(&pulled, SampledRaw(&pulled), faulty.clone(), 0..8, HORIZON)
        .expect("sweep horizon fits the confirmation suffix");
    type BoxedPullAdversary<'a> = Box<dyn Adversary<sc_pulling::PullState> + 'a>;
    let measured: [(&'static str, Delay); 4] = [
        (
            "crash",
            objective.measure(|seed| {
                Box::new(adversaries::crash(&pulled, faulty.iter().copied(), seed))
                    as BoxedPullAdversary<'_>
            }),
        ),
        (
            "random",
            objective.measure(|seed| {
                Box::new(adversaries::random(&pulled, faulty.iter().copied(), seed))
                    as BoxedPullAdversary<'_>
            }),
        ),
        (
            "two-faced",
            objective.measure(|seed| {
                Box::new(adversaries::two_faced(
                    &pulled,
                    faulty.iter().copied(),
                    seed,
                )) as BoxedPullAdversary<'_>
            }),
        ),
        (
            "replay",
            objective.measure(|_| {
                Box::new(adversaries::replay(faulty.iter().copied(), 3)) as BoxedPullAdversary<'_>
            }),
        ),
    ];
    let builtin = max_delay(measured);
    worst_case_row("pull-A(4,1)", &mut objective, builtin, SEARCH_SPACE, 64).print();
    println!();
}

/// One row of the bit-sliced throughput table.
struct BitslicedRow {
    label: &'static str,
    seeds: u64,
    horizon: u64,
    scripts: usize,
    scalar_eps: f64,
    sliced_eps: f64,
    speedup: f64,
}

/// The bit-sliced objective table: identical random scripts scored by the
/// scalar early-decision engine and by the bit-sliced engine
/// ([`Objective::attach_sliced`]), per Figure-2 level, with per-script
/// [`Delay`] equality asserted before any rate is printed. The A(36,7)
/// row is the acceptance gate: the sliced path must deliver **≥ 20×** the
/// scalar evals/s — the assertion aborts the bench (and the
/// `THROUGHPUT_SUMMARY_ONLY=1` CI run) otherwise.
///
/// A second block re-runs the guided search on the sliced A(4,1)
/// objective: plain `hill_climb` vs the structured `anneal` (row copy /
/// round swap / prefix crossover), same budget and seed — the structured
/// moves must find at least as strong a script.
///
/// The measured trajectory is appended to `BENCH_bitsliced.json` at the
/// workspace root so future PRs inherit a perf baseline.
fn bitsliced_table() {
    println!("## bit-sliced objective — scalar vs sliced evals/s, identical scripts\n");
    println!(
        "| {:<8} | {:>5} | {:>7} | {:>7} | {:>14} | {:>14} | {:>8} |",
        "counter", "seeds", "horizon", "scripts", "scalar evals/s", "sliced evals/s", "speedup"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(10),
        "-".repeat(7),
        "-".repeat(9),
        "-".repeat(9),
        "-".repeat(16),
        "-".repeat(16),
        "-".repeat(10)
    );

    // (scripts, sliced reps): fewer scripts where scalar evals are slow,
    // more sliced repetitions to keep its (much shorter) timing stable.
    let shapes: [(usize, usize); 3] = [(16, 4), (8, 4), (3, 8)];
    let mut rows: Vec<BitslicedRow> = Vec::new();
    for ((scripts_n, reps), (label, algo, faulty)) in shapes.into_iter().zip(stack()) {
        let mut scalar_obj = Objective::new(&algo, &algo, faulty.clone(), 0..SCENARIOS, HORIZON)
            .expect("sweep horizon fits the confirmation suffix");
        let mut sliced_obj = scalar_obj.clone();
        assert!(
            sliced_obj.attach_sliced(),
            "{label}: the Figure-2 stack must lower to the sliced engine"
        );

        let mut rng = SmallRng::seed_from_u64(0xb17);
        let scripts: Vec<Script> = (0..scripts_n)
            .map(|_| Script::random(algo.n(), faulty.clone(), 4, 0, &SEARCH_SPACE, &mut rng))
            .collect();

        // Verification pass first: every sliced verdict must match the
        // scalar engine, script for script — a throughput number for a
        // divergent engine is meaningless. The scalar engine is
        // stateless, so its verification pass is already steady state
        // and doubles as its timing. The sliced pass compiles and
        // caches the round programs, so the timed reps below measure
        // the cache-warm regime a search sweep actually runs in.
        let start = Instant::now();
        let scalar: Vec<Delay> = scripts.iter().map(|s| scalar_obj.evaluate(s)).collect();
        let scalar_time = start.elapsed().as_secs_f64();
        let warm: Vec<Delay> = scripts.iter().map(|s| sliced_obj.evaluate(s)).collect();
        assert_eq!(
            scalar, warm,
            "{label}: sliced delays diverge from the scalar engine"
        );

        let start = Instant::now();
        let mut sliced: Vec<Delay> = Vec::new();
        for _ in 0..reps {
            sliced = scripts.iter().map(|s| sliced_obj.evaluate(s)).collect();
        }
        let sliced_time = start.elapsed().as_secs_f64() / reps as f64;
        assert_eq!(
            scalar, sliced,
            "{label}: sliced delays diverge after cache warm-up"
        );

        let row = BitslicedRow {
            label,
            seeds: SCENARIOS,
            horizon: HORIZON,
            scripts: scripts_n,
            scalar_eps: scripts_n as f64 / scalar_time,
            sliced_eps: scripts_n as f64 / sliced_time,
            speedup: scalar_time / sliced_time,
        };
        println!(
            "| {:<8} | {:>5} | {:>7} | {:>7} | {:>14.1} | {:>14.1} | {:>7.1}x |",
            row.label,
            row.seeds,
            row.horizon,
            row.scripts,
            row.scalar_eps,
            row.sliced_eps,
            row.speedup
        );
        if row.label == "A(36,7)" {
            assert!(
                row.speedup >= 20.0,
                "A(36,7): bit-sliced objective must be ≥ 20× the scalar engine, got {:.1}x",
                row.speedup
            );
        }
        rows.push(row);
    }

    // Structured search moves vs plain hill-climbing, riding the cheap
    // sliced evals on A(4,1): same budget, same seed, same sweep.
    let (label, algo, _) = stack().remove(0);
    let faulty = vec![1usize];
    let mut obj = Objective::new(&algo, &algo, faulty, 0..SCENARIOS, HORIZON)
        .expect("sweep horizon fits the confirmation suffix");
    assert!(obj.attach_sliced());
    let mut cfg = SearchConfig::new(4, SEARCH_SPACE, 3);
    cfg.budget = 256;
    let start = Instant::now();
    let climb = search::hill_climb(&obj, &cfg);
    let climb_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let structured = search::anneal(&obj, &cfg);
    let structured_time = start.elapsed().as_secs_f64();
    println!(
        "\n| {:<22} | {:>13} | {:>8} | {:>6} | {:>9} |",
        "search (sliced A(4,1))", "worst", "total", "evals", "evals/s"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(24),
        "-".repeat(15),
        "-".repeat(10),
        "-".repeat(8),
        "-".repeat(11)
    );
    println!(
        "| {:<22} | {:>13} | {:>8} | {:>6} | {:>9.0} |",
        "hill_climb",
        climb.delay.worst,
        climb.delay.total,
        climb.evaluations,
        climb.evaluations as f64 / climb_time
    );
    println!(
        "| {:<22} | {:>13} | {:>8} | {:>6} | {:>9.0} |",
        "anneal (structured)",
        structured.delay.worst,
        structured.delay.total,
        structured.evaluations,
        structured.evaluations as f64 / structured_time
    );
    assert!(
        structured.delay >= climb.delay,
        "{label}: structured moves must match or beat plain hill_climb \
         ({:?} vs {:?})",
        structured.delay,
        climb.delay
    );
    println!();

    write_bitsliced_trajectory(&rows, &climb.delay, &structured.delay);
}

/// Appends this run's measurements to `BENCH_bitsliced.json` at the
/// workspace root (one JSON object per line — a self-describing
/// trajectory future PRs can diff their baselines against).
fn write_bitsliced_trajectory(rows: &[BitslicedRow], climb: &Delay, structured: &Delay) {
    let mut entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"counter\":\"{}\",\"seeds\":{},\"horizon\":{},\"scripts\":{},\
                 \"scalar_evals_per_sec\":{:.2},\"sliced_evals_per_sec\":{:.2},\
                 \"speedup\":{:.2}}}",
                r.label, r.seeds, r.horizon, r.scripts, r.scalar_eps, r.sliced_eps, r.speedup
            )
        })
        .collect();
    entries.push(format!(
        "{{\"search\":\"hill_climb\",\"worst\":{},\"unstable\":{},\"total\":{}}}",
        climb.worst, climb.unstable, climb.total
    ));
    entries.push(format!(
        "{{\"search\":\"anneal\",\"worst\":{},\"unstable\":{},\"total\":{}}}",
        structured.worst, structured.unstable, structured.total
    ));
    let line = format!(
        "{{\"bench\":\"bitsliced\",\"gate_min_speedup\":20.0,\"rows\":[{}]}}\n",
        entries.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bitsliced.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("trajectory appended to BENCH_bitsliced.json"),
        Err(e) => println!("warning: could not write BENCH_bitsliced.json: {e}"),
    }
}

/// The E7 synthesis workload (`n = 4, f = 1`, 2 states): candidate tables
/// the hill-climb scores — the deterministic follow-max table plus random
/// candidates drawn exactly like the synthesiser's restarts.
fn synthesis_candidates() -> Vec<LutCounter> {
    let follow_max: Vec<u8> = (0..16u32)
        .map(|index| {
            let max = (0..4).map(|u| (index >> u & 1) as u8).max().unwrap();
            (max + 1) % 2
        })
        .collect();
    let mut candidates = vec![LutCounter::new(LutSpec {
        n: 4,
        f: 1,
        c: 2,
        states: 2,
        transition: vec![
            follow_max.clone(),
            follow_max.clone(),
            follow_max.clone(),
            follow_max,
        ],
        output: vec![vec![0, 1]; 4],
        stabilization_bound: 0,
    })
    .unwrap()];
    for seed in 0..7u64 {
        // xorshift-ish deterministic tables; the exact bits are irrelevant,
        // only that both engines score the same candidates.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut bit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 1) as u8
        };
        let transition: Vec<Vec<u8>> = (0..4).map(|_| (0..16).map(|_| bit()).collect()).collect();
        candidates.push(
            LutCounter::new(LutSpec {
                n: 4,
                f: 1,
                c: 2,
                states: 2,
                transition,
                output: vec![vec![0, 1]; 4],
                stabilization_bound: 0,
            })
            .unwrap(),
        );
    }
    candidates
}

/// The verifier table: `analyze` throughput (the synthesis scoring
/// function) on the E7 `n = 4, f = 1` workload, bitset game core vs the
/// retained reference checker, plus the `16^4`-configuration instance the
/// seed limits rejected. Summaries of the two engines are asserted equal
/// candidate for candidate — this table is the verifier's divergence gate
/// in `THROUGHPUT_SUMMARY_ONLY=1` CI runs.
fn verifier_table() {
    /// `analyze` calls per engine per workload row.
    const ITERS: u32 = 400;
    /// Configurations explored by one `n = 4, f = 1, |X| = 2` analyze:
    /// `2^4` for the empty fault set + four singletons at `2^3`.
    const SYNTH_CONFIGS: u64 = 16 + 4 * 8;

    println!("## exhaustive verifier — bitset game core vs retained reference\n");
    println!(
        "| {:<34} | {:>14} | {:>14} | {:>13} | {:>13} | {:>8} |",
        "workload", "ref (s)", "bitset (s)", "ref cfg/s", "bitset cfg/s", "speedup"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|",
        "-".repeat(36),
        "-".repeat(16),
        "-".repeat(16),
        "-".repeat(15),
        "-".repeat(15),
        "-".repeat(10)
    );

    // --- analyze on the synthesis workload, both engines. -----------------
    let candidates = synthesis_candidates();
    for candidate in &candidates {
        // Identical scores or the speedup is meaningless.
        assert_eq!(
            sc_verifier::analyze(candidate).unwrap(),
            sc_verifier::reference::analyze(candidate).unwrap(),
            "bitset core diverges from the reference checker"
        );
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        for candidate in &candidates {
            std::hint::black_box(sc_verifier::reference::analyze(candidate).unwrap());
        }
    }
    let ref_time = start.elapsed().as_secs_f64();
    // Score through one warm Analyzer, exactly as the hill-climb does.
    let mut analyzer = sc_verifier::Analyzer::new();
    let start = Instant::now();
    for _ in 0..ITERS {
        for candidate in &candidates {
            std::hint::black_box(analyzer.analyze(candidate).unwrap());
        }
    }
    let new_time = start.elapsed().as_secs_f64();
    let total_configs = (SYNTH_CONFIGS * u64::from(ITERS) * candidates.len() as u64) as f64;
    println!(
        "| {:<34} | {:>14.3} | {:>14.3} | {:>13.0} | {:>13.0} | {:>7.1}x |",
        format!("analyze n=4 f=1 ({}x{} cands)", ITERS, candidates.len()),
        ref_time,
        new_time,
        total_configs / ref_time,
        total_configs / new_time,
        ref_time / new_time
    );

    // --- the previously-rejected 16^4 instance. ---------------------------
    let big = sc_bench::sixteen_state_instance();
    assert!(
        sc_verifier::reference::analyze(&big).is_err(),
        "the 16^4 instance must exceed the seed limits"
    );
    let start = Instant::now();
    let summary = sc_verifier::analyze(&big).unwrap();
    let big_time = start.elapsed().as_secs_f64();
    assert!(summary.failure.is_none() && summary.worst_time == 1);
    println!(
        "| {:<34} | {:>14} | {:>14.3} | {:>13} | {:>13.0} | {:>8} |",
        "analyze 16^4 = 65536 configs",
        "rejected",
        big_time,
        "-",
        65536.0 / big_time,
        "-"
    );

    // --- synthesis throughput on the new core (evaluations/sec). ----------
    let budget = 1024u64;
    let start = Instant::now();
    let report = synthesize(4, 1, 2, 2, 5, budget).unwrap();
    let synth_time = start.elapsed().as_secs_f64();
    assert!(matches!(report.outcome, SynthesisOutcome::Exhausted { .. }));
    println!(
        "\nsynthesize n=4 f=1: {} candidate evaluations in {:.3} s \
         ({:.0} evals/s on the bitset core)\n",
        report.evaluations,
        synth_time,
        report.evaluations as f64 / synth_time
    );
}

/// Exchangeable `n = 4, f = 1, |X| = 16` candidates for the quotient
/// speedup row: one shared transition table per candidate, depending only
/// on the multiset of received states (a deterministic xorshift state per
/// class), so both engines are sound on every one of them.
fn symmetric_candidates() -> Vec<LutCounter> {
    let n = 4usize;
    let x = 16usize;
    let rows = x.pow(n as u32);
    (0..4u64)
        .map(|seed| {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % x as u64) as u8
            };
            // Assign one next-state per sorted-digit class, then expand to
            // the full row table.
            let mut classes: std::collections::HashMap<Vec<u8>, u8> =
                std::collections::HashMap::new();
            let mut table = vec![0u8; rows];
            for (r, slot) in table.iter_mut().enumerate() {
                let mut digits = Vec::with_capacity(n);
                let mut rest = r;
                for _ in 0..n {
                    digits.push((rest % x) as u8);
                    rest /= x;
                }
                digits.sort_unstable();
                *slot = *classes.entry(digits).or_insert_with(&mut next);
            }
            LutCounter::new(LutSpec {
                n,
                f: 1,
                c: 2,
                states: x as u8,
                transition: vec![table; n],
                output: vec![(0..x as u64).map(|s| s % 2).collect(); n],
                stabilization_bound: 0,
            })
            .unwrap()
        })
        .collect()
}

/// The synthesis-pipeline table: the game solver's orbit indexing vs its
/// full-configuration indexing on an exchangeable `n = 4, f = 1, |X| = 8`
/// workload (summaries asserted bitwise equal candidate for candidate,
/// **≥ 3×** speedup gated), followed by the end-to-end `n = 5, f = 1` campaign —
/// the declared 64-candidate symmetric family swept through the attack
/// pre-filter and the quotient verifier, with the filtered / survivor /
/// verified / found ledger. Measurements append to `BENCH_synthesis.json`.
fn synthesis_table() {
    /// `analyze` calls per engine on the speedup workload.
    const ITERS: u32 = 8;

    println!("## orbit-quotient verifier — full solver vs quotient, exchangeable n=4 f=1 |X|=16\n");
    let candidates = symmetric_candidates();
    let mut full = Analyzer::with_mode(SolverMode::Full);
    let mut quot = Analyzer::with_mode(SolverMode::Quotient);
    for candidate in &candidates {
        // Bitwise-equal summaries or the speedup is meaningless.
        assert_eq!(
            full.analyze(candidate).unwrap(),
            quot.analyze(candidate).unwrap(),
            "quotient solver diverges from the full solver"
        );
    }
    let start = Instant::now();
    for _ in 0..ITERS {
        for candidate in &candidates {
            std::hint::black_box(full.analyze(candidate).unwrap());
        }
    }
    let full_time = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..ITERS {
        for candidate in &candidates {
            std::hint::black_box(quot.analyze(candidate).unwrap());
        }
    }
    let quot_time = start.elapsed().as_secs_f64();
    // Full joint space per analyze: 16^4 fault-free + 4 singleton games at
    // 16^3; the quotient decides the same space through C(19,4) + 4·C(18,3)
    // orbit games — a 11.5x state-space contraction.
    let configs_per_analyze = 65536 + 4 * 4096;
    let orbits_per_analyze = 3876 + 4 * 816;
    let quotient_ratio = configs_per_analyze as f64 / orbits_per_analyze as f64;
    let total_configs = (configs_per_analyze * ITERS as usize * candidates.len()) as f64;
    let speedup = full_time / quot_time;
    println!(
        "| {:<34} | {:>12} | {:>14} | {:>14} | {:>8} |",
        "workload", "states ratio", "full cfg/s", "quotient cfg/s", "speedup"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(36),
        "-".repeat(14),
        "-".repeat(16),
        "-".repeat(16),
        "-".repeat(10)
    );
    println!(
        "| {:<34} | {:>11.1}x | {:>14.0} | {:>14.0} | {:>7.1}x |",
        format!("analyze n=4 f=1 |X|=16 ({}x{})", ITERS, candidates.len()),
        quotient_ratio,
        total_configs / full_time,
        total_configs / quot_time,
        speedup
    );
    assert!(
        speedup >= 3.0,
        "orbit quotient must be ≥ 3× the full solver on the n=4 f=1 workload, got {speedup:.1}x"
    );

    // --- the n = 5 campaign: pre-filter + quotient, end to end. -----------
    let family = SymmetricFamily::new(5, 1, 2, 2).expect("declared family must be well-formed");
    let total = family.len().expect("64 candidates");
    let mut filter = AttackPreFilter::new(4, 3, 48, 9);
    let mut analyzer = Analyzer::new();
    analyzer.dedup_fault_sets(true);
    let mut checkpoint = SweepCheckpoint::new();
    let start = Instant::now();
    let outcome = sweep_family(
        &family,
        &mut filter,
        &mut analyzer,
        &mut checkpoint,
        u64::MAX,
    )
    .expect("the n=5 family must sweep end-to-end");
    let sweep_time = start.elapsed().as_secs_f64();
    assert!(outcome.complete, "the 64-candidate family must complete");
    let ledger = checkpoint.ledger;
    assert_eq!(ledger.screened, total);
    assert_eq!(ledger.screened, ledger.filtered + ledger.survivors);
    assert_eq!(ledger.verified, ledger.survivors);
    let reject_rate = ledger.filtered as f64 / ledger.screened as f64;
    let evals_per_sec = filter.evaluations() as f64 / sweep_time;
    println!(
        "\nn=5 f=1 synthesis sweep (|X|=2, {} classes, {} candidates): \
         {} filtered / {} survivors / {} verified / {} found in {:.2} s \
         ({:.0} attack evals/s, reject rate {:.2})\n",
        family.classes(),
        total,
        ledger.filtered,
        ledger.survivors,
        ledger.verified,
        ledger.found,
        sweep_time,
        evals_per_sec,
        reject_rate
    );

    write_synthesis_trajectory(
        speedup,
        quotient_ratio,
        total_configs / quot_time,
        evals_per_sec,
        reject_rate,
        &ledger,
    );
}

/// Appends this run's synthesis-pipeline measurements to
/// `BENCH_synthesis.json` at the workspace root (one JSON object per line,
/// same trajectory format as `BENCH_bitsliced.json`).
fn write_synthesis_trajectory(
    speedup: f64,
    quotient_ratio: f64,
    configs_per_sec: f64,
    evals_per_sec: f64,
    reject_rate: f64,
    ledger: &sc_verifier::SweepLedger,
) {
    let line = format!(
        "{{\"bench\":\"synthesis\",\"gate_min_speedup\":3.0,\
         \"quotient_speedup\":{speedup:.2},\"quotient_ratio\":{quotient_ratio:.2},\
         \"configs_per_sec\":{configs_per_sec:.2},\"prefilter_evals_per_sec\":{evals_per_sec:.2},\
         \"prefilter_reject_rate\":{reject_rate:.3},\
         \"ledger\":{{\"screened\":{},\"filtered\":{},\"survivors\":{},\
         \"verified\":{},\"found\":{}}}}}\n",
        ledger.screened, ledger.filtered, ledger.survivors, ledger.verified, ledger.found
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synthesis.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("trajectory appended to BENCH_synthesis.json"),
        Err(e) => println!("warning: could not write BENCH_synthesis.json: {e}"),
    }
}

/// One spawn-per-call sweep: the fan-out shape `Batch` had before the
/// persistent pool — a `thread::scope` per sweep call spawning **all**
/// `threads` workers (the submitter only collected), each worker taking
/// the strided slice `t, t + threads, …`, outcomes merged back in
/// scenario order. Work and partitioning match the pool path at the same
/// cap; per-call thread start-up is the entire difference.
fn spawn_per_call_sweep(
    algo: &Algorithm,
    scenarios: &[Scenario<CounterState>],
    horizon: u64,
    threads: usize,
    factory: &AdversaryFactory<'_>,
) -> Vec<sc_sim::ScenarioOutcome> {
    let stripes: Vec<Vec<Scenario<CounterState>>> = (0..threads)
        .map(|t| scenarios.iter().skip(t).step_by(threads).cloned().collect())
        .collect();
    let run_stripe = |stripe: &[Scenario<CounterState>]| {
        Batch::new(algo, horizon)
            .threads(1)
            .run_prepared(stripe, |s: &Scenario<CounterState>| factory(s.seed))
            .outcomes
    };
    let outs: Vec<Vec<sc_sim::ScenarioOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .iter()
            .map(|stripe| scope.spawn(|| run_stripe(stripe)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spawned stripe panicked"))
            .collect()
    });
    let mut iters: Vec<_> = outs.into_iter().map(|o| o.into_iter()).collect();
    let mut merged = Vec::with_capacity(scenarios.len());
    for index in 0..scenarios.len() {
        merged.extend(iters[index % threads].next());
    }
    merged
}

/// The parallel-scaling table: persistent-pool vs spawn-per-call fan-out
/// on a repeated small-batch A(4,1) sweep (verdicts asserted identical,
/// **≥ 1.5×** gated — the workload is sized so per-call thread start-up
/// dominates), thread-cap wall-clock rows for that sweep and the n = 5
/// family sweep (checkpoints asserted identical across caps, wall-clock
/// improvement gated when the host actually has ≥ 2 threads), and the
/// attack pre-filter's cold vs warm sweep-context evals/s. Measurements
/// append to `BENCH_parallel.json`.
fn parallel_table() {
    /// Sweep calls per measurement: many small calls, so per-call overhead
    /// (two thread spawns vs a pool hand-off) is what the clock sees.
    const REPS: u32 = 1200;
    /// Scenarios per call — deliberately tiny (one short batch).
    const SMALL: u64 = 4;
    /// Rounds per scenario — deliberately short; every timed path runs the
    /// same horizon, and the workload must stay small enough that per-call
    /// fan-out overhead dominates the clock.
    const SMALL_HORIZON: u64 = 8;

    println!("## parallel scaling — persistent sc-exec pool, spawn-per-call baseline\n");
    let algo = CounterBuilder::corollary1(1, 2).unwrap().build().unwrap();
    let scenarios = Scenario::seeds(0..SMALL);
    let factory: AdversaryFactory<'_> =
        Box::new(|seed| Box::new(adversaries::crash(&algo, [1], seed)));

    // Verdict equality first: pool caps and the spawn baseline must agree
    // scenario for scenario, or the timings compare different computations.
    let run_pool = |threads: usize| {
        Batch::new(&algo, SMALL_HORIZON)
            .threads(threads)
            .run_prepared(&scenarios, |s: &Scenario<CounterState>| factory(s.seed))
            .outcomes
    };
    let baseline = run_pool(1);
    assert_eq!(
        baseline,
        run_pool(2),
        "pool fan-out diverges from the serial sweep"
    );
    assert_eq!(
        baseline,
        spawn_per_call_sweep(&algo, &scenarios, SMALL_HORIZON, 2, &factory),
        "spawn-per-call baseline diverges from the pool sweep"
    );

    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..REPS {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    let all_threads = sc_exec::threads();
    let small_t1 = time(&mut || {
        std::hint::black_box(run_pool(1));
    });
    let small_t2 = time(&mut || {
        std::hint::black_box(run_pool(2));
    });
    let small_all = time(&mut || {
        std::hint::black_box(run_pool(all_threads));
    });
    let spawn_t2 = time(&mut || {
        std::hint::black_box(spawn_per_call_sweep(
            &algo,
            &scenarios,
            SMALL_HORIZON,
            2,
            &factory,
        ));
    });
    let spawn_speedup = spawn_t2 / small_t2;

    // --- the n = 5 family sweep per thread cap. ---------------------------
    let family = SymmetricFamily::new(5, 1, 2, 2).expect("declared family must be well-formed");
    let sweep_at = |workers: usize, threads: usize| {
        let pool = sc_exec::Pool::new(workers);
        let mut filter = AttackPreFilter::new(4, 3, 48, 9);
        let mut analyzer = Analyzer::new();
        analyzer.dedup_fault_sets(true);
        let mut checkpoint = SweepCheckpoint::new();
        let start = Instant::now();
        let outcome = sc_verifier::sweep_family_on(
            &pool,
            threads,
            &family,
            &mut filter,
            &mut analyzer,
            &mut checkpoint,
            u64::MAX,
        )
        .expect("the n=5 family must sweep end-to-end");
        assert!(outcome.complete);
        (start.elapsed().as_secs_f64(), checkpoint)
    };
    // One untimed pass first: the timed rows below compare thread caps, not
    // first-touch effects (page faults, lazy LUT/engine allocation).
    let _ = sweep_at(0, 1);
    let (sweep_t1, sweep_serial) = sweep_at(0, 1);
    let (sweep_t2, sweep_two) = sweep_at(1, 2);
    let (sweep_all, sweep_wide) = sweep_at(all_threads.saturating_sub(1), all_threads);
    assert_eq!(
        sweep_serial, sweep_two,
        "2-thread family sweep diverges from serial"
    );
    assert_eq!(
        sweep_serial, sweep_wide,
        "{all_threads}-thread family sweep diverges from serial"
    );

    println!(
        "| {:<38} | {:>10} | {:>10} | {:>13} |",
        "workload (wall-clock seconds)", "threads 1", "threads 2", "all threads"
    );
    println!(
        "|{}|{}|{}|{}|",
        "-".repeat(40),
        "-".repeat(12),
        "-".repeat(12),
        "-".repeat(15)
    );
    println!(
        "| {:<38} | {:>10.3} | {:>10.3} | {:>9.3} ({}) |",
        format!("{REPS}x small batch A(4,1) ({SMALL} scen.)"),
        small_t1,
        small_t2,
        small_all,
        all_threads
    );
    println!(
        "| {:<38} | {:>10.3} | {:>10.3} | {:>9.3} ({}) |",
        "n=5 f=1 family sweep (64 candidates)", sweep_t1, sweep_t2, sweep_all, all_threads
    );
    println!(
        "\nspawn-per-call baseline at 2 threads: {spawn_t2:.3} s → persistent pool is \
         {spawn_speedup:.1}x faster on the repeated small-batch sweep\n"
    );
    assert!(
        spawn_speedup >= 1.5,
        "the persistent pool must beat spawn-per-call by ≥ 1.5x on the \
         small-batch sweep, got {spawn_speedup:.2}x"
    );
    if all_threads >= 2 {
        assert!(
            sweep_all < sweep_t1 * 0.95,
            "with {all_threads} threads the family sweep must beat serial: \
             {sweep_all:.3} s vs {sweep_t1:.3} s"
        );
    }

    // --- pre-filter sweep context: cold (per-candidate) vs warm. ----------
    // Interleaved best-of-3 passes: the delta is per-candidate setup work,
    // small against the attack evaluations themselves, so back-to-back
    // single-shot timings would mostly compare clock drift.
    let mut lut = family.seed().unwrap();
    let total = family.len().unwrap();
    let (mut cold_time, mut warm_time) = (f64::INFINITY, f64::INFINITY);
    let (mut cold_evals, mut warm_evals) = (0u64, 0u64);
    for _ in 0..3 {
        // Cold: a fresh filter per candidate, resampling the sweep each time.
        let mut evals = 0u64;
        let start = Instant::now();
        for index in 0..total {
            family.instantiate(index, &mut lut);
            let mut filter = AttackPreFilter::new(4, 3, 48, 9);
            std::hint::black_box(sc_verifier::CandidateFilter::reject(&mut filter, &lut));
            evals += filter.evaluations();
        }
        cold_time = cold_time.min(start.elapsed().as_secs_f64());
        cold_evals = evals;
        // Warm: one filter carries the sweep context across the family.
        let mut filter = AttackPreFilter::new(4, 3, 48, 9);
        let start = Instant::now();
        for index in 0..total {
            family.instantiate(index, &mut lut);
            std::hint::black_box(sc_verifier::CandidateFilter::reject(&mut filter, &lut));
        }
        warm_time = warm_time.min(start.elapsed().as_secs_f64());
        warm_evals = filter.evaluations();
    }
    assert_eq!(
        warm_evals, cold_evals,
        "the warm sweep context must be bitwise-neutral"
    );
    let cold_rate = cold_evals as f64 / cold_time;
    let warm_rate = cold_evals as f64 / warm_time;
    println!(
        "pre-filter sweep context over the n=5 family: cold {:.0} evals/s, \
         warm {:.0} evals/s ({:.2}x)\n",
        cold_rate,
        warm_rate,
        cold_time / warm_time
    );

    write_parallel_trajectory(
        spawn_speedup,
        [small_t1, small_t2, small_all],
        [sweep_t1, sweep_t2, sweep_all],
        all_threads,
        cold_rate,
        warm_rate,
        &sweep_serial.ledger,
    );
}

/// Appends this run's parallel-scaling measurements to `BENCH_parallel.json`
/// at the workspace root (one JSON object per line, same trajectory format
/// as the other `BENCH_*.json` files).
fn write_parallel_trajectory(
    spawn_speedup: f64,
    small: [f64; 3],
    sweep: [f64; 3],
    all_threads: usize,
    cold_rate: f64,
    warm_rate: f64,
    ledger: &sc_verifier::SweepLedger,
) {
    let line = format!(
        "{{\"bench\":\"parallel\",\"gate_min_spawn_speedup\":1.5,\
         \"spawn_vs_pool_speedup\":{spawn_speedup:.2},\"threads_all\":{all_threads},\
         \"small_batch_secs\":{{\"t1\":{:.4},\"t2\":{:.4},\"all\":{:.4}}},\
         \"family_sweep_secs\":{{\"t1\":{:.3},\"t2\":{:.3},\"all\":{:.3}}},\
         \"prefilter_evals_per_sec\":{{\"cold\":{cold_rate:.1},\"warm\":{warm_rate:.1}}},\
         \"ledger\":{{\"screened\":{},\"filtered\":{},\"survivors\":{},\
         \"verified\":{},\"found\":{}}}}}\n",
        small[0],
        small[1],
        small[2],
        sweep[0],
        sweep[1],
        sweep[2],
        ledger.screened,
        ledger.filtered,
        ledger.survivors,
        ledger.verified,
        ledger.found
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("trajectory appended to BENCH_parallel.json"),
        Err(e) => println!("warning: could not write BENCH_parallel.json: {e}"),
    }
}

/// Sorted-sample percentile (nearest-rank on the scaled index).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The live-runtime smoke table: one `sc-runtime` A(4,1) run with real
/// injected faults — a delayed burst, a scripted-witness burst, an
/// equivocation burst, and a terminal crash — while saturating reader
/// threads hammer the [`sc_runtime::CounterHandle`] snapshot. Reports
/// reads/s (gated **≥ 1M** — the read path is one atomic load, so
/// anything less means the snapshot plane regressed), per-burst recovery
/// times with percentiles, and batched read-latency percentiles. The same
/// config then runs twice through the deterministic harness and the
/// digests must agree — the bit-reproducibility witness recorded in the
/// trajectory. Measurements append to `BENCH_runtime.json`.
fn runtime_table() {
    use sc_runtime::{
        run_deterministic, run_live, FaultEntry, FaultKind, FaultPlan, RuntimeConfig,
    };

    /// Round period: roomy enough that loaded CI machines make deadlines.
    const PERIOD_NS: u64 = 1_000_000;
    /// Reads per timed latency batch (a single read is ~1 ns; batching
    /// keeps the timer overhead out of the sample).
    const BATCH: u64 = 4096;
    const READERS: usize = 3;

    println!("## live runtime — A(4,1), injected faults, saturating snapshot readers\n");

    let algo = CounterBuilder::corollary1(1, 2).unwrap().build().unwrap();
    let mut rng = SmallRng::seed_from_u64(0x11fe);
    let script = Script::random(4, vec![2], 4, 0, &MoveSpace::echoes(2), &mut rng);
    // A single in-budget fault is *masked* once A(4,1) stabilises — no
    // recovery to measure. So the bursts briefly overlap into
    // over-budget territory (two-plus simultaneous faults), the
    // transient corruption self-stabilisation is specified to absorb:
    // the monitor loses stability during each overlap and the recovery
    // table below times the re-confirmation after each burst end.
    let plan = FaultPlan::new(
        4,
        vec![
            FaultEntry {
                node: 0,
                from_round: 10,
                until_round: Some(18),
                kind: FaultKind::Delayed {
                    jitter_permille: 1500,
                },
            },
            FaultEntry {
                node: 1,
                from_round: 14,
                until_round: None,
                kind: FaultKind::Crash, // death is permanent: one budget slot gone
            },
            FaultEntry {
                node: 2,
                from_round: 40,
                until_round: Some(48),
                kind: FaultKind::Scripted(script),
            },
            FaultEntry {
                node: 3,
                from_round: 44,
                until_round: Some(52),
                kind: FaultKind::Equivocate,
            },
        ],
    )
    .expect("bench plan is well-formed");
    let config = RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: 80,
        seed: 0xbead,
        confirm: None,
        // The plan wraps all four nodes (so the derived `n − f` quorum
        // would be 0), but outside the deliberate overlaps at most one
        // node misbehaves at a time: n − 1 reports can agree again after
        // every burst.
        quorum: Some(3),
        plan,
    };

    type ReaderStats = (u64, u64, Vec<u64>);
    let (report, readers): (_, Vec<ReaderStats>) = run_live(&algo, &config, |handle| {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(move || {
                        let mut reads = 0u64;
                        let mut last_version = 0u64;
                        let mut samples: Vec<u64> = Vec::new();
                        while !handle.is_done() {
                            let start = Instant::now();
                            for _ in 0..BATCH {
                                let (version, _) = handle.read();
                                assert!(version >= last_version, "snapshot went backwards");
                                last_version = version;
                            }
                            // Per-batch nanos; a single read is sub-ns,
                            // so divide as float only when reporting.
                            samples.push(start.elapsed().as_nanos() as u64);
                            reads += BATCH;
                        }
                        (reads, last_version, samples)
                    })
                })
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        })
    })
    .expect("bench config is valid");

    let total_reads: u64 = readers.iter().map(|(reads, _, _)| reads).sum();
    let wall_secs = report.wall_nanos as f64 / 1e9;
    let reads_per_sec = total_reads as f64 / wall_secs;
    let mut latencies: Vec<u64> = readers
        .iter()
        .flat_map(|(_, _, samples)| samples.iter().copied())
        .collect();
    latencies.sort_unstable();
    let per_read = |batch_ns: u64| batch_ns as f64 / BATCH as f64;
    let lat = [
        per_read(percentile(&latencies, 0.5)),
        per_read(percentile(&latencies, 0.9)),
        per_read(percentile(&latencies, 0.99)),
        per_read(*latencies.last().unwrap_or(&0)),
    ];
    let mut recovery_ns: Vec<u64> = report.recoveries.iter().map(|r| r.nanos).collect();
    recovery_ns.sort_unstable();
    let rec = [
        percentile(&recovery_ns, 0.5),
        percentile(&recovery_ns, 0.9),
        *recovery_ns.last().unwrap_or(&0),
    ];

    // Every reader must have served from the converged snapshot, the run
    // must end stable despite four distinct injections, and the read
    // plane must sustain the gate rate.
    for (i, (_, last_version, _)) in readers.iter().enumerate() {
        assert!(*last_version > 0, "reader {i} never saw a stable snapshot");
    }
    assert!(
        report.events.iter().rev().find(|e| e.stable).is_some(),
        "the live bench run must end stable; events {:?}",
        report.events
    );
    assert!(
        reads_per_sec >= 1_000_000.0,
        "snapshot plane must serve ≥ 1M reads/s, got {reads_per_sec:.0}"
    );
    assert!(
        report.recoveries.len() >= 2,
        "every over-budget burst must yield a recovery measurement; got {:?}",
        report.recoveries
    );

    // Bit-reproducibility witness: the identical config, driven twice
    // through the deterministic harness, must produce one digest.
    let det_a = run_deterministic(&algo, &config).expect("bench config is valid");
    let det_b = run_deterministic(&algo, &config).expect("bench config is valid");
    assert_eq!(
        det_a.digest, det_b.digest,
        "deterministic harness must reproduce bit-identically"
    );

    println!(
        "| {:>12} | {:>12} | {:>8} | {:>24} | {:>28} |",
        "reads/s",
        "reads",
        "wall (s)",
        "recovery p50/p90/max (ms)",
        "read lat p50/p90/p99/max (ns)"
    );
    println!(
        "|{}|{}|{}|{}|{}|",
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(10),
        "-".repeat(26),
        "-".repeat(30)
    );
    println!(
        "| {:>12.0} | {:>12} | {:>8.3} | {:>24} | {:>28} |",
        reads_per_sec,
        total_reads,
        wall_secs,
        format!(
            "{:.1} / {:.1} / {:.1}",
            rec[0] as f64 / 1e6,
            rec[1] as f64 / 1e6,
            rec[2] as f64 / 1e6
        ),
        format!(
            "{:.2} / {:.2} / {:.2} / {:.2}",
            lat[0], lat[1], lat[2], lat[3]
        ),
    );
    println!(
        "\nfirst stable round {:?}, {} recoveries across the bounded bursts, \
         det digest 0x{:016x}\n",
        report.first_stable_round,
        report.recoveries.len(),
        det_a.digest
    );

    let recov_entries: Vec<String> = report
        .recoveries
        .iter()
        .map(|r| {
            format!(
                "{{\"burst_end_round\":{},\"stable_round\":{},\"nanos\":{}}}",
                r.burst_end_round, r.stable_round, r.nanos
            )
        })
        .collect();
    let line = format!(
        "{{\"bench\":\"runtime\",\"gate_min_reads_per_sec\":1000000.0,\
         \"reads_per_sec\":{reads_per_sec:.0},\"reads\":{total_reads},\
         \"wall_secs\":{wall_secs:.4},\"period_ns\":{PERIOD_NS},\"readers\":{READERS},\
         \"recovery_ns\":{{\"p50\":{},\"p90\":{},\"max\":{}}},\
         \"read_latency_ns\":{{\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\"max\":{:.3}}},\
         \"recoveries\":[{}],\"det_digest\":\"0x{:016x}\"}}\n",
        rec[0],
        rec[1],
        rec[2],
        lat[0],
        lat[1],
        lat[2],
        lat[3],
        recov_entries.join(","),
        det_a.digest
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("trajectory appended to BENCH_runtime.json"),
        Err(e) => println!("warning: could not write BENCH_runtime.json: {e}"),
    }
}

/// The observability table: the traced (recording) live-runtime hot
/// path against the untraced (detached) one — same config, same seed,
/// wall-clock compared with a **≤ 5%** overhead gate (instrumentation
/// is a handful of ring pushes per round; the wall clock is paced by the
/// round schedule, so any real perturbation shows up as deadline misses
/// and a longer run) — the metered [`sc_runtime::CounterHandle`] read path
/// under the same **≥ 1M reads/s** gate as the runtime table (the
/// read-rate meter is one thread-local increment per read), the
/// traced-vs-untraced digest-equality witness on the deterministic
/// harness, and a flight-recorder firing on an injected over-budget
/// burst with its merged dump sizes. Measurements append to
/// `BENCH_obs.json`.
fn observability_table() {
    use sc_runtime::obs::{FlightConfig, TriggerReason};
    use sc_runtime::{
        run_deterministic, run_deterministic_obs, run_live_obs, FaultEntry, FaultKind, FaultPlan,
        RuntimeConfig, RuntimeObs,
    };

    /// Round period: roomy enough that loaded CI machines make deadlines.
    const PERIOD_NS: u64 = 1_000_000;
    /// Rounds per timed live run (~60 ms of wall clock each).
    const LIVE_HORIZON: u64 = 60;
    /// Wall-clock passes per variant; the minimum is compared, so one
    /// descheduled run cannot fail the overhead gate on its own.
    const PASSES: usize = 3;
    const READERS: usize = 2;

    println!("## observability — traced hot path vs untraced, metered reads, flight recorder\n");

    let algo = CounterBuilder::corollary1(1, 2).unwrap().build().unwrap();
    let live_cfg = RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: LIVE_HORIZON,
        seed: 0x0b5,
        confirm: None,
        quorum: None,
        plan: FaultPlan::honest(4),
    };

    // --- live hot path: wall clock, detached bundle vs recording. ---------
    let timed_live = |obs: &RuntimeObs| {
        (0..PASSES)
            .map(|_| {
                let (report, ()) = run_live_obs(&algo, &live_cfg, obs, |_| {}).unwrap();
                report.wall_nanos
            })
            .min()
            .unwrap()
    };
    let untraced_ns = timed_live(&RuntimeObs::default());
    let recording = RuntimeObs::recording(FlightConfig::default());
    let traced_ns = timed_live(&recording);
    let overhead = traced_ns as f64 / untraced_ns as f64;
    assert!(
        recording.collector().unwrap().total_pushed() > 0,
        "the recording run must actually record"
    );
    assert!(
        overhead <= 1.05,
        "traced live hot path must stay within 5% of untraced, \
         got {overhead:.3}x ({traced_ns} ns vs {untraced_ns} ns)"
    );

    // --- the metered read path under the runtime table's rate gate. -------
    let read_obs = RuntimeObs::recording(FlightConfig::default());
    let (read_report, reader_counts): (_, Vec<u64>) =
        run_live_obs(&algo, &live_cfg, &read_obs, |handle| {
            std::thread::scope(|scope| {
                let spawned: Vec<_> = (0..READERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let metered = read_obs.meter_reads(handle);
                            let mut reads = 0u64;
                            while !metered.is_done() {
                                metered.read();
                                reads += 1;
                            }
                            reads
                        })
                    })
                    .collect();
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect()
            })
        })
        .unwrap();
    let metered_reads: u64 = reader_counts.iter().sum();
    let reads_per_sec = metered_reads as f64 / (read_report.wall_nanos as f64 / 1e9);
    assert_eq!(
        read_obs.metrics().unwrap().counter("runtime.reads"),
        Some(metered_reads),
        "the read meter must count every read exactly"
    );
    assert!(
        reads_per_sec >= 1_000_000.0,
        "the metered snapshot plane must still serve ≥ 1M reads/s, got {reads_per_sec:.0}"
    );

    // --- digest equality on the deterministic harness. --------------------
    let det_cfg = RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: 60,
        seed: 77,
        confirm: None,
        quorum: None,
        plan: FaultPlan::new(
            4,
            vec![FaultEntry {
                node: 0,
                from_round: 4,
                until_round: Some(20),
                kind: FaultKind::Delayed {
                    jitter_permille: 2000,
                },
            }],
        )
        .unwrap(),
    };
    let det_plain = run_deterministic(&algo, &det_cfg).unwrap();
    let det_obs = RuntimeObs::recording(FlightConfig::default());
    let det_traced = run_deterministic_obs(&algo, &det_cfg, &det_obs).unwrap();
    assert_eq!(
        det_plain.digest, det_traced.digest,
        "tracing must not perturb the deterministic digest"
    );
    let events_pushed = det_obs.collector().unwrap().total_pushed();

    // --- flight recorder on an injected over-budget burst. ----------------
    // Probe where this seed confirms stability, then break the budget:
    // two simultaneous equivocators leave only two fresh board rows.
    let seed = 90;
    let probe_cfg = RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: 200,
        seed,
        confirm: None,
        quorum: None,
        plan: FaultPlan::honest(4),
    };
    let stable_at = run_deterministic(&algo, &probe_cfg)
        .unwrap()
        .first_stable_round
        .expect("fault-free run stabilises");
    let burst_start = stable_at + 4;
    let burst_end = burst_start + 16;
    let flight_cfg = RuntimeConfig {
        period_ns: PERIOD_NS,
        horizon: burst_end + algo.stabilization_bound() * 4 + 24,
        seed,
        confirm: None,
        quorum: Some(3), // the default n − fault_count is no majority here
        plan: FaultPlan::new(
            4,
            (2..4)
                .map(|node| FaultEntry {
                    node,
                    from_round: burst_start,
                    until_round: Some(burst_end),
                    kind: FaultKind::Equivocate,
                })
                .collect(),
        )
        .unwrap(),
    };
    let flight_obs = RuntimeObs::recording(FlightConfig::default());
    run_deterministic_obs(&algo, &flight_cfg, &flight_obs).unwrap();
    assert!(
        flight_obs.flight_fired(),
        "the over-budget burst must fire the flight recorder"
    );
    let dump = flight_obs.flight_dump().expect("fired recorder has a dump");
    assert_eq!(dump.reason, TriggerReason::StabilityLost);
    assert!(!dump.stream.events.is_empty(), "window must hold events");

    println!(
        "| {:>14} | {:>12} | {:>8} | {:>12} | {:>13} | {:>22} |",
        "untraced (ms)", "traced (ms)", "overhead", "m. reads/s", "events pushed", "flight"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|",
        "-".repeat(16),
        "-".repeat(14),
        "-".repeat(10),
        "-".repeat(14),
        "-".repeat(15),
        "-".repeat(24)
    );
    println!(
        "| {:>14.2} | {:>12.2} | {:>7.3}x | {:>12.0} | {:>13} | {:>22} |",
        untraced_ns as f64 / 1e6,
        traced_ns as f64 / 1e6,
        overhead,
        reads_per_sec,
        events_pushed,
        format!("{} ({} ev)", dump.reason.name(), dump.stream.events.len()),
    );
    println!(
        "\ndet digest 0x{:016x} traced == untraced, flight window \
         [{}, {}]\n",
        det_traced.digest, dump.first_round, dump.round
    );

    let line = format!(
        "{{\"bench\":\"obs\",\"gate_max_overhead\":1.05,\
         \"gate_min_reads_per_sec\":1000000.0,\
         \"live_wall_ns\":{{\"untraced\":{untraced_ns},\"traced\":{traced_ns}}},\
         \"overhead\":{overhead:.4},\"metered_reads\":{metered_reads},\
         \"metered_reads_per_sec\":{reads_per_sec:.0},\
         \"events_pushed\":{events_pushed},\"det_digest\":\"0x{:016x}\",\
         \"digest_match\":true,\"flight\":{{\"fired\":true,\"reason\":\"{}\",\
         \"trigger_round\":{},\"events\":{}}}}}\n",
        det_traced.digest,
        dump.reason.name(),
        dump.round,
        dump.stream.events.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match appended {
        Ok(()) => println!("trajectory appended to BENCH_obs.json"),
        Err(e) => println!("warning: could not write BENCH_obs.json: {e}"),
    }
}

criterion_group!(benches, bench_throughput);

fn main() {
    // Set THROUGHPUT_SUMMARY_ONLY=1 to skip the criterion micro-benches and
    // print just the summary tables — the quick regression check, the
    // early-vs-full verdict gate, and the verifier equivalence gate.
    // THROUGHPUT_PARALLEL_ONLY=1 runs just the parallel-scaling table — the
    // quick loop for tuning the executor gates without the other tables.
    // THROUGHPUT_RUNTIME_ONLY=1 likewise runs just the live-runtime table,
    // and THROUGHPUT_OBS_ONLY=1 just the observability table.
    if std::env::var_os("THROUGHPUT_PARALLEL_ONLY").is_some() {
        parallel_table();
        return;
    }
    if std::env::var_os("THROUGHPUT_RUNTIME_ONLY").is_some() {
        runtime_table();
        return;
    }
    if std::env::var_os("THROUGHPUT_OBS_ONLY").is_some() {
        observability_table();
        return;
    }
    if std::env::var_os("THROUGHPUT_SUMMARY_ONLY").is_none() {
        benches();
    }
    summary_table();
    early_decision_table();
    bitsliced_table();
    worst_case_table();
    verifier_table();
    synthesis_table();
    parallel_table();
    runtime_table();
    observability_table();
}
