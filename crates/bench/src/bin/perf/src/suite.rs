//! The traced run. Each workload's driver is replaced by its serial
//! replica of public per-layer calls, every call in a span; the replica's
//! `result_digest` must equal the driver's; untraced driver repetitions
//! run alongside, so the difference is the tracing overhead. The probes of
//! [`crate::layers`] fill in what no replica can see.

use std::collections::BTreeMap;

use crate::harness::{check_rep, golden, guarded};
use crate::json::{obj, Value};
use crate::layers::{self, Metrics};
use crate::registry::{self, MetricDef, ATTACK, CAMPAIGN, RUNTIME, SOLVER, SWEEP};
use crate::stats;
use crate::trace::{self, Span, Totals, Tracer, REP};
use crate::workloads::{self, attack, campaign, runtime, solver, sweep, Workload};

/// Driver and replica repetitions per workload (after one warm-up of the
/// driver). Every traced run must yield every per-layer metric, so all five
/// replicas run whichever workload it was asked for; one pair each keeps
/// that to about half a minute.
const REPS: usize = 1;
/// Pairs for the workload the run was asked to focus on.
const FOCUS_REPS: usize = 2;
/// Replicas that must account for their time: above this unaccounted
/// share the traced run fails. The two search-driven workloads only
/// report theirs (bookkeeping inside `anneal` / `hill_climb` cannot be
/// reached from outside).
const UNACCOUNTED_LIMIT: f64 = 0.15;
const RECONCILED: [&str; 3] = [SWEEP, SOLVER, RUNTIME];

/// What the traced run of one workload yielded.
struct Traced {
    rows: BTreeMap<&'static str, Totals>,
    counts: BTreeMap<&'static str, u64>,
    /// Fastest untraced driver repetition, seconds.
    driver_s: f64,
    /// Fastest traced replica repetition, seconds.
    replica_s: f64,
    reps: usize,
    spans: Vec<Span>,
}

impl Traced {
    fn row(&self, name: &str) -> Totals {
        self.rows.get(name).copied().unwrap_or_default()
    }

    /// Mean nanoseconds of one `name` span.
    fn mean_ns(&self, name: &str) -> f64 {
        let row = self.row(name);
        row.total_ns as f64 / row.calls.max(1) as f64
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }

    fn unaccounted(&self) -> f64 {
        trace::unaccounted_share(&self.rows)
    }
}

/// Runs `workload`'s driver untraced and its replica traced, `reps` times
/// each, alternating.
fn trace_workload(workload: &dyn Workload, seed: u64, reps: usize) -> Result<Traced, String> {
    let def = workload.def();
    let golden = golden(def, seed);
    let mut tracer = Tracer::new();
    let mut driver_s = Vec::new();
    let mut failure = None;
    workload.session(&mut |rep| {
        let mut digest = None;
        let mut check = |outcome| {
            if let Err(why) = check_rep(def, outcome, &mut digest, golden) {
                failure.get_or_insert(format!("{}: {why}", def.name));
            }
        };
        // Warm the program's caches, untimed and unrecorded.
        check(guarded(rep).outcome);
        for _ in 0..reps {
            let timed = guarded(rep);
            driver_s.push(timed.wall_s);
            check(timed.outcome);

            let root = tracer.enter(REP);
            let outcome = rep(Some(&mut tracer));
            tracer.exit(root);
            tracer.next_rep();
            // Same digest as the driver: the replica did the same work.
            check(outcome);
        }
    })?;
    if let Some(why) = failure {
        return Err(why);
    }
    let rows = trace::table(tracer.spans());
    let replica_s: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == REP)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    Ok(Traced {
        rows,
        counts: tracer.counts().clone(),
        driver_s: stats::summarize(&driver_s).min,
        replica_s: stats::summarize(&replica_s).min,
        reps,
        spans: tracer.spans().to_vec(),
    })
}

/// The campaign driver on the pool at [`registry::PARALLEL_THREADS`]:
/// its fastest repetition in seconds, and the share of the pool's
/// `T x wall` capacity its workers spent inside batches over it.
fn campaign_parallel(seed: u64) -> Result<(f64, f64), String> {
    let threads = registry::PARALLEL_THREADS;
    let parallel = campaign::Campaign::generate(seed, threads);
    let pool = parallel.pool();
    let mut fastest = (f64::INFINITY, 0.0);
    let mut failure = None;
    parallel.session(&mut |rep| {
        for warm in [true, false] {
            let before = pool.stats().busy_ns;
            let timed = guarded(rep);
            if let Err(why) = timed.outcome {
                failure.get_or_insert(why);
            }
            let wall_ns = timed.wall_s * 1e9;
            let busy_ns = (pool.stats().busy_ns - before) as f64;
            if !warm && wall_ns < fastest.0 * 1e9 {
                fastest = (wall_ns / 1e9, busy_ns / (threads as f64 * wall_ns));
            }
        }
    })?;
    match failure {
        Some(why) => Err(format!("{CAMPAIGN} at T={threads}: {why}")),
        None => Ok(fastest),
    }
}

/// The result of a traced run.
pub struct TracedRun {
    /// Every per-layer metric, in registry order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub report: Value,
    /// Spans of the focused workload's replica (none without a focus).
    pub spans: Vec<Span>,
    /// Work units the replicas attempted (a failed one fails the run).
    pub attempted: u64,
}

/// Runs the whole traced suite at `seed`. `focus` names the workload that
/// gets extra repetitions and whose spans are kept for `--spans`.
pub fn traced_run(seed: u64, focus: Option<&str>) -> Result<TracedRun, String> {
    let threads = registry::PARALLEL_THREADS;
    crate::harness::check_cores(crate::harness::nproc(), threads)?;

    let mut traced: BTreeMap<&'static str, Traced> = BTreeMap::new();
    for def in &registry::WORKLOADS {
        // The serial replica is held against the serial driver; the
        // campaign's own T=2 driver is measured by `campaign_parallel`.
        let workload: Box<dyn Workload> = if def.name == CAMPAIGN {
            Box::new(campaign::Campaign::generate(seed, 1))
        } else {
            workloads::generate(def.name, seed).expect("registered workload")
        };
        let reps = if focus == Some(def.name) {
            FOCUS_REPS
        } else {
            REPS
        };
        traced.insert(def.name, trace_workload(workload.as_ref(), seed, reps)?);
    }

    let mut out: Metrics = Vec::new();
    layers::kernels(seed, &mut out);
    layers::sliced(seed, &mut out)?;
    let pool = campaign::Campaign::generate(seed, threads).pool();
    layers::exec(seed, pool, threads, &mut out);
    let eval_ns = layers::attack(seed, &mut out)?;
    layers::verifier(seed, &mut out)?;
    layers::runtime(seed, &mut out)?;
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    // sim: the sweep replica's spans, per adversary.
    let t = &traced[SWEEP];
    for (adversary, span) in sweep::ADVERSARIES.iter().zip(sweep::STEP_SPANS) {
        put(&format!("sim.scalar_round_ns.{adversary}"), t.mean_ns(span));
    }
    let random_rounds = t.row(sweep::STEP_SPANS[2]).calls as f64;
    let fabricated_per_round = t.count(sweep::FABRICATED_COUNT) / random_rounds;
    put("sim.fabricated_per_round", fabricated_per_round);
    put(
        "sim.fabricate_ns",
        (t.mean_ns(sweep::STEP_SPANS[2]) - t.mean_ns(sweep::STEP_SPANS[0])) / fabricated_per_round,
    );
    put("sim.detect_ns", t.mean_ns(sweep::DETECT_SPAN));
    let inside_calls_s = (t.row(REP).total_ns - t.row(REP).self_ns) as f64 / 1e9 / t.reps as f64;
    put(
        "sim.batch_overhead_share",
        (t.driver_s - inside_calls_s) / t.driver_s,
    );

    // attack: the anneal span against evaluations x eval_ns.
    let t = &traced[ATTACK];
    let evaluations = registry::workload(ATTACK).expect("registered").units as f64;
    let anneal_ns = t.row(attack::ANNEAL_SPAN).total_ns as f64 / t.reps as f64;
    let search_overhead = 1.0 - evaluations * eval_ns / anneal_ns;
    put("attack.search_overhead_share", search_overhead);

    // attack pre-filter and verifier: the serial campaign replica.
    let t = &traced[CAMPAIGN];
    let screened = t.row(campaign::PREFILTER_SPAN).calls as f64;
    put("attack.prefilter_ns", t.mean_ns(campaign::PREFILTER_SPAN));
    put(
        "attack.prefilter_evals_per_cand",
        t.count(campaign::FILTER_EVALS_COUNT) / screened,
    );
    put(
        "attack.prefilter_reject_ratio",
        1.0 - t.row(campaign::ANALYZE_SPAN).calls as f64 / screened,
    );
    put(
        "verifier.instantiate_ns",
        t.mean_ns(campaign::INSTANTIATE_SPAN),
    );
    put("verifier.fold_share", t.unaccounted());
    let (parallel_s, busy_share) = campaign_parallel(seed)?;
    put("exec.scaling.campaign", t.driver_s / parallel_s);
    put("exec.busy_share", busy_share);

    // verifier: the solver replica.
    let t = &traced[SOLVER];
    put("verifier.analyze_exch_ns", t.mean_ns(solver::EXCH_SPAN));
    put("verifier.analyze_asym_ns", t.mean_ns(solver::ASYM_SPAN));
    let analyze_s = (t.row(solver::EXCH_SPAN).total_ns + t.row(solver::ASYM_SPAN).total_ns) as f64
        / 1e9
        / t.reps as f64;
    put(
        "verifier.configs_per_s",
        registry::workload(SOLVER).expect("registered").units as f64 / analyze_s,
    );

    // runtime: the harness replica's phases, per node or per round.
    let t = &traced[RUNTIME];
    put(
        "runtime.publish_ns",
        t.row(runtime::PUBLISH_SPAN).total_ns as f64 / t.count(runtime::PUBLISHES_COUNT),
    );
    put(
        "runtime.read_step_ns",
        t.row(runtime::READ_STEP_SPAN).total_ns as f64 / t.count(runtime::READ_STEPS_COUNT),
    );
    put("runtime.monitor_ns", t.mean_ns(runtime::MONITOR_SPAN));

    // trace: overhead and reconciliation, per workload.
    let mut unreconciled = Vec::new();
    for def in &registry::WORKLOADS {
        let t = &traced[def.name];
        put(
            &format!("trace.overhead_ratio.{}", def.name),
            t.replica_s / t.driver_s,
        );
        let unaccounted = if def.name == ATTACK {
            search_overhead
        } else {
            t.unaccounted()
        };
        put(
            &format!("trace.unaccounted_share.{}", def.name),
            unaccounted,
        );
        if RECONCILED.contains(&def.name) && unaccounted > UNACCOUNTED_LIMIT {
            unreconciled.push(format!(
                "{}: {:.1}% of the replica is outside every layer span (limit {:.0}%)",
                def.name,
                unaccounted * 100.0,
                UNACCOUNTED_LIMIT * 100.0
            ));
        }
    }
    if !unreconciled.is_empty() {
        return Err(unreconciled.join("; "));
    }

    let by_name: BTreeMap<&str, f64> = out.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    if by_name.len() != out.len() {
        return Err("a per-layer metric was measured twice".into());
    }
    let metrics = registry::PER_LAYER
        .iter()
        .map(|m| {
            by_name
                .get(m.name)
                .map(|&v| (m, v))
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if metrics.len() != out.len() {
        return Err("a measured per-layer metric is not in the registry".into());
    }

    let attempted = registry::WORKLOADS
        .iter()
        .map(|def| def.units * traced[def.name].reps as u64)
        .sum();
    let tables = registry::WORKLOADS
        .iter()
        .map(|def| {
            let t = &traced[def.name];
            obj([
                ("workload", def.name.into()),
                ("replica_reps", t.reps.into()),
                ("driver_rep_s", t.driver_s.into()),
                ("replica_rep_s", t.replica_s.into()),
                ("unaccounted_share", t.unaccounted().into()),
                ("spans", trace::table_json(&t.rows)),
                (
                    "counts",
                    Value::Obj(
                        t.counts
                            .iter()
                            .map(|(k, v)| (k.to_string(), (*v).into()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let report = obj([
        (
            "per_layer",
            Value::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), (*v).into()))
                    .collect(),
            ),
        ),
        ("replicas", Value::Arr(tables)),
    ]);
    let spans = match focus {
        Some(name) => traced.remove(name).map(|t| t.spans).unwrap_or_default(),
        None => Vec::new(),
    };
    Ok(TracedRun {
        metrics,
        report,
        spans,
        attempted,
    })
}
