//! Guided search over the scripted equivocation space: random restarts,
//! greedy per-move hill-climbing, beam search over round prefixes, and
//! simulated annealing over *structured* edits (row copies, round swaps,
//! prefix crossover) — plus a bound-tightness [`period_profile`] that
//! sweeps lasso periods dividing the counter period, gated behind the
//! bit-sliced engine.
//!
//! Every strategy is **deterministic from [`SearchConfig::seed`]** — each
//! restart/worker derives its generator from `(seed, task index)`, so
//! results are bitwise independent of the thread count — and fans restarts
//! out on the persistent `sc-exec` pool, capped at [`SearchConfig::threads`].
//!
//! Budgets are counted in candidate scores; anneal answers a repeated
//! candidate from its restart's table, every other strategy sweeps each
//! candidate ([`Objective::evaluate`]). A strategy stops mid-pass when its
//! slice is spent, so a [`SearchConfig::budget`] bounds the work (budgets
//! smaller than the restart count shrink the restart pool instead of
//! overrunning; every strategy scores at least one candidate, so a zero
//! budget still costs one sweep per strategy invoked).
//!
//! A search may also carry a **goal**: with [`SearchConfig::target`] set,
//! a task stops at the first evaluated script scoring `>= target`, and the
//! report is defined in *task order* — tasks after the first one that
//! reached the target contribute nothing to it, at any thread count (the
//! serial path never runs them; the pool path discards them). A reject-only
//! caller such as the synthesis pre-filter needs exactly one witness, not
//! the strongest one the budget can buy.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_protocol::Fingerprint;

use crate::adversary::RawState;
use crate::objective::{Delay, Objective};
use crate::script::{Move, MoveSpace, Script};

/// Tuning knobs of one search run.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Explicitly scripted rounds per candidate.
    pub rounds: usize,
    /// Lasso wrap point of sampled candidates (beam candidates always wrap
    /// their whole prefix, i.e. use 0).
    pub cycle_start: usize,
    /// The move vocabulary candidates draw from.
    pub space: MoveSpace,
    /// Master seed; every sampled script and mutation derives from it.
    pub seed: u64,
    /// Total candidate-score budget of the run ([`SearchReport::evaluations`]).
    pub budget: u64,
    /// Independent restarts (hill-climb) / workers (random search).
    pub restarts: usize,
    /// Beam width of [`beam_search`].
    pub beam_width: usize,
    /// Sampled extensions per beam member per round.
    pub expansions: usize,
    /// Worker-thread cap for the restart fan-out (1 runs it inline).
    pub threads: usize,
    /// The goal: stop at the first evaluated script scoring `>= target`
    /// (see the module docs). `None` spends the whole budget looking for
    /// the strongest script.
    pub target: Option<Delay>,
}

impl SearchConfig {
    /// A sensible default configuration for `rounds`-round scripts over
    /// `space`, seeded by `seed`.
    pub fn new(rounds: usize, space: MoveSpace, seed: u64) -> SearchConfig {
        SearchConfig {
            rounds: rounds.max(1),
            cycle_start: 0,
            space,
            seed,
            budget: 256,
            restarts: 4,
            beam_width: 4,
            expansions: 4,
            threads: sc_exec::threads(),
            target: None,
        }
    }

    /// Whether `delay` reaches the configured goal (never, without one).
    fn reached(&self, delay: Delay) -> bool {
        self.target.is_some_and(|target| delay >= target)
    }
}

/// Outcome of one search run.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// The strongest script found.
    pub best: Script,
    /// Its sweep delay.
    pub delay: Delay,
    /// Candidate scores spent — what [`SearchConfig::budget`] counts,
    /// whether a score came from a sweep or from anneal's table.
    pub evaluations: u64,
    /// Sweeps actually executed ([`Objective::evaluate`] calls), at most
    /// `evaluations`: anneal's repeated candidates cost none, every other
    /// strategy sweeps each candidate (`sweeps == evaluations`).
    pub sweeps: u64,
}

/// A report for a strategy that swept every candidate it scored.
fn swept(best: Script, delay: Delay, evaluations: u64) -> SearchReport {
    SearchReport {
        best,
        delay,
        evaluations,
        sweeps: evaluations,
    }
}

/// Derives a task-local generator: restarts are independent of scheduling.
fn task_rng(seed: u64, task: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ task.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Splits the evaluation budget over restart tasks. Budgets smaller than
/// the restart count run fewer restarts instead of overrunning: the total
/// stays ≤ [`SearchConfig::budget`] (except for the guaranteed single
/// evaluation of a zero budget).
fn split_budget(cfg: &SearchConfig) -> (u64, u64) {
    let tasks = (cfg.restarts as u64).clamp(1, cfg.budget.max(1));
    let slice = (cfg.budget / tasks).max(1);
    (tasks, slice)
}

/// Correct receivers of the objective's network, in ascending order.
fn receivers<P: sc_protocol::Counter, R>(obj: &Objective<'_, P, R>) -> Vec<usize> {
    (0..obj.protocol().n())
        .filter(|v| !obj.fault_set().contains(v))
        .collect()
}

/// One random-search worker: samples `slice` fresh scripts, keeps the best.
fn random_slice<P, R>(
    obj: &mut Objective<'_, P, R>,
    cfg: &SearchConfig,
    task: u64,
    slice: u64,
) -> SearchReport
where
    P: Fingerprint,
    R: RawState<P::State>,
{
    let mut rng = task_rng(cfg.seed, task);
    let n = obj.protocol().n();
    let fault_set = obj.fault_set().to_vec();
    let mut best_script = Script::random(
        n,
        fault_set.clone(),
        cfg.rounds,
        cfg.cycle_start,
        &cfg.space,
        &mut rng,
    );
    let mut best = obj.evaluate(&best_script);
    let mut used = 1u64;
    while used < slice && !cfg.reached(best) {
        let candidate = Script::random(
            n,
            fault_set.clone(),
            cfg.rounds,
            cfg.cycle_start,
            &cfg.space,
            &mut rng,
        );
        let delay = obj.evaluate(&candidate);
        used += 1;
        if delay > best {
            best = delay;
            best_script = candidate;
        }
    }
    swept(best_script, best, used)
}

/// One hill-climb restart: start from a random script and greedily mutate
/// one (round, sender, receiver) move at a time, keeping strict
/// improvements — edits are applied **in place** and undone on rejection
/// ([`Script::set_move`]), so no script is cloned per candidate.
fn climb_restart<P, R>(
    obj: &mut Objective<'_, P, R>,
    cfg: &SearchConfig,
    task: u64,
    slice: u64,
) -> SearchReport
where
    P: Fingerprint,
    R: RawState<P::State>,
{
    let mut rng = task_rng(cfg.seed, task.wrapping_add(0x5eed));
    let n = obj.protocol().n();
    let fault_set = obj.fault_set().to_vec();
    let receivers = receivers(obj);
    let mut script = Script::random(
        n,
        fault_set.clone(),
        cfg.rounds,
        cfg.cycle_start,
        &cfg.space,
        &mut rng,
    );
    let mut best = obj.evaluate(&script);
    let mut used = 1u64;
    'passes: loop {
        let mut improved = false;
        for round in 0..cfg.rounds {
            for g in 0..fault_set.len() {
                for &to in &receivers {
                    if used >= slice || cfg.reached(best) {
                        break 'passes;
                    }
                    let candidate = cfg.space.sample(&mut rng);
                    let previous = script.set_move(round, g, to, candidate);
                    if previous == candidate {
                        continue;
                    }
                    let delay = obj.evaluate(&script);
                    used += 1;
                    if delay > best {
                        best = delay;
                        improved = true;
                    } else {
                        script.set_move(round, g, to, previous);
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    swept(script, best, used)
}

/// Copies faulty sender `g`'s whole row (its moves toward every receiver)
/// from explicit round `src` into round `dst`, returning the overwritten
/// row for undo. `src` must differ from `dst`.
fn copy_row(script: &mut Script, src: usize, dst: usize, g: usize) -> Vec<Move> {
    debug_assert_ne!(src, dst);
    (0..script.n())
        .map(|to| {
            let m = script.move_at(src as u64, g, to);
            script.set_move(dst, g, to, m)
        })
        .collect()
}

/// Restores a row previously displaced by [`copy_row`].
fn restore_row(script: &mut Script, dst: usize, g: usize, prev: &[Move]) {
    for (to, &m) in prev.iter().enumerate() {
        script.set_move(dst, g, to, m);
    }
}

/// Swaps two explicit rounds in place (its own inverse).
fn swap_rounds(script: &mut Script, a: usize, b: usize) {
    let n = script.n();
    for g in 0..script.fault_set().len() {
        for to in 0..n {
            let ma = script.move_at(a as u64, g, to);
            let mb = script.set_move(b, g, to, ma);
            script.set_move(a, g, to, mb);
        }
    }
}

/// Overwrites rounds `0..k` of `current` with the donor's prefix
/// (crossover), returning the displaced moves row-major for undo.
fn splice_prefix(current: &mut Script, donor: &Script, k: usize) -> Vec<Move> {
    let n = current.n();
    let f = current.fault_set().len();
    let mut prev = Vec::with_capacity(k * f * n);
    for round in 0..k {
        for g in 0..f {
            for to in 0..n {
                let m = donor.move_at(round as u64, g, to);
                prev.push(current.set_move(round, g, to, m));
            }
        }
    }
    prev
}

/// Restores a prefix previously displaced by [`splice_prefix`].
fn restore_prefix(current: &mut Script, k: usize, prev: &[Move]) {
    let n = current.n();
    let f = current.fault_set().len();
    let mut moves = prev.iter();
    for round in 0..k {
        for g in 0..f {
            for to in 0..n {
                current.set_move(round, g, to, *moves.next().expect("prefix undo width"));
            }
        }
    }
}

/// Inverse of one structured edit.
enum Undo {
    Point {
        round: usize,
        g: usize,
        to: usize,
        prev: Move,
    },
    Row {
        dst: usize,
        g: usize,
        prev: Vec<Move>,
    },
    Swap {
        a: usize,
        b: usize,
    },
    Prefix {
        k: usize,
        prev: Vec<Move>,
    },
}

/// Score-table capacity of one annealing restart. Repeats cluster in time
/// (an edit that changes nothing, a rejected candidate recreated a few
/// steps later), so when the table fills it is dropped wholesale rather
/// than tracking recency per entry; a dropped script is simply swept
/// again, at the same score.
const MAX_SCORED_SCRIPTS: usize = 1024;

/// One annealing restart's memo of the scripts it has swept.
/// [`Objective::evaluate`] is a pure function of the script (the sweep's
/// initial configurations, horizon, fault set and engine are fixed), so a
/// repeated candidate is answered with its stored [`Delay`]: the walk —
/// acceptance, cooling, RNG draws — is exactly the one that re-sweeps it.
/// Lives and dies with its restart, so no two searches share scores.
#[derive(Default)]
struct ScoreTable {
    scores: HashMap<Script, Delay>,
    /// Sweeps executed: the table's misses.
    sweeps: u64,
}

impl ScoreTable {
    /// `script`'s delay: looked up, or swept and remembered.
    fn score<P, R>(&mut self, obj: &mut Objective<'_, P, R>, script: &Script) -> Delay
    where
        P: Fingerprint,
        R: RawState<P::State>,
    {
        if let Some(&delay) = self.scores.get(script) {
            return delay;
        }
        let delay = obj.evaluate(script);
        self.sweeps += 1;
        if self.scores.len() >= MAX_SCORED_SCRIPTS {
            self.scores.clear();
        }
        self.scores.insert(script.clone(), delay);
        delay
    }
}

/// One annealing restart: a random walk over **structured** edits — point
/// mutations, whole-row copies, round swaps, and prefix crossover with the
/// restart's best-so-far script — accepting strict improvements always and
/// regressions with a probability that cools linearly over the slice.
/// Structured edits move many coordinates at once, so they escape the
/// single-move local optima [`climb_restart`] gets stuck in; the downhill
/// acceptance keeps the walk from re-converging to them.
///
/// Many edits leave the script unchanged (a point mutation drawing the move
/// already there, a row copy between agreeing rows, a crossover right after
/// `best` was set to `current`) or recreate a candidate rejected earlier;
/// every candidate still counts against the slice, but only the first
/// occurrence of a script is swept ([`ScoreTable`]).
fn anneal_restart<P, R>(
    obj: &mut Objective<'_, P, R>,
    cfg: &SearchConfig,
    task: u64,
    slice: u64,
) -> SearchReport
where
    P: Fingerprint,
    R: RawState<P::State>,
{
    let mut rng = task_rng(cfg.seed, task.wrapping_add(0xa22ea1));
    let n = obj.protocol().n();
    let fault_set = obj.fault_set().to_vec();
    let f = fault_set.len();
    let receivers = receivers(obj);
    let mut current = Script::random(
        n,
        fault_set.clone(),
        cfg.rounds,
        cfg.cycle_start,
        &cfg.space,
        &mut rng,
    );
    let mut table = ScoreTable::default();
    let mut current_delay = table.score(obj, &current);
    let mut best = current.clone();
    let mut best_delay = current_delay;
    let mut used = 1u64;
    while used < slice && !cfg.reached(best_delay) {
        let rounds = current.len();
        // Row copy / round swap / crossover need two distinct rounds.
        let kind = if rounds >= 2 {
            rng.random_range(0..4u8)
        } else {
            0
        };
        let undo = match kind {
            0 => {
                let round = rng.random_range(0..rounds);
                let g = rng.random_range(0..f);
                let to = receivers[rng.random_range(0..receivers.len())];
                let prev = current.set_move(round, g, to, cfg.space.sample(&mut rng));
                Undo::Point { round, g, to, prev }
            }
            1 => {
                let src = rng.random_range(0..rounds);
                let mut dst = rng.random_range(0..rounds - 1);
                if dst >= src {
                    dst += 1;
                }
                let g = rng.random_range(0..f);
                let prev = copy_row(&mut current, src, dst, g);
                Undo::Row { dst, g, prev }
            }
            2 => {
                let a = rng.random_range(0..rounds);
                let mut b = rng.random_range(0..rounds - 1);
                if b >= a {
                    b += 1;
                }
                swap_rounds(&mut current, a, b);
                Undo::Swap { a, b }
            }
            _ => {
                let k = rng.random_range(1..=rounds);
                let prev = splice_prefix(&mut current, &best, k);
                Undo::Prefix { k, prev }
            }
        };
        let delay = table.score(obj, &current);
        used += 1;
        // Cooling: downhill acceptance decays from ~0.2 to 0 over the
        // slice. The delay order is lexicographic (not numeric), so the
        // Metropolis exponent has no natural scale; a flat cooled coin is
        // deterministic and scale-free.
        let temperature = 1.0 - used as f64 / slice.max(2) as f64;
        if delay >= current_delay || rng.random_bool(0.2 * temperature) {
            current_delay = delay;
            if delay > best_delay {
                best_delay = delay;
                best = current.clone();
            }
        } else {
            match undo {
                Undo::Point { round, g, to, prev } => {
                    current.set_move(round, g, to, prev);
                }
                Undo::Row { dst, g, prev } => restore_row(&mut current, dst, g, &prev),
                Undo::Swap { a, b } => swap_rounds(&mut current, a, b),
                Undo::Prefix { k, prev } => restore_prefix(&mut current, k, &prev),
            }
        }
    }
    SearchReport {
        best,
        delay: best_delay,
        evaluations: used,
        sweeps: table.sweeps,
    }
}

/// Folds per-task reports (in task order) into one; ties keep the earliest
/// task, so the result is scheduling-independent. The fold stops consuming
/// at the first task that reached [`SearchConfig::target`]: fed lazily
/// (the cap-1 path) the later tasks never run, fed from a finished pool
/// map they are discarded — the same report either way.
fn fold(cfg: &SearchConfig, tasks: impl IntoIterator<Item = SearchReport>) -> SearchReport {
    let mut tasks = tasks.into_iter();
    let mut report = tasks.next().expect("at least one search task");
    while !cfg.reached(report.delay) {
        let Some(task) = tasks.next() else {
            break;
        };
        report.evaluations += task.evaluations;
        report.sweeps += task.sweeps;
        if task.delay > report.delay {
            report.delay = task.delay;
            report.best = task.best;
        }
    }
    report
}

/// Runs `tasks` independent workers on the persistent [`sc_exec`] pool,
/// capped at [`SearchConfig::threads`] executing threads. Each claiming
/// thread builds one warm clone of the objective and reuses it across the
/// tasks it claims; task results are pure functions of the task index and
/// are folded in task order ([`fold`]), so results are identical for any
/// thread count — with or without a [`SearchConfig::target`]. A cap of 1
/// runs the tasks inline on the calling thread.
fn fan_out<P, R, W>(
    obj: &Objective<'_, P, R>,
    cfg: &SearchConfig,
    tasks: u64,
    slice: u64,
    worker: W,
) -> SearchReport
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
    W: Fn(&mut Objective<'_, P, R>, &SearchConfig, u64, u64) -> SearchReport + Sync,
{
    let threads = cfg.threads.clamp(1, tasks.max(1) as usize);
    if threads == 1 {
        let mut local = obj.clone();
        return fold(
            cfg,
            (0..tasks.max(1)).map(|task| worker(&mut local, cfg, task, slice)),
        );
    }
    let locals: sc_exec::WorkerScratch<Objective<'_, P, R>> = sc_exec::WorkerScratch::new();
    fold(
        cfg,
        sc_exec::map(tasks.max(1) as usize, threads, |task| {
            locals.with(
                || obj.clone(),
                |local| worker(local, cfg, task as u64, slice),
            )
        }),
    )
}

/// Random restarts: [`SearchConfig::restarts`] independent workers sample
/// fresh scripts and keep the strongest — the coverage baseline every
/// guided strategy must beat.
pub fn random_search<P, R>(obj: &Objective<'_, P, R>, cfg: &SearchConfig) -> SearchReport
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    let (tasks, slice) = split_budget(cfg);
    fan_out(obj, cfg, tasks, slice, random_slice)
}

/// Greedy per-move hill-climb with random restarts: the workhorse strategy
/// (best delay found per evaluation in practice).
pub fn hill_climb<P, R>(obj: &Objective<'_, P, R>, cfg: &SearchConfig) -> SearchReport
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    let (tasks, slice) = split_budget(cfg);
    fan_out(obj, cfg, tasks, slice, climb_restart)
}

/// Simulated annealing over structured edits (row copy, round swap,
/// prefix crossover with the best-so-far, point mutation) with random
/// restarts. Structured edits change many moves per evaluation, so this
/// strategy only pays off on cheap evaluations — attach the bit-sliced
/// path ([`Objective::attach_sliced`]) before spending a serious budget.
/// Each restart sweeps a script only the first time it meets it, so
/// [`SearchReport::sweeps`] is usually well below `evaluations`.
pub fn anneal<P, R>(obj: &Objective<'_, P, R>, cfg: &SearchConfig) -> SearchReport
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    let (tasks, slice) = split_budget(cfg);
    fan_out(obj, cfg, tasks, slice, anneal_restart)
}

/// Beam search over round prefixes: grow scripts one round at a time,
/// keeping the [`SearchConfig::beam_width`] strongest prefixes (each
/// prefix is scored as its own lasso, wrapping from round 0).
pub fn beam_search<P, R>(obj: &Objective<'_, P, R>, cfg: &SearchConfig) -> SearchReport
where
    P: Fingerprint,
    R: RawState<P::State> + Clone,
{
    let mut obj = obj.clone();
    let mut rng = task_rng(cfg.seed, 0xbea0);
    let n = obj.protocol().n();
    let fault_set = obj.fault_set().to_vec();
    let width = fault_set.len() * n;
    let mut used = 0u64;
    let mut beam: Vec<(Script, Delay)> = Vec::new();
    for _ in 0..cfg.beam_width.max(1) {
        if used >= cfg.budget && !beam.is_empty() {
            break;
        }
        let script = Script::random(n, fault_set.clone(), 1, 0, &cfg.space, &mut rng);
        let delay = obj.evaluate(&script);
        used += 1;
        if cfg.reached(delay) {
            return swept(script, delay, used);
        }
        beam.push((script, delay));
    }
    for _ in 1..cfg.rounds {
        let mut candidates: Vec<(Script, Delay)> = Vec::new();
        for (script, _) in &beam {
            for _ in 0..cfg.expansions.max(1) {
                if used >= cfg.budget {
                    break;
                }
                let mut extended = script.clone();
                extended.push_round((0..width).map(|_| cfg.space.sample(&mut rng)).collect());
                let delay = obj.evaluate(&extended);
                used += 1;
                if cfg.reached(delay) {
                    return swept(extended, delay, used);
                }
                candidates.push((extended, delay));
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Stable descending sort: ties keep generation order, so the beam
        // is deterministic.
        candidates.sort_by_key(|candidate| std::cmp::Reverse(candidate.1));
        candidates.truncate(cfg.beam_width.max(1));
        beam = candidates;
    }
    let (best, delay) = beam
        .into_iter()
        .reduce(|acc, item| if item.1 > acc.1 { item } else { acc })
        .expect("beam holds at least one script");
    swept(best, delay, used)
}

/// The combined search: splits the budget over random restarts, beam
/// search, structured annealing, and hill-climbing (which gets the
/// largest share), and returns the strongest script found — or, with a
/// [`SearchConfig::target`], stops after the first strategy that reached
/// it. Deterministic from the seed.
pub fn search<P, R>(obj: &Objective<'_, P, R>, cfg: &SearchConfig) -> SearchReport
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    let mut random_cfg = cfg.clone();
    random_cfg.budget = cfg.budget / 8;
    let mut beam_cfg = cfg.clone();
    beam_cfg.budget = cfg.budget / 8;
    let mut anneal_cfg = cfg.clone();
    anneal_cfg.budget = cfg.budget / 4;
    let mut climb_cfg = cfg.clone();
    climb_cfg.budget = cfg.budget - random_cfg.budget - beam_cfg.budget - anneal_cfg.budget;

    // The four strategies are the combined search's tasks, in this order,
    // folded lazily: none runs once an earlier one has reached the target.
    let strategies: [&dyn Fn() -> SearchReport; 4] = [
        &|| random_search(obj, &random_cfg),
        &|| beam_search(obj, &beam_cfg),
        &|| anneal(obj, &anneal_cfg),
        &|| hill_climb(obj, &climb_cfg),
    ];
    fold(cfg, strategies.into_iter().map(|strategy| strategy()))
}

/// One point of a bound-tightness profile: the strongest attack found
/// among scripts whose lasso cycle has exactly this length.
#[derive(Clone, Debug)]
pub struct PeriodPoint {
    /// Cycle length (in rounds) of the scripts this point searched over.
    pub period: usize,
    /// The strongest script found at that period and its delay.
    pub report: SearchReport,
}

/// Bound-tightness sweep near the proven bound T(A): for every lasso
/// period dividing the protocol's counter period `C`, run the combined
/// [`search`] over scripts whose cycle is exactly that period
/// (`cycle_start = 0`), and report the strongest delay per period.
///
/// A script whose cycle divides `C` replays itself in lock-step with the
/// honest counter, so these are the natural candidates for attacks that
/// stretch stabilisation toward `T(A)` — a profile whose best delays stay
/// far below the bound is evidence of slack, one that approaches it is
/// evidence of tightness.
///
/// Near-bound horizons make the sweep orders of magnitude more expensive
/// than a single search, so it is **gated behind the bit-sliced engine**:
/// returns `None` unless the objective has a sliced path attached
/// ([`Objective::attach_sliced`]). The budget is split evenly across the
/// divisors; each period reseeds deterministically from
/// [`SearchConfig::seed`], and a [`SearchConfig::target`] applies to each
/// period's search on its own.
pub fn period_profile<P, R>(
    obj: &Objective<'_, P, R>,
    cfg: &SearchConfig,
) -> Option<Vec<PeriodPoint>>
where
    P: Fingerprint + Sync,
    P::State: Send + Sync,
    R: RawState<P::State> + Clone + Send + Sync,
{
    if !obj.is_sliced() {
        return None;
    }
    let modulus = obj.protocol().modulus().max(1) as usize;
    let divisors: Vec<usize> = (1..=modulus)
        .filter(|d| modulus.is_multiple_of(*d))
        .collect();
    let share = (cfg.budget / divisors.len() as u64).max(1);
    Some(
        divisors
            .into_iter()
            .map(|period| {
                let mut sub = cfg.clone();
                sub.rounds = period;
                sub.cycle_start = 0;
                sub.budget = share;
                sub.seed = cfg
                    .seed
                    .wrapping_add((period as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                PeriodPoint {
                    period,
                    report: search(obj, &sub),
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampledRaw;
    use sc_sim::testing::FollowMax;

    fn objective(p: &FollowMax) -> Objective<'_, FollowMax, SampledRaw<'_, FollowMax>> {
        Objective::new(p, SampledRaw(p), vec![1], 0..4, 64).unwrap()
    }

    fn config(budget: u64) -> SearchConfig {
        let mut cfg = SearchConfig::new(
            2,
            MoveSpace {
                raw_values: 4,
                salts: 3,
                max_lag: 2,
            },
            42,
        );
        cfg.budget = budget;
        cfg.restarts = 2;
        cfg
    }

    #[test]
    fn strategies_respect_the_budget_and_find_attacks() {
        let p = FollowMax { n: 4, c: 8 };
        let obj = objective(&p);
        for (name, report) in [
            ("random", random_search(&obj, &config(24))),
            ("climb", hill_climb(&obj, &config(24))),
            ("beam", beam_search(&obj, &config(24))),
            ("anneal", anneal(&obj, &config(24))),
        ] {
            assert!(
                report.evaluations <= 24,
                "{name} overran its budget: {}",
                report.evaluations
            );
            // FollowMax has resilience 0: any serious search finds an
            // attack that at least delays stabilisation.
            assert!(report.delay.worst >= 1, "{name} found nothing at all");
        }
    }

    #[test]
    fn searches_are_deterministic_and_thread_count_invariant() {
        let p = FollowMax { n: 4, c: 8 };
        let obj = objective(&p);
        let mut one = config(20);
        one.threads = 1;
        let mut many = config(20);
        many.threads = 4;
        let a = hill_climb(&obj, &one);
        let b = hill_climb(&obj, &many);
        assert_eq!(a.best, b.best);
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.evaluations, b.evaluations);
        let c = hill_climb(&obj, &one);
        assert_eq!(a.best, c.best, "same seed, same result");
        let d = anneal(&obj, &one);
        let e = anneal(&obj, &many);
        assert_eq!(d.best, e.best, "annealing is thread-count invariant");
        assert_eq!(d.delay, e.delay);
        assert_eq!(d.evaluations, e.evaluations);
        // With a goal the report is defined in task order: the first
        // evaluation of task 0 reaches the minimum delay, so task 1 — which
        // the pool path may already have run — must not show in it.
        one.target = Some(Delay::default());
        many.target = one.target;
        for strategy in [hill_climb, anneal] {
            let serial = strategy(&obj, &one);
            let pooled = strategy(&obj, &many);
            assert_eq!(serial.evaluations, 1);
            assert_eq!(serial.best, pooled.best);
            assert_eq!(serial.delay, pooled.delay);
            assert_eq!(serial.evaluations, pooled.evaluations);
        }
    }

    #[test]
    fn structured_edits_undo_cleanly() {
        // Drive one annealing restart with a slice large enough to hit
        // every edit kind, then check the returned best script still
        // scores its reported delay — undo corruption would desynchronise
        // the script from its score.
        let p = FollowMax { n: 4, c: 8 };
        let obj = objective(&p);
        let mut local = obj.clone();
        let mut cfg = config(40);
        cfg.rounds = 3;
        let report = anneal_restart(&mut local, &cfg, 0, 40);
        assert_eq!(report.evaluations, 40);
        assert_eq!(
            local.evaluate(&report.best),
            report.delay,
            "best script re-scores identically"
        );
    }

    #[test]
    fn period_profile_is_gated_behind_the_sliced_engine() {
        // FollowMax objectives have no sliced path attached here, so the
        // near-bound sweep refuses to run on the scalar engine.
        let p = FollowMax { n: 4, c: 8 };
        let obj = objective(&p);
        assert!(period_profile(&obj, &config(8)).is_none());
    }

    #[test]
    fn combined_search_beats_or_matches_pure_random() {
        let p = FollowMax { n: 4, c: 8 };
        let obj = objective(&p);
        let random = random_search(&obj, &config(32));
        let combined = search(&obj, &config(32));
        assert!(
            combined.delay >= random.delay || combined.delay.worst >= random.delay.worst,
            "combined {:?} vs random {:?}",
            combined.delay,
            random.delay
        );
    }
}
