//! The search objective: score a script by the stabilisation delay it
//! inflicts on a fixed `(seed, fault set)` sweep.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use sc_protocol::{Counter, NodeId, SyncProtocol};
use sc_sim::adversaries::normalize_faults;
use sc_sim::{
    required_confirmation, Adversary, PackedInit, Scenario, SimError, Simulation, SlicedBatch,
    SlicedProtocol,
};

use crate::adversary::{scripted_over, RawState};
use crate::script::Script;
use crate::sliced::{raw_vocabulary, SlicedScript};

/// A pre-bound sliced evaluator: scores a script by advancing every
/// scenario 64-per-word through one shared compiled model.
type SlicedEval<'a> = Arc<dyn Fn(&Script) -> Delay + Send + Sync + 'a>;

/// The delay a strategy inflicted on one sweep, ordered lexicographically
/// by `(worst, unstable, total)` — a strictly greater [`Delay`] is a
/// strictly stronger attack.
///
/// Per scenario, the delay is the measured stabilisation round; a scenario
/// that fails to stabilise inside the horizon counts as `horizon + 1`
/// (worse than any stabilising execution can score).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Delay {
    /// Worst per-scenario delay across the sweep.
    pub worst: u64,
    /// Scenarios that failed to stabilise within the horizon.
    pub unstable: usize,
    /// Sum of per-scenario delays (the hill-climbing gradient: strictly
    /// finer than `worst` alone, so single-scenario progress is visible).
    pub total: u64,
}

/// The objective harness: a prepared sweep of initial configurations on one
/// protocol and fault set, scoring scripts (and, for comparison, arbitrary
/// adversaries) by [`Delay`].
///
/// The sweep is fixed up front — initial configurations are sampled **once**
/// per seed, exactly as [`Simulation::new`] would sample them, and reused
/// for every candidate — so two evaluations differ only in the adversary.
///
/// There are two engines, verdict-identical on every script. By default the
/// inner loop is the scalar [`Simulation::run_until_stable_early`]: scripted
/// adversaries snapshot, so a run is decided at the first recurrence of a
/// (configuration, script position) pair — stabilised or not — or at the
/// counter's closure, and never executes the rounds after it.
/// [`Objective::attach_sliced`] swaps in the bit-sliced engine, 64
/// scenarios per word, which takes the closure exit lane by lane but has no
/// recurrence exit; see there for which one to pick.
///
/// Candidates are edited **in place** between evaluations
/// ([`Script::set_move`] mutate/undo); the harness itself never clones a
/// script. Annealing's per-restart score table does: it keeps one clone
/// per executed sweep (a table miss), never one per candidate.
pub struct Objective<'a, P: SyncProtocol, R> {
    protocol: &'a P,
    /// The raw vocabulary's source type; only its resolution is kept.
    raw: PhantomData<R>,
    fault_set: Vec<usize>,
    horizon: u64,
    /// `(seed, initial configuration)` per scenario, sampled once.
    inits: Vec<(u64, Vec<P::State>)>,
    evaluations: u64,
    /// The bit-sliced fast path, attached by [`Objective::attach_sliced`]:
    /// a pre-bound evaluator advancing all scenarios 64-per-word through
    /// one shared compiled model. `None` runs scripts on the scalar engine.
    sliced: Option<SlicedEval<'a>>,
    /// The raw vocabulary as [`SlicedScript`]'s packed bundles, resolved
    /// once for every script either engine scores (and shared by clones).
    vocabulary: Arc<[PackedInit<P::State>]>,
}

impl<'a, P: SyncProtocol, R> Clone for Objective<'a, P, R> {
    fn clone(&self) -> Self {
        Objective {
            protocol: self.protocol,
            raw: PhantomData,
            fault_set: self.fault_set.clone(),
            horizon: self.horizon,
            inits: self.inits.clone(),
            evaluations: self.evaluations,
            sliced: self.sliced.clone(),
            vocabulary: self.vocabulary.clone(),
        }
    }
}

impl<'a, P: SyncProtocol, R> std::fmt::Debug for Objective<'a, P, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Objective")
            .field("fault_set", &self.fault_set)
            .field("horizon", &self.horizon)
            .field("scenarios", &self.inits.len())
            .field("evaluations", &self.evaluations)
            .field("sliced", &self.sliced.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a, P: Counter, R> Objective<'a, P, R> {
    /// Prepares a sweep: one scenario per seed, each starting from the
    /// configuration [`Simulation::new`] would draw for that seed, all
    /// corrupting `fault_set` and running for at most `horizon` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HorizonTooShort`] when `horizon` cannot fit the
    /// confirmation suffix [`required_confirmation`] demands.
    pub fn new(
        protocol: &'a P,
        raw: R,
        fault_set: Vec<usize>,
        seeds: impl IntoIterator<Item = u64>,
        horizon: u64,
    ) -> Result<Self, SimError>
    where
        R: RawState<P::State>,
    {
        use rand::SeedableRng;
        let inits = seeds
            .into_iter()
            .map(|seed| {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let states = (0..protocol.n())
                    .map(|i| protocol.random_state(NodeId::new(i), &mut rng))
                    .collect();
                (seed, states)
            })
            .collect();
        Self::with_inits(protocol, raw, fault_set, inits, horizon)
    }

    /// [`Objective::new`] with the initial configurations supplied instead
    /// of sampled — the pre-filter's warm path, where the seeded sweep is
    /// invariant across every candidate of one shape. The caller must pass
    /// exactly what [`Objective::new`] would have sampled (see
    /// [`Objective::inits`]), or sweeps diverge from the cold path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HorizonTooShort`] when `horizon` cannot fit the
    /// confirmation suffix [`required_confirmation`] demands.
    pub(crate) fn with_inits(
        protocol: &'a P,
        raw: R,
        fault_set: Vec<usize>,
        inits: Vec<(u64, Vec<P::State>)>,
        horizon: u64,
    ) -> Result<Self, SimError>
    where
        R: RawState<P::State>,
    {
        let confirm = required_confirmation(protocol.modulus());
        if horizon < confirm {
            return Err(SimError::HorizonTooShort {
                horizon,
                required: confirm,
            });
        }
        let vocabulary = raw_vocabulary(&raw, &normalize_faults(fault_set.iter().copied())).into();
        Ok(Objective {
            protocol,
            raw: PhantomData,
            fault_set,
            horizon,
            inits,
            evaluations: 0,
            sliced: None,
            vocabulary,
        })
    }

    /// The `(seed, initial configuration)` sweep, as sampled by
    /// [`Objective::new`] — what [`Objective::with_inits`] takes back.
    /// Consuming lets a warm caller recover the sweep it lent without a
    /// clone.
    pub(crate) fn into_inits(self) -> Vec<(u64, Vec<P::State>)> {
        self.inits
    }

    /// The protocol under attack.
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// The fault set every candidate corrupts.
    pub fn fault_set(&self) -> &[usize] {
        &self.fault_set
    }

    /// Per-scenario round horizon.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Number of scenarios in the sweep.
    pub fn scenarios(&self) -> usize {
        self.inits.len()
    }

    /// Sweep evaluations performed so far (each is one full sweep).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Scores an arbitrary adversary on the same sweep — how the built-in
    /// strategies are measured for the search-vs-library comparison. The
    /// factory receives the scenario seed, exactly like a
    /// [`Batch`](sc_sim::Batch) adversary factory.
    pub fn measure<A, F>(&mut self, factory: F) -> Delay
    where
        A: Adversary<P::State>,
        F: FnMut(u64) -> A,
    {
        let delay = sweep(
            self.protocol,
            &self.inits,
            self.horizon,
            factory,
            |sim, horizon| sim.run_until_stable_early(horizon).0,
        );
        self.evaluations += 1;
        delay
    }

    /// Attaches the bit-sliced fast path: compiles one sliced model for the
    /// `(protocol, fault set)` pair and rebinds [`Objective::evaluate`] to
    /// run every sweep through [`SlicedBatch`], 64 scenarios per word, with
    /// the model's round-program cache shared across all evaluations (and
    /// across the search's worker clones — clones share the attachment).
    ///
    /// Returns `false` — leaving the scalar path in place — when the
    /// protocol cannot lower this fault set. Delays are verdict-identical
    /// either way: the sliced engine feeds the same detector, and the
    /// equivalence is property-tested against [`Objective::evaluate_full`].
    ///
    /// # When to attach
    ///
    /// The sliced path keeps the scalar engine's closure exit but not its
    /// recurrence exit. Under a script without stale moves a lane freezes
    /// the round its correct nodes are closed (Lemma 5,
    /// [`SlicedProtocol::closed_lanes`]) and a sweep stops once every lane
    /// has; any other lane executes all `horizon` rounds, and the first
    /// evaluation of each new face pattern pays a lowering. That is the
    /// right trade for the boosted counters, whose runs close: A(12,3) with
    /// 64 scenarios at 96 rounds, whose annealing sweeps mostly stop in
    /// the first third of the horizon, or near-bound sweeps on A(36,7). It
    /// is the wrong one for table-driven counters, which never close: with
    /// `horizon ≥ |X|^n` every scripted lasso recurs early, the scalar path
    /// stops after tens of rounds, and a sliced sweep with 4 of 64 lanes
    /// occupied still runs the whole horizon — the synthesis pre-filter
    /// ([`AttackPreFilter`](crate::AttackPreFilter)) measured 36× slower
    /// attached than not at `n = 5, |X| = 3`, horizon 251.
    ///
    /// [`Objective::measure`] always stays scalar: it scores arbitrary
    /// [`Adversary`] impls, whose per-receiver leases have no lane-uniform
    /// face-table form.
    pub fn attach_sliced(&mut self) -> bool
    where
        P: SlicedProtocol + Sync,
        P::State: Clone + Send + Sync + 'a,
        R: RawState<P::State>,
    {
        let faulty = normalize_faults(self.fault_set.iter().copied());
        let Some(model) = self.protocol.sliced_model(&faulty) else {
            return false;
        };
        // One vocabulary for every script this model sees (ids `g·256 + v`).
        let vocabulary = self.vocabulary.clone();
        let scenarios: Vec<Scenario<P::State>> = self
            .inits
            .iter()
            .map(|(seed, init)| Scenario::with_states(*seed, init.clone()))
            .collect();
        let model = Mutex::new(model);
        let protocol = self.protocol;
        let horizon = self.horizon;
        // One word of lanes per group and a single worker: an objective
        // evaluation is already one task of the search's own thread fan-out,
        // and sweeps are scored serially on the scalar path too.
        let batch = SlicedBatch::new(protocol, horizon).lane_words(1).threads(1);
        // The initial configurations never change between evaluations, so
        // they are packed here, once; a sweep copies them into its arena.
        let sweep = batch.pack(&scenarios, &model);
        self.sliced = Some(Arc::new(move |script: &Script| {
            let strategy = SlicedScript::new(script, &vocabulary[..]);
            let report = batch.run_packed(&sweep, &strategy, &model);
            let confirm = required_confirmation(protocol.modulus());
            let mut delay = Delay::default();
            for outcome in report.outcomes {
                accumulate(&mut delay, outcome.result, horizon, confirm);
            }
            delay
        }));
        true
    }

    /// Whether the bit-sliced fast path is attached.
    pub fn is_sliced(&self) -> bool {
        self.sliced.is_some()
    }

    /// Scores `script` on the sweep (the search's inner loop).
    pub fn evaluate(&mut self, script: &Script) -> Delay {
        self.check_script(script);
        if let Some(sliced) = &self.sliced {
            let delay = sliced(script);
            self.evaluations += 1;
            return delay;
        }
        let vocabulary = &self.vocabulary;
        let delay = sweep(
            self.protocol,
            &self.inits,
            self.horizon,
            |_| scripted_over(script, &vocabulary[..]),
            |sim, horizon| sim.run_until_stable_early(horizon).0,
        );
        self.evaluations += 1;
        delay
    }

    /// [`Objective::evaluate`] without the early-decision exit: executes
    /// every horizon round on the **scalar** engine, ignoring any attached
    /// sliced path. Verdicts — and therefore delays — are guaranteed
    /// identical (`early ≡ full ≡ sliced`); property tests assert it, which
    /// makes this the oracle both fast paths are checked against.
    pub fn evaluate_full(&mut self, script: &Script) -> Delay {
        self.check_script(script);
        let vocabulary = &self.vocabulary;
        let delay = sweep(
            self.protocol,
            &self.inits,
            self.horizon,
            |_| scripted_over(script, &vocabulary[..]),
            Simulation::run_until_stable,
        );
        self.evaluations += 1;
        delay
    }

    /// Guards script evaluations against fault-set mismatches.
    fn check_script(&self, script: &Script) {
        debug_assert_eq!(
            script.fault_set(),
            &self.fault_set[..],
            "script corrupts a different fault set than the objective sweeps"
        );
    }
}

/// Drives one sweep with a fresh adversary per scenario; `run` selects the
/// engine path (early-decision or full-horizon), so both evaluation modes
/// share one seeding and accumulation loop.
fn sweep<'p, P, A, F, G>(
    protocol: &'p P,
    inits: &[(u64, Vec<P::State>)],
    horizon: u64,
    mut factory: F,
    run: G,
) -> Delay
where
    P: Counter,
    A: Adversary<P::State>,
    F: FnMut(u64) -> A,
    G: Fn(&mut Simulation<'p, P, A>, u64) -> Result<sc_sim::StabilizationReport, SimError>,
{
    let confirm = required_confirmation(protocol.modulus());
    let mut delay = Delay::default();
    for (seed, init) in inits {
        let mut sim =
            Simulation::with_states(protocol, factory(*seed), init.clone(), seed.wrapping_add(1));
        let result = run(&mut sim, horizon);
        accumulate(&mut delay, result, horizon, confirm);
    }
    delay
}

/// Folds one scenario verdict into the sweep delay.
fn accumulate(
    delay: &mut Delay,
    result: Result<sc_sim::StabilizationReport, SimError>,
    horizon: u64,
    confirm: u64,
) {
    let d = match result {
        Ok(report) => report.stabilization_round,
        Err(SimError::NotStabilized { .. }) => {
            delay.unstable += 1;
            horizon + 1
        }
        Err(err) => unreachable!(
            "objective horizon was validated against the {confirm}-round confirmation: {err}"
        ),
    };
    delay.worst = delay.worst.max(d);
    delay.total += d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Move, MoveSpace, Script};
    use crate::SampledRaw;
    use sc_sim::testing::FollowMax;

    #[test]
    fn delay_orders_worst_then_unstable_then_total() {
        let weak = Delay {
            worst: 5,
            unstable: 0,
            total: 9,
        };
        let strong = Delay {
            worst: 6,
            unstable: 0,
            total: 6,
        };
        assert!(strong > weak, "worst dominates total");
        let broken = Delay {
            worst: 6,
            unstable: 1,
            total: 6,
        };
        assert!(broken > strong, "unstable breaks worst ties");
    }

    #[test]
    fn horizon_is_validated_up_front() {
        let p = FollowMax { n: 4, c: 4 };
        let err = Objective::new(&p, SampledRaw(&p), vec![1], 0..4, 5).unwrap_err();
        assert!(matches!(err, SimError::HorizonTooShort { required: 8, .. }));
    }

    #[test]
    fn raw_scripts_break_followmax_and_echoes_do_not_always() {
        // FollowMax (resilience 0) with one fault: a constant high raw
        // value pins every receiver's maximum, freezing the counter — the
        // objective must report it as maximally delayed (unstable).
        let p = FollowMax { n: 4, c: 8 };
        let mut obj = Objective::new(&p, SampledRaw(&p), vec![1], 0..4, 64).unwrap();
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(3)
        };
        let freeze = Script::random(
            4,
            vec![1],
            1,
            0,
            &MoveSpace {
                raw_values: 1, // Raw(0) only
                salts: 1,
                max_lag: 0,
            },
            &mut rng,
        );
        // SampledRaw palette state 0 for FollowMax is some fixed value —
        // every receiver sees the same frozen state every round. FollowMax
        // follows max+1, so a frozen max does not freeze the counter, but a
        // scripted *per-receiver split* does. Use two raw values split by
        // receiver parity instead.
        let mut split = freeze.clone();
        for to in [0usize, 2] {
            split.set_move(0, 0, to, Move::Raw(0));
        }
        split.set_move(0, 0, 3, Move::Raw(1));
        let d = obj.evaluate(&split);
        assert!(d.worst >= 1, "a scripted attack must register some delay");

        // Early and full evaluation agree exactly.
        let full = obj.evaluate_full(&split);
        assert_eq!(d, full, "early ≡ full on scripted runs");
        assert_eq!(obj.evaluations(), 2);
    }

    #[test]
    fn measure_scores_builtin_strategies_on_the_same_sweep() {
        let p = FollowMax { n: 4, c: 8 };
        let mut obj = Objective::new(&p, SampledRaw(&p), vec![1], 0..4, 64).unwrap();
        let none = obj.measure(|_| sc_sim::adversaries::none());
        // Fault-free FollowMax stabilises almost immediately on every seed.
        assert!(none.worst <= 2, "fault-free sweep should be fast: {none:?}");
        assert_eq!(none.unstable, 0);
    }
}
