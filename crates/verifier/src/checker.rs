//! The exact configuration-space model checker, driving the bitset
//! safety-game core in [`crate::game`].

use sc_core::LutCounter;
use sc_protocol::ParamError;

use crate::game::{binomial, exchangeable, Configs, Game, Index, Orbits, SetStats};

/// Which game engine an [`Analyzer`] drives.
///
/// The quotiented solver is only sound for *exchangeable* LUTs (identical
/// per-node tables, invariant under permuting received positions — see
/// `crate::game`); [`SolverMode::Auto`] detects the symmetry per
/// candidate and quotients exactly when it may.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverMode {
    /// Detect exchangeability and pick the quotient when sound (default).
    #[default]
    Auto,
    /// Always solve over full configurations (the trivial group).
    Full,
    /// Force the orbit quotient; [`Analyzer::analyze`] errors on a
    /// non-exchangeable LUT instead of silently falling back.
    Quotient,
}

/// Outcome of exhaustively verifying a candidate counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every execution, for every fault set and every Byzantine behaviour,
    /// stabilises within `worst_case_time` rounds.
    Stabilizes {
        /// The exact worst-case stabilisation time.
        worst_case_time: u64,
    },
    /// Some adversary prevents stabilisation forever.
    Fails {
        /// A fault set witnessing the failure.
        fault_set: Vec<usize>,
        /// Number of configurations from which the adversary can avoid
        /// stabilisation indefinitely.
        stuck_configs: usize,
        /// A concrete non-stabilising execution, replayable on the
        /// simulator.
        witness: Witness,
    },
}

/// A concrete infinite non-stabilising execution in lasso form: a prefix of
/// configurations followed by a cycle, together with the exact Byzantine
/// values each correct node received at each step.
///
/// `configs[t+1]` is reached from `configs[t]` when faulty node
/// `fault_set[g]` sends state `byz[t][h][g]` to the `h`-th correct node;
/// the last configuration equals `configs[cycle_start]`, closing the loop.
/// The `replayable` test in `tests/witness_replay.rs` drives the simulator
/// with exactly this script and watches the algorithm fail forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Correct nodes, in the order configurations are listed.
    pub honest: Vec<usize>,
    /// Faulty nodes, in the order Byzantine values are listed.
    pub fault_set: Vec<usize>,
    /// The configurations visited; the last equals `configs[cycle_start]`.
    pub configs: Vec<Vec<u8>>,
    /// `byz[t][h][g]`: value faulty node `g` sends to correct node `h` in
    /// step `t` (one entry per transition, `configs.len() − 1` in total).
    pub byz: Vec<Vec<Vec<u8>>>,
    /// Index at which the execution starts repeating.
    pub cycle_start: usize,
}

impl Witness {
    /// The Byzantine values to use at any round `t ≥ 0`, following the
    /// lasso: the prefix once, then the cycle forever.
    pub fn script_at(&self, t: u64) -> &Vec<Vec<u8>> {
        let steps = self.byz.len();
        let cycle = steps - self.cycle_start;
        let idx = if (t as usize) < steps {
            t as usize
        } else {
            self.cycle_start + ((t as usize - self.cycle_start) % cycle)
        };
        &self.byz[idx]
    }
}

/// Exhaustively decides whether `lut` is a self-stabilising synchronous
/// `c`-counter with the resilience its spec claims, and computes the exact
/// worst-case stabilisation time (see the crate-level documentation for the
/// method). On failure, a replayable [`Witness`] execution is extracted.
///
/// # Errors
///
/// Returns [`ParamError`] when the instance exceeds the exploration limits
/// (`|X|^{n−|F|}` configurations or `|X|^{|F|}` Byzantine combinations per
/// node too large, or more than 64 states).
pub fn verify(lut: &LutCounter) -> Result<Verdict, ParamError> {
    Analyzer::new().verify(lut)
}

/// Aggregate result of checking every fault set, without the (expensive)
/// witness extraction — this is the synthesiser's scoring function.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisSummary {
    /// Exact worst-case stabilisation time over fully-covered fault sets.
    pub worst_time: u64,
    /// Fraction of (fault set, configuration) pairs that stabilise.
    pub coverage: f64,
    /// First failing fault set, with its number of stuck configurations.
    pub failure: Option<(Vec<usize>, usize)>,
}

/// The summary fold: per-fault-set statistics, each weighted by the
/// number of fault sets it stands for, folded in enumeration order.
#[derive(Default)]
struct Fold {
    worst: u64,
    covered: u128,
    total: u128,
    failure: Option<(Vec<usize>, usize)>,
}

impl Fold {
    fn add(&mut self, fault_set: &[usize], stats: SetStats, multiplicity: u64) {
        let weight = u128::from(multiplicity);
        self.total += weight * stats.configs as u128;
        self.covered += weight * stats.covered as u128;
        if stats.covered == stats.configs {
            self.worst = self.worst.max(stats.worst_time);
        } else if self.failure.is_none() {
            self.failure = Some((fault_set.to_vec(), stats.configs - stats.covered));
        }
    }

    fn finish(self) -> AnalysisSummary {
        AnalysisSummary {
            worst_time: self.worst,
            coverage: self.covered as f64 / self.total as f64,
            failure: self.failure,
        }
    }
}

/// Checks every fault set of `lut` and aggregates exact worst-case time,
/// attractor coverage, and the first failure — without extracting a
/// witness. This is the scoring function of the synthesiser and the
/// workload of the `throughput` bench's verifier table. Equivalent to
/// `Analyzer::new().analyze(lut)`; callers scoring many candidates should
/// hold an [`Analyzer`] instead, so the game buffers are reused.
///
/// Instances large enough to amortise hand-off overhead fan the
/// independent fault-set games out on the persistent [`sc_exec`] pool;
/// results are folded in enumeration order, so the summary (including
/// which failing fault set is reported) is identical to the serial path.
///
/// # Errors
///
/// Returns [`ParamError`] when the instance exceeds the exploration limits.
pub fn analyze(lut: &LutCounter) -> Result<AnalysisSummary, ParamError> {
    Analyzer::new().analyze(lut)
}

/// A reusable [`analyze`] engine: owns the game solver's buffers, so
/// scoring many candidates (the synthesis hill-climb, a bench loop)
/// allocates nothing per evaluation once the buffers have grown to the
/// instance size. (Instances large enough for the pool fan-out seed one
/// participating thread with these warm buffers and get a warm engine
/// back; the other threads allocate their own per call.)
///
/// # Example
///
/// ```
/// use sc_core::{LutCounter, LutSpec};
/// use sc_verifier::Analyzer;
///
/// let lut = LutCounter::new(LutSpec {
///     n: 1,
///     f: 0,
///     c: 2,
///     states: 2,
///     transition: vec![vec![1, 0]],
///     output: vec![vec![0, 1]],
///     stabilization_bound: 0,
/// })?;
/// let mut analyzer = Analyzer::new();
/// assert_eq!(analyzer.analyze(&lut)?.coverage, 1.0);
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Default)]
pub struct Analyzer {
    configs: Game<Configs>,
    orbits: Game<Orbits>,
    mode: SolverMode,
    dedup_faults: bool,
}

/// Checks every fault set of `lut` on `game` — with `dedup`, one
/// representative per fault-set size — and, when `witness` is asked for,
/// re-solves the first failing fault set to extract its lasso.
fn solve_on<I: Index>(
    game: &mut Game<I>,
    lut: &LutCounter,
    dedup: bool,
    witness: bool,
) -> Result<(AnalysisSummary, Option<Witness>), ParamError> {
    let spec = lut.spec();
    let mut fold = Fold::default();
    if dedup {
        // The `f + 1` games are small enough that the fan-out would cost
        // more than it saves.
        let mut rep: Vec<usize> = Vec::with_capacity(spec.f);
        for k in 0..=spec.f.min(spec.n) {
            fold.add(&rep, game.run(lut, &rep)?, binomial(spec.n, k));
            rep.push(k);
        }
    } else {
        // Gate on the largest game in the loop — the fault-free index
        // count; tiny instances (the synthesis hill-climb) stay on this
        // thread.
        let threads = sc_exec::threads();
        let weight = I::count(spec.states as usize, spec.n).unwrap_or(usize::MAX);
        let sets: Vec<Vec<usize>> = if weight >= 1 << 12 && threads > 1 {
            FaultSets::new(spec.n, spec.f).collect()
        } else {
            Vec::new()
        };
        if sets.len() > 1 {
            fold = analyze_on_pool(sc_exec::pool(), game, lut, &sets, threads)?;
        } else {
            let mut sets = FaultSets::new(spec.n, spec.f);
            while let Some(fault_set) = sets.advance() {
                fold.add(fault_set, game.run(lut, fault_set)?, 1);
            }
        }
    }
    let summary = fold.finish();
    let witness = match &summary.failure {
        Some((fault_set, _)) if witness => {
            game.run(lut, fault_set)?;
            game.extract_witness(lut)
        }
        _ => None,
    };
    Ok((summary, witness))
}

/// Fans the fault-set games out on `pool`. Fault sets are enumerated
/// preorder with the heaviest games (the size-ascending prefix chain `[]`,
/// `[0]`, `[0,1]`, …) first, so static contiguous chunks would hand one
/// worker nearly all the work — the pool's dynamic index claiming
/// interleaves heavy and light games across whoever is free instead. Each
/// claiming thread checks out a private game for the whole call: the first
/// to ask is seeded with the analyzer's warm game (the rest bring their
/// own), and one warm game is handed back afterwards, so repeated
/// `analyze` calls keep their allocation-free steady state. Results are
/// folded in enumeration order regardless of which thread ran which game,
/// so the summary — including which failing fault set is reported and
/// which error wins — is bitwise identical to the serial path at every
/// thread count.
fn analyze_on_pool<I: Index>(
    pool: &sc_exec::Pool,
    game: &mut Game<I>,
    lut: &LutCounter,
    sets: &[Vec<usize>],
    threads: usize,
) -> Result<Fold, ParamError> {
    let cap = threads.min(sets.len()).max(1);
    let warm = std::sync::Mutex::new(Some(std::mem::take(game)));
    let games: sc_exec::WorkerScratch<Game<I>> = sc_exec::WorkerScratch::new();
    let outcomes: Vec<Result<SetStats, ParamError>> = pool.map(sets.len(), cap, |index| {
        games.with(
            || {
                warm.lock()
                    .expect("the warm-game lock is held only to take, which cannot panic")
                    .take()
                    .unwrap_or_default()
            },
            |g| g.run(lut, &sets[index]),
        )
    });
    if let Some(g) = games.take_all().into_iter().next() {
        *game = g;
    }
    let mut fold = Fold::default();
    for (fault_set, outcome) in sets.iter().zip(outcomes) {
        fold.add(fault_set, outcome?, 1);
    }
    Ok(fold)
}

impl Analyzer {
    /// An analyzer with empty buffers; the first evaluation sizes them.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// An analyzer pinned to `mode` (the default is [`SolverMode::Auto`]).
    pub fn with_mode(mode: SolverMode) -> Analyzer {
        Analyzer {
            mode,
            ..Analyzer::default()
        }
    }

    /// Switches the engine selection policy.
    pub fn set_mode(&mut self, mode: SolverMode) {
        self.mode = mode;
    }

    /// A fresh-buffered analyzer with this one's policy (engine mode and
    /// fault-set dedup) — the per-worker engine a parallel sweep hands each
    /// thread. Forks produce bitwise-identical summaries to the parent;
    /// only the warm buffers are not shared.
    pub fn fork(&self) -> Analyzer {
        Analyzer {
            mode: self.mode,
            dedup_faults: self.dedup_faults,
            ..Analyzer::default()
        }
    }

    /// Enables (or disables) symmetry-aware fault-set enumeration: for an
    /// exchangeable LUT, every fault set of one size plays an isomorphic
    /// game under honest relabeling, so [`Analyzer::analyze`] solves one
    /// representative per size `k ≤ f` (the prefix `{0, …, k−1}`) and
    /// scales its statistics by the multiplicity `C(n, k)`. The preorder
    /// enumeration visits the prefix chain first, so the reported first
    /// failure is bitwise identical to full enumeration's. The flag is a
    /// sound no-op on non-exchangeable LUTs (full enumeration runs).
    pub fn dedup_fault_sets(&mut self, dedup: bool) {
        self.dedup_faults = dedup;
    }

    /// See [`analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the instance exceeds the exploration
    /// limits, or when [`SolverMode::Quotient`] is forced on a
    /// non-exchangeable LUT.
    pub fn analyze(&mut self, lut: &LutCounter) -> Result<AnalysisSummary, ParamError> {
        self.solve(lut, false).map(|(summary, _)| summary)
    }

    /// [`verify`] on this analyzer's engines and mode: analyzes, and on
    /// failure re-solves the failing fault set to extract the replayable
    /// [`Witness`]. Both indexings extract byte-identical witnesses (the
    /// walk runs in the full space, querying the index only for
    /// decidedness), so the verdict does not depend on the mode — the
    /// `quotient_cross` suite enforces it.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when the instance exceeds the exploration
    /// limits of the selected engine.
    pub fn verify(&mut self, lut: &LutCounter) -> Result<Verdict, ParamError> {
        let (summary, witness) = self.solve(lut, true)?;
        Ok(match summary.failure {
            None => Verdict::Stabilizes {
                worst_case_time: summary.worst_time,
            },
            Some((fault_set, stuck_configs)) => Verdict::Fails {
                fault_set,
                stuck_configs,
                witness: witness.expect("a failing fault set yields a witness"),
            },
        })
    }

    /// The one engine dispatch: the orbit quotient exactly when the mode
    /// allows it and the LUT is exchangeable, the full indexing otherwise.
    fn solve(
        &mut self,
        lut: &LutCounter,
        witness: bool,
    ) -> Result<(AnalysisSummary, Option<Witness>), ParamError> {
        let symmetric = match self.mode {
            SolverMode::Full => false,
            SolverMode::Auto => exchangeable(lut),
            SolverMode::Quotient if exchangeable(lut) => true,
            SolverMode::Quotient => {
                return Err(ParamError::constraint(
                    "quotient mode needs an exchangeable LUT: identical per-node \
                     tables, symmetric in the received positions",
                ))
            }
        };
        let dedup = symmetric && self.dedup_faults;
        if symmetric {
            solve_on(&mut self.orbits, lut, dedup, witness)
        } else {
            solve_on(&mut self.configs, lut, dedup, witness)
        }
    }
}

/// Lazy enumeration of all subsets of `[n]` with at most `f` elements, in
/// the preorder the recursive enumeration used: `[]`, `[0]`, `[0,1]`, …
/// Each subset is yielded exactly when requested — callers iterate the
/// sequence once, so nothing is materialised up front.
pub(crate) struct FaultSets {
    n: usize,
    f: usize,
    current: Vec<usize>,
    started: bool,
    done: bool,
}

impl FaultSets {
    pub(crate) fn new(n: usize, f: usize) -> Self {
        FaultSets {
            n,
            f,
            current: Vec::with_capacity(f),
            started: false,
            done: false,
        }
    }
}

impl FaultSets {
    /// Advances to the next subset and lends it — the non-allocating walk
    /// the analyzer drives in its per-candidate hot loop.
    /// [`Iterator::next`] clones the lent slice.
    pub(crate) fn advance(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.current); // the empty set
        }
        // Preorder successor: descend to the first child if allowed…
        let child = self.current.last().map_or(0, |&v| v + 1);
        if self.current.len() < self.f && child < self.n {
            self.current.push(child);
            return Some(&self.current);
        }
        // …otherwise backtrack to the next sibling.
        while let Some(v) = self.current.pop() {
            if v + 1 < self.n {
                self.current.push(v + 1);
                return Some(&self.current);
            }
        }
        self.done = true;
        None
    }
}

impl Iterator for FaultSets {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.advance().map(<[usize]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::LutSpec;

    fn lut(spec: LutSpec) -> LutCounter {
        LutCounter::new(spec).unwrap()
    }

    /// Two fault-free nodes both following node 0's value + 1: a correct
    /// 2-counter stabilising in exactly one round.
    fn follow_leader() -> LutCounter {
        // index = x0 + 2·x1; next = (x0 + 1) mod 2.
        let row = vec![1, 0, 1, 0];
        lut(LutSpec {
            n: 2,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![row.clone(), row],
            output: vec![vec![0, 1], vec![0, 1]],
            stabilization_bound: 1,
        })
    }

    fn frozen() -> LutCounter {
        lut(LutSpec {
            n: 2,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![vec![0, 1, 0, 1], vec![0, 0, 1, 1]],
            output: vec![vec![0, 1], vec![0, 1]],
            stabilization_bound: 0,
        })
    }

    /// 16 states on 4 fault-free nodes (`16^4 = 65536` configurations):
    /// everyone follows node 0's value + 1 mod 16.
    fn follow_leader_16() -> LutCounter {
        let rows: Vec<u8> = (0..65536u32)
            .map(|index| ((index % 16) + 1) as u8 % 16)
            .collect();
        lut(LutSpec {
            n: 4,
            f: 0,
            c: 16,
            states: 16,
            transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
            output: vec![(0..16u64).collect(); 4],
            stabilization_bound: 1,
        })
    }

    #[test]
    fn fault_sets_enumerates_subsets_in_preorder() {
        let sets: Vec<_> = FaultSets::new(4, 1).collect();
        assert_eq!(sets.len(), 5); // ∅ + 4 singletons
        assert_eq!(sets[0], Vec::<usize>::new());
        assert_eq!(sets[1..], [vec![0], vec![1], vec![2], vec![3]]);
        let sets: Vec<_> = FaultSets::new(4, 2).collect();
        assert_eq!(sets.len(), 1 + 4 + 6);
        assert_eq!(
            sets,
            vec![
                vec![],
                vec![0],
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1],
                vec![1, 2],
                vec![1, 3],
                vec![2],
                vec![2, 3],
                vec![3],
            ]
        );
        // f = 0: only the empty set; f ≥ n: all 2^n subsets.
        assert_eq!(FaultSets::new(3, 0).count(), 1);
        assert_eq!(FaultSets::new(3, 3).count(), 8);
    }

    #[test]
    fn follow_leader_verifies_with_time_one() {
        assert_eq!(
            verify(&follow_leader()).unwrap(),
            Verdict::Stabilizes { worst_case_time: 1 }
        );
    }

    #[test]
    fn frozen_algorithm_fails_with_witness() {
        let Verdict::Fails { witness, .. } = verify(&frozen()).unwrap() else {
            panic!("frozen algorithm must fail");
        };
        // The witness is a lasso: last config closes the cycle.
        assert!(witness.configs.len() >= 2);
        assert_eq!(
            witness.configs.last(),
            witness.configs.get(witness.cycle_start),
        );
        assert_eq!(witness.byz.len(), witness.configs.len() - 1);
        // Fault-free failure: no Byzantine values needed.
        assert!(witness
            .byz
            .iter()
            .all(|step| step.iter().all(Vec::is_empty)));
    }

    #[test]
    fn witness_transitions_are_locally_consistent() {
        // Every recorded transition must satisfy the transition function
        // when the recorded Byzantine values are substituted.
        let counter = frozen();
        let Verdict::Fails { witness, .. } = verify(&counter).unwrap() else {
            panic!();
        };
        for t in 0..witness.byz.len() {
            for (hi, &node) in witness.honest.iter().enumerate() {
                let mut received = vec![0u8; counter.spec().n];
                for (hj, &hv) in witness.honest.iter().enumerate() {
                    received[hv] = witness.configs[t][hj];
                }
                for (g, &fv) in witness.fault_set.iter().enumerate() {
                    received[fv] = witness.byz[t][hi][g];
                }
                assert_eq!(
                    counter.next(node, &received),
                    witness.configs[t + 1][hi],
                    "transition {t} node {node} inconsistent"
                );
            }
        }
    }

    #[test]
    fn coverage_is_one_exactly_for_correct_algorithms() {
        let summary = analyze(&follow_leader()).unwrap();
        assert_eq!(summary.coverage, 1.0);
        assert!(summary.failure.is_none());
    }

    #[test]
    fn equivocation_breaks_quorumless_following_with_4_nodes() {
        // 4 nodes, f = 1: follow max+1. Equivocation splits the honest
        // nodes, so verification must fail.
        let x = 2u8;
        let rows: Vec<u8> = (0..16u32)
            .map(|index| {
                let max = (0..4).map(|u| (index >> u & 1) as u8).max().unwrap();
                (max + 1) % 2
            })
            .collect();
        let follow_max = lut(LutSpec {
            n: 4,
            f: 1,
            c: 2,
            states: x,
            transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
            output: vec![vec![0, 1]; 4],
            stabilization_bound: 0,
        });
        let Verdict::Fails {
            fault_set, witness, ..
        } = verify(&follow_max).unwrap()
        else {
            panic!("quorumless following must fail with f = 1");
        };
        assert_eq!(witness.fault_set, fault_set);
        // The extracted attack needs no equivocation here: sending 1 to
        // everyone freezes all max-followers at 0 — agreement without
        // counting. Check the witness transitions are all realisable.
        for t in 0..witness.byz.len() {
            for (hi, &node) in witness.honest.iter().enumerate() {
                let mut received = vec![0u8; 4];
                for (hj, &hv) in witness.honest.iter().enumerate() {
                    received[hv] = witness.configs[t][hj];
                }
                for (g, &fv) in witness.fault_set.iter().enumerate() {
                    received[fv] = witness.byz[t][hi][g];
                }
                assert_eq!(follow_max.next(node, &received), witness.configs[t + 1][hi]);
            }
        }
        // And the lasso closes.
        assert_eq!(
            witness.configs.last(),
            witness.configs.get(witness.cycle_start)
        );
    }

    /// The pool fan-out must reproduce the serial summary bitwise — same
    /// coverage, worst time, and *first* failing fault set. Driven against
    /// explicit [`sc_exec::Pool`]s with forced worker counts so real
    /// cross-thread claiming is exercised regardless of how many cores the
    /// host has (the public gate only fans out on multi-core machines).
    #[test]
    fn forced_parallel_fan_out_matches_serial_summary() {
        let x = 8u8;
        let rows = 8usize.pow(4);
        // A deterministic pseudo-random 8-state table: plenty of failing
        // fault sets, so the first-failure tie-break is exercised too.
        let transition: Vec<Vec<u8>> = (0..4)
            .map(|v| {
                (0..rows)
                    .map(|r| ((r * 2654435761 + v * 97) >> 7) as u8 % x)
                    .collect()
            })
            .collect();
        let lut = lut(LutSpec {
            n: 4,
            f: 1,
            c: 2,
            states: x,
            transition,
            output: vec![(0..8).map(|s| s % 2).collect(); 4],
            stabilization_bound: 0,
        });
        let serial = {
            let mut analyzer = Analyzer::new();
            let spec = lut.spec();
            let mut worst = 0u64;
            let mut covered = 0usize;
            let mut total = 0usize;
            let mut failure = None;
            let mut sets = FaultSets::new(spec.n, spec.f);
            while let Some(fault_set) = sets.advance() {
                let stats = analyzer.configs.run(&lut, fault_set).unwrap();
                total += stats.configs;
                covered += stats.covered;
                if stats.covered == stats.configs {
                    worst = worst.max(stats.worst_time);
                } else if failure.is_none() {
                    failure = Some((fault_set.to_vec(), stats.configs - stats.covered));
                }
            }
            AnalysisSummary {
                worst_time: worst,
                coverage: covered as f64 / total as f64,
                failure,
            }
        };
        let sets: Vec<Vec<usize>> = FaultSets::new(4, 1).collect();
        for workers in [2, 3, 5, 8] {
            let pool = sc_exec::Pool::new(workers - 1);
            let mut game = Game::<Configs>::default();
            let parallel = analyze_on_pool(&pool, &mut game, &lut, &sets, workers)
                .unwrap()
                .finish();
            assert_eq!(parallel, serial, "fan-out with {workers} workers diverges");
        }
    }

    #[test]
    fn sixteen_state_instance_verifies_beyond_seed_limits() {
        // 16^4 = 65536 configurations: rejected by the retained reference
        // checker (seed limit 1 << 14), decided exactly by the bitset core.
        let big = follow_leader_16();
        assert!(crate::reference::verify(&big).is_err());
        assert_eq!(
            verify(&big).unwrap(),
            Verdict::Stabilizes { worst_case_time: 1 }
        );
    }

    #[test]
    fn size_limits_are_enforced() {
        // 6 states on 8 nodes: 6^8 ≈ 1.7M > MAX_CONFIGS (1 << 20) → typed
        // error from the full solver's raised limits too. The table is
        // exchangeable (all-zero transitions), so the default Auto mode now
        // quotients it down to C(13, 8) = 1287 orbits and decides it.
        let states = 6u8;
        let rows = vec![0u8; 6usize.pow(8)];
        let output: Vec<u64> = (0..6).map(|i| i % 2).collect();
        let spec = LutSpec {
            n: 8,
            f: 0,
            c: 2,
            states,
            transition: vec![rows; 8],
            output: vec![output; 8],
            stabilization_bound: 0,
        };
        let big = lut(spec);
        assert!(Analyzer::with_mode(SolverMode::Full).analyze(&big).is_err());
        assert!(verify(&big).is_ok());

        // 65 correct nodes on one state: a single configuration and a
        // single orbit, but more honest positions than the odometers hold.
        // Every mode must refuse it with the same typed error, in `analyze`
        // and in `verify` alike.
        let wide = lut(LutSpec {
            n: 65,
            f: 0,
            c: 2,
            states: 1,
            transition: vec![vec![0]; 65],
            output: vec![vec![0]; 65],
            stabilization_bound: 0,
        });
        let want = ParamError::overflow("65 correct nodes exceed the odometer width");
        for mode in [SolverMode::Auto, SolverMode::Full, SolverMode::Quotient] {
            let mut analyzer = Analyzer::with_mode(mode);
            assert_eq!(analyzer.analyze(&wide), Err(want.clone()), "{mode:?}");
            assert_eq!(analyzer.verify(&wide), Err(want.clone()), "{mode:?}");
        }
    }
}
