//! Bit-sliced scenario sweeps: 64 scenarios per machine word.
//!
//! [`crate::Batch`] steps one scenario at a time through the scalar engine.
//! This module is the transposed counterpart: scenario state lives in
//! [`PlaneBuf`] planes (one `u64` word per state bit, 64 scenarios per
//! "lane"), the protocol transition is compiled **once** into a
//! [`Program`] of word ops (see `sc-core`'s DAG builder), and
//! [`SlicedBatch`] advances whole lane groups per round — per-lane fault
//! content and adversary moves become word-wise selects, packed constants,
//! ring loads and gather tables.
//!
//! The scalar engine stays the oracle: for supported adversaries every
//! sliced sweep is asserted verdict-identical (seed and stabilisation
//! [`ScenarioOutcome::result`]) against [`crate::Batch`] in the test suites
//! and the throughput gate. Two ledger fields are engine-specific and
//! deliberately excluded from that comparison:
//! [`ScenarioOutcome::fabricated_states`] (the sliced engine has no message
//! pool; it reports 0) and [`ScenarioOutcome::exit_reason`]. The sliced
//! engine takes the closure exit lane by lane, at the scalar round
//! ([`ExitReason::Closed`]), and has no cycle exit: every other lane runs
//! the full horizon ([`ExitReason::FullHorizon`]).
//!
//! The pieces:
//!
//! * [`SlicedProtocol`] — a counter that can lower its transition to round
//!   programs for a given fault set ([`RoundProgramSource`]) and check
//!   Lemma 5's closure word-parallel.
//! * [`SlicedStrategy`] — a face schedule, the one form of an oblivious
//!   adversary: one [`FaceRef`] per (faulty sender, receiver) pair per
//!   round, plus packed constant bundles and per-lane gather donors. The
//!   scalar engine plays it through [`crate::FacedAdversary`].
//! * [`SlicedBatch`] — the sweep engine, mirroring [`crate::Batch`]'s
//!   verdict pipeline ([`OnlineDetector`] per lane), and [`PackedSweep`],
//!   its initial configurations packed once.
//! * [`sliced_crash`] / [`sliced_fixed`] / [`sliced_random_periodic`] /
//!   [`sliced_replay`] / [`sliced_two_faced_periodic`] — the library's
//!   oblivious strategies.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_protocol::{
    BitVec, Counter, ExecSpaces, FaceRef, NodeId, PlaneBuf, Program, RoundFaces, SlicedLayout,
};

use crate::adversaries::{donor_id, normalize_faults};
use crate::batch::{BatchReport, Scenario, ScenarioOutcome};
use crate::early::ExitReason;
use crate::obs::SimObs;
use crate::simulation::required_confirmation;
use crate::stabilization::OnlineDetector;
use crate::SimError;

/// A compiled transition model for one (protocol, fault set) pair.
///
/// Produced by [`SlicedProtocol::sliced_model`] and driven by
/// [`SlicedBatch`]: the engine packs states through
/// [`extend_bundle`](RoundProgramSource::extend_bundle), registers the
/// strategy's packed bundles, and asks for one [`Program`] per distinct
/// (canonicalised) face pattern — implementations cache compiled programs,
/// so a lasso-periodic attack costs at most one compile per distinct round
/// pattern no matter how many sweeps reuse the model.
pub trait RoundProgramSource {
    /// The per-node bundle layout of the model's arenas.
    fn layout(&self) -> SlicedLayout;

    /// Extends a codec-encoded state of `node` (the first
    /// [`SlicedLayout::state_bits`] bits of `bundle`) into a full bundle by
    /// appending the derived ext planes and the output field. The node
    /// matters when outputs are node-dependent (per-node LUT tables).
    fn extend_bundle(&self, node: u32, bundle: &mut BitVec);

    /// Registers packed bundle `id`. `uniform` carries the full bundle bits
    /// when the content is lane-uniform (compiled to constants, enabling
    /// whole-subtree folding); `None` declares a per-lane bundle the engine
    /// materialises itself. Registration is idempotent; re-registering an
    /// id with different content is a caller bug and panics.
    fn register_packed(&mut self, id: u16, uniform: Option<&BitVec>);

    /// Whether `id` is already registered. The engine skips the (costly)
    /// re-encode + idempotence check for known ids, so hot objectives that
    /// sweep thousands of scripts against one model pay the vocabulary
    /// encoding once, not per evaluation.
    fn packed_registered(&self, id: u16) -> bool {
        let _ = id;
        false
    }

    /// The compiled program for one canonicalised face pattern.
    fn round_program(&mut self, faces: &RoundFaces) -> Arc<Program>;
}

/// A counter whose transition can be lowered to bit-sliced round programs.
///
/// Returning `None` (unsupported structure for `faulty`) makes callers fall
/// back to the scalar engine — slicing is an accelerator, never a semantic
/// fork.
pub trait SlicedProtocol: Counter {
    /// Builds the compiled model for a sorted fault set.
    fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>>;

    /// [`Counter::closed`] for 64 lanes a word: sets bit `lane % 64` of
    /// `closed[lane / 64]` exactly where the lane's configuration in
    /// `arena` (node bundles laid out by `layout`) is closed over the
    /// correct nodes `honest`, and clears every other bit.
    ///
    /// [`SlicedBatch`] freezes a lane on a set bit, so a set bit carries
    /// the proof obligation of [`Counter::closed`] and must agree with it
    /// lane by lane. The default, never closed, is always sound.
    fn closed_lanes(
        &self,
        arena: &PlaneBuf,
        layout: &SlicedLayout,
        honest: &[u32],
        closed: &mut [u64],
    ) {
        let _ = (arena, layout, honest);
        closed.fill(0);
    }
}

/// Initial content of one packed bundle slot.
#[derive(Clone, Debug)]
pub enum PackedInit<S> {
    /// The same state in every lane — compiled into constants.
    Uniform {
        /// Sender identity the state is encoded as.
        node: NodeId,
        /// The lane-uniform state.
        state: S,
    },
    /// One state per lane (indexed by global scenario index).
    PerLane {
        /// Sender identity the states are encoded as.
        node: NodeId,
        /// Per-lane states, one per scenario.
        states: Vec<S>,
    },
}

/// A face schedule: an oblivious Byzantine strategy, for both engines.
///
/// Where an adaptive [`crate::Adversary`] returns per-receiver message
/// leases round by round, a face schedule declares, per round, a *face
/// table*: one [`FaceRef`] per (faulty sender, receiver) pair, all
/// lane-uniform in identity. Per-lane variation enters only through packed
/// bundles (constant per execution, e.g. crash freezes) and gather tables
/// (per-lane donor selection, e.g. seeded equivocation schedules).
/// [`SlicedBatch`] runs it 64 lanes per word, [`crate::FacedAdversary`] one
/// lane on the scalar engine.
pub trait SlicedStrategy<S> {
    /// Sorted, deduplicated fault set.
    fn faulty(&self) -> &[NodeId];

    /// Deepest replay-ring lag any face ever names (before the engine's
    /// per-round clamping).
    fn max_lag(&self) -> usize {
        0
    }

    /// Packed constant bundles, indexed by [`sc_protocol::Space::Packed`]
    /// id.
    fn packed_bundles(&self) -> &[PackedInit<S>] {
        &[]
    }

    /// Number of gather tables the faces reference.
    fn gather_tables(&self) -> usize {
        0
    }

    /// Writes the face table for `round` into `faces` (pre-sized to
    /// `faulty × n` rows). Rows for faulty receivers are ignored (the
    /// engine canonicalises them away).
    fn faces(&self, round: u64, n: usize, faces: &mut RoundFaces);

    /// Writes the per-lane donor (global node index) of each gather table
    /// for `round` in an `n`-node network: `out[table][lane - lanes.start]`.
    fn gather_donors(&self, round: u64, n: usize, lanes: Range<usize>, out: &mut [Vec<u32>]) {
        let _ = (round, n, lanes, out);
    }

    /// The schedule's position at `round`: it fixes the round's faces and
    /// gather donors and determines every later position, so
    /// [`crate::FacedAdversary`] snapshots it for the early-decision exit.
    /// `None` (the default) declares the schedule opaque.
    fn phase(&self, round: u64) -> Option<u64> {
        let _ = round;
        None
    }
}

/// Bit-sliced batched sweep runner: the transposed twin of
/// [`crate::Batch`].
///
/// Scenarios are packed 64-per-word into lane groups of
/// `64 × lane_words` lanes; each group advances through compiled round
/// programs, with per-lane stabilisation verdicts from the same
/// [`OnlineDetector`] the scalar engine uses — which is what makes verdict
/// equality structural rather than coincidental. Groups fan out on the
/// persistent [`sc_exec`] pool, claimed dynamically by its workers.
///
/// Under a ring-free schedule (`max_lag() == 0`, the schedules whose
/// fabrication rate [`crate::FacedAdversary`] knows) a lane takes the
/// scalar run loop's closure exit: before each round the group checks
/// Lemma 5 word-parallel ([`SlicedProtocol::closed_lanes`]), a lane that
/// is closed records the rest of the horizon as counting
/// ([`ExitReason::Closed`] at the scalar round) and is not observed again,
/// and the group stops executing once every lane is frozen. Replay rings
/// run every lane to the horizon.
#[derive(Clone, Copy, Debug)]
pub struct SlicedBatch<'a, P> {
    protocol: &'a P,
    horizon: u64,
    threads: usize,
    lane_words: usize,
    obs: Option<&'a SimObs>,
}

/// A sweep's initial configurations, packed once into lane-group arenas by
/// [`SlicedBatch::pack`] and run under any number of strategies by
/// [`SlicedBatch::run_packed`] — for callers that score many adversaries
/// on one fixed scenario list (attack objectives).
#[derive(Debug)]
pub struct PackedSweep {
    /// Scenario seeds, in input order.
    seeds: Vec<u64>,
    lane_words: usize,
    layout: SlicedLayout,
    /// One `total_planes × lane_words` state arena per lane group.
    groups: Vec<PlaneBuf>,
}

impl<'a, P: SlicedProtocol> SlicedBatch<'a, P> {
    /// A sweep runner giving each scenario `horizon` rounds.
    pub fn new(protocol: &'a P, horizon: u64) -> Self {
        SlicedBatch {
            protocol,
            horizon,
            threads: sc_exec::threads(),
            lane_words: 4,
            obs: None,
        }
    }

    /// Meters every scenario of this sweep into `obs`, a lane group at a
    /// time (see [`crate::Batch::observed`]). Verdicts are bitwise
    /// unchanged.
    pub fn observed(mut self, obs: &'a SimObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Caps the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the lane-group width in 64-lane words (default 4, i.e. 256
    /// scenarios per group). Wider groups amortise op dispatch over more
    /// lanes; narrower groups expose more thread parallelism for short
    /// scenario lists. Verdicts are invariant under this knob.
    pub fn lane_words(mut self, lane_words: usize) -> Self {
        self.lane_words = lane_words.max(1);
        self
    }

    /// Runs every scenario under `strategy`, producing verdicts in input
    /// order, or `None` when the protocol cannot lower this fault set (the
    /// caller falls back to [`crate::Batch`]).
    pub fn run<S>(&self, scenarios: &[Scenario<P::State>], strategy: &S) -> Option<BatchReport>
    where
        S: SlicedStrategy<P::State> + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        let model = self.protocol.sliced_model(strategy.faulty())?;
        Some(self.run_with_model(scenarios, strategy, &Mutex::new(model)))
    }

    /// [`run`](SlicedBatch::run) against a caller-owned model, so hot loops
    /// (attack objectives) reuse one compiled model — and its program cache
    /// — across thousands of sweeps: [`pack`](SlicedBatch::pack), then
    /// [`run_packed`](SlicedBatch::run_packed).
    pub fn run_with_model<S>(
        &self,
        scenarios: &[Scenario<P::State>],
        strategy: &S,
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
    ) -> BatchReport
    where
        S: SlicedStrategy<P::State> + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        self.run_packed(&self.pack(scenarios, model), strategy, model)
    }

    /// Packs the initial configurations of `scenarios` into the lane-group
    /// arenas of this runner's `lane_words`: every node's state encoded,
    /// extended by `model` and transposed into its lane. A scenario without
    /// an explicit configuration draws one from its seed as
    /// [`Simulation::new`](crate::Simulation::new) does (one `SmallRng`
    /// per seed, nodes in id order). Groups pack on the pool, like runs.
    pub fn pack(
        &self,
        scenarios: &[Scenario<P::State>],
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
    ) -> PackedSweep
    where
        P: Sync,
        P::State: Sync,
    {
        let layout = model.lock().expect("model poisoned").layout();
        let n = layout.n as usize;
        let group_lanes = self.lane_words * 64;
        let groups = sc_exec::map(scenarios.len().div_ceil(group_lanes), self.threads, |gi| {
            let start = gi * group_lanes;
            let end = (start + group_lanes).min(scenarios.len());
            let mut arena = PlaneBuf::new(layout.total_planes() as usize, self.lane_words);
            let m = model.lock().expect("model poisoned");
            let mut bits = BitVec::new();
            for (l, scenario) in scenarios[start..end].iter().enumerate() {
                let sampled: Vec<P::State>;
                let states = match &scenario.init {
                    Some(states) => states,
                    None => {
                        let mut rng = SmallRng::seed_from_u64(scenario.seed);
                        sampled = (0..n)
                            .map(|i| self.protocol.random_state(NodeId::new(i), &mut rng))
                            .collect();
                        &sampled
                    }
                };
                for (i, state) in states.iter().enumerate() {
                    bits.clear();
                    self.protocol.encode_state(NodeId::new(i), state, &mut bits);
                    m.extend_bundle(i as u32, &mut bits);
                    arena.pack_lane(l, layout.node_base(i as u32) as usize, &bits);
                }
            }
            arena
        });
        PackedSweep {
            seeds: scenarios.iter().map(|s| s.seed).collect(),
            lane_words: self.lane_words,
            layout,
            groups,
        }
    }

    /// Runs every scenario of a packed sweep under `strategy`, producing
    /// verdicts in input order — [`run_with_model`](SlicedBatch::run_with_model)
    /// without the packing.
    ///
    /// # Panics
    ///
    /// Panics if `sweep` was packed at another `lane_words` or for a model
    /// of another layout.
    pub fn run_packed<S>(
        &self,
        sweep: &PackedSweep,
        strategy: &S,
        model: &Mutex<Box<dyn RoundProgramSource + Send>>,
    ) -> BatchReport
    where
        S: SlicedStrategy<P::State> + Sync,
        P: Sync,
        P::State: Send + Sync,
    {
        assert_eq!(
            sweep.lane_words, self.lane_words,
            "the sweep was packed at another lane_words"
        );
        let confirm = required_confirmation(self.protocol.modulus());
        if self.horizon < confirm {
            let outcomes: Vec<ScenarioOutcome> = sweep
                .seeds
                .iter()
                .map(|&seed| ScenarioOutcome {
                    seed,
                    result: Err(SimError::HorizonTooShort {
                        horizon: self.horizon,
                        required: confirm,
                    }),
                    fabricated_states: 0,
                    exit_reason: ExitReason::FullHorizon,
                })
                .collect();
            if let Some(obs) = self.obs {
                for outcome in &outcomes {
                    obs.scenario_done(outcome);
                }
            }
            return BatchReport { outcomes };
        }
        if sweep.seeds.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
            };
        }

        let layout = model.lock().expect("model poisoned").layout();
        assert_eq!(
            layout, sweep.layout,
            "the sweep was packed for another model layout"
        );
        let n = layout.n as usize;
        let faulty: Vec<NodeId> = strategy.faulty().to_vec();
        let honest: Vec<u32> = (0..n as u32)
            .filter(|&i| faulty.binary_search(&NodeId::new(i as usize)).is_err())
            .collect();
        assert!(!honest.is_empty(), "sliced sweeps need a correct node");

        let packed_inits = strategy.packed_bundles();
        {
            let mut m = model.lock().expect("model poisoned");
            for (id, init) in packed_inits.iter().enumerate() {
                if m.packed_registered(id as u16) {
                    continue;
                }
                match init {
                    PackedInit::Uniform { node, state } => {
                        let mut bits = BitVec::new();
                        self.protocol.encode_state(*node, state, &mut bits);
                        m.extend_bundle(node.index() as u32, &mut bits);
                        m.register_packed(id as u16, Some(&bits));
                    }
                    PackedInit::PerLane { .. } => m.register_packed(id as u16, None),
                }
            }
        }

        let group = Group {
            sweep,
            model,
            faulty: &faulty,
            honest: &honest,
            confirm,
        };
        let run_group = |gi: usize| -> Vec<ScenarioOutcome> {
            let outcomes = GROUP_SCRATCH.with(GroupScratch::new, |scr| {
                self.run_group_with(scr, gi, &group, strategy)
            });
            // Metered per lane group as workers finish, so a long sweep's
            // scenarios/s reads live rather than at the join.
            if let Some(obs) = self.obs {
                for outcome in &outcomes {
                    obs.scenario_done(outcome);
                }
            }
            outcomes
        };

        // Workers claim groups dynamically, so long and short tails
        // load-balance; the pool restores input order.
        let outcomes = sc_exec::map(sweep.groups.len(), self.threads, run_group)
            .into_iter()
            .flatten()
            .collect();
        BatchReport { outcomes }
    }

    /// Advances and adjudicates lane group `gi` from its packed arena, on
    /// the calling thread's warm scratch buffers.
    fn run_group_with<S>(
        &self,
        scr: &mut GroupScratch,
        gi: usize,
        group: &Group<'_>,
        strategy: &S,
    ) -> Vec<ScenarioOutcome>
    where
        S: SlicedStrategy<P::State>,
    {
        let Group {
            sweep,
            model,
            faulty,
            honest,
            confirm,
        } = *group;
        let layout = &sweep.layout;
        let group_lanes = self.lane_words * 64;
        let start = gi * group_lanes;
        let end = (start + group_lanes).min(sweep.seeds.len());
        let active = end - start;
        let lw = self.lane_words;
        let n = layout.n as usize;
        let np = layout.node_planes() as usize;
        let tables = strategy.gather_tables();
        scr.reshape(
            layout.total_planes() as usize,
            np,
            lw,
            tables,
            faulty.len(),
            n,
            active,
        );
        scr.cur.copy_from(&sweep.groups[gi]);

        let mut bits = BitVec::new();
        for init in strategy.packed_bundles() {
            let buf = match init {
                // Folded into constants at compile time; the slot is never
                // loaded.
                PackedInit::Uniform { .. } => PlaneBuf::new(0, lw),
                PackedInit::PerLane { node, states } => {
                    assert!(
                        states.len() >= end,
                        "per-lane packed bundle shorter than the scenario list"
                    );
                    let mut buf = scr.packed_arena(np, lw);
                    let m = model.lock().expect("model poisoned");
                    for l in 0..active {
                        bits.clear();
                        self.protocol
                            .encode_state(*node, &states[start + l], &mut bits);
                        m.extend_bundle(node.index() as u32, &mut bits);
                        buf.pack_lane(l, 0, &bits);
                    }
                    buf
                }
            };
            scr.packed.push(buf);
        }

        scr.detectors
            .extend((0..active).map(|_| OnlineDetector::new(self.protocol.modulus())));
        observe_group(
            &scr.cur,
            layout,
            honest,
            &scr.frozen,
            &mut scr.detectors,
            &mut scr.agree,
        );

        let max_lag = strategy.max_lag();
        // The closure exit needs the fabrication rate, which only a
        // ring-free schedule fixes (`FacedAdversary::fabrication_per_round`).
        let freeze = max_lag == 0;
        for donor in &mut scr.donors {
            donor.clear();
            donor.resize(active, 0);
        }

        for round in 0..self.horizon {
            if freeze && self.freeze_closed(scr, layout, honest, round) {
                break;
            }
            strategy.faces(round, n, &mut scr.faces);
            canonicalize_faces(&mut scr.faces, round, max_lag, faulty, n);
            let program = model
                .lock()
                .expect("model poisoned")
                .round_program(&scr.faces);
            if tables > 0 {
                strategy.gather_donors(round, n, start..end, &mut scr.donors);
                for (table, gather) in scr.gathers.iter_mut().enumerate() {
                    materialize_gather(
                        gather,
                        &scr.cur,
                        layout,
                        &scr.donors[table],
                        &mut scr.donor_masks,
                    );
                }
            }
            // Planes no Store covers (faulty bundles) carry over unchanged.
            scr.next.copy_from(&scr.cur);
            let spaces = ExecSpaces {
                cur: &scr.cur,
                ring: &scr.ring,
                packed: &scr.packed,
                gather: &scr.gathers,
            };
            program.exec(&spaces, &mut scr.next, &mut scr.exec);
            observe_group(
                &scr.next,
                layout,
                honest,
                &scr.frozen,
                &mut scr.detectors,
                &mut scr.agree,
            );
            if max_lag > 0 {
                if scr.ring.len() < max_lag {
                    let entry = match scr.spare.pop() {
                        Some(mut buf) => {
                            buf.copy_from(&scr.cur);
                            buf
                        }
                        None => scr.cur.clone(),
                    };
                    scr.ring.insert(0, entry);
                } else {
                    scr.ring.rotate_right(1);
                    scr.ring[0].copy_from(&scr.cur);
                }
            }
            std::mem::swap(&mut scr.cur, &mut scr.next);
        }

        sweep.seeds[start..end]
            .iter()
            .zip(scr.detectors.drain(..))
            .zip(scr.exits.drain(..))
            .map(|((&seed, detector), exit_reason)| ScenarioOutcome {
                seed,
                result: detector.finish(confirm),
                fabricated_states: 0,
                exit_reason,
            })
            .collect()
    }

    /// The scalar run loop's closure exit for every lane at once, checked
    /// before `round` executes: each live lane whose configuration is
    /// closed ([`SlicedProtocol::closed_lanes`]) records the rest of the
    /// horizon as counting, exits [`ExitReason::Closed`] at `round` and is
    /// frozen. Returns whether every lane of the group is frozen.
    fn freeze_closed(
        &self,
        scr: &mut GroupScratch,
        layout: &SlicedLayout,
        honest: &[u32],
        round: u64,
    ) -> bool {
        self.protocol
            .closed_lanes(&scr.cur, layout, honest, &mut scr.closed);
        let rest = self.horizon - round;
        for (k, (&closed, frozen)) in scr.closed.iter().zip(&mut scr.frozen).enumerate() {
            let mut fresh = closed & !*frozen;
            *frozen |= fresh;
            while fresh != 0 {
                let lane = k * 64 + fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                scr.detectors[lane].extend_counting(rest);
                scr.exits[lane] = ExitReason::Closed { decided_at: round };
            }
        }
        scr.frozen.iter().all(|&w| w == u64::MAX)
    }
}

/// What every lane group of one [`SlicedBatch::run_packed`] call shares.
#[derive(Clone, Copy)]
struct Group<'g> {
    sweep: &'g PackedSweep,
    model: &'g Mutex<Box<dyn RoundProgramSource + Send>>,
    faulty: &'g [NodeId],
    honest: &'g [u32],
    confirm: u64,
}

/// Reusable per-worker buffers for [`SlicedBatch::run_group_with`] — the
/// plane arenas, replay ring, gather scratch and face table every group
/// would otherwise allocate from cold. Parked per OS thread in
/// [`GROUP_SCRATCH`], so hot callers (attack objectives sweep thousands
/// of scripts through one `SlicedBatch` shape) reuse warm allocations
/// across calls.
struct GroupScratch {
    /// Current / next state arenas (`total_planes × lane_words`).
    cur: PlaneBuf,
    next: PlaneBuf,
    /// Replay ring, rebuilt per group exactly as a cold run would (one
    /// entry per executed round up to `max_lag`, so clamped lags never
    /// read a stale buffer); `spare` parks its buffers between groups.
    ring: Vec<PlaneBuf>,
    spare: Vec<PlaneBuf>,
    /// Packed-bundle arenas of the current group and their pool.
    packed: Vec<PlaneBuf>,
    packed_pool: Vec<PlaneBuf>,
    gathers: Vec<PlaneBuf>,
    donors: Vec<Vec<u32>>,
    donor_masks: Vec<u64>,
    detectors: Vec<OnlineDetector>,
    /// Per active lane: how it finished.
    exits: Vec<ExitReason>,
    agree: Vec<u64>,
    /// Lane masks, one word per lane word: closed this round, and frozen
    /// (closed earlier, or past the last active lane).
    closed: Vec<u64>,
    frozen: Vec<u64>,
    faces: RoundFaces,
    /// `Program::exec`'s op arena.
    exec: Vec<u64>,
}

impl GroupScratch {
    fn new() -> GroupScratch {
        GroupScratch {
            cur: PlaneBuf::new(0, 1),
            next: PlaneBuf::new(0, 1),
            ring: Vec::new(),
            spare: Vec::new(),
            packed: Vec::new(),
            packed_pool: Vec::new(),
            gathers: Vec::new(),
            donors: Vec::new(),
            donor_masks: Vec::new(),
            detectors: Vec::new(),
            exits: Vec::new(),
            agree: Vec::new(),
            closed: Vec::new(),
            frozen: Vec::new(),
            faces: RoundFaces::default(),
            exec: Vec::new(),
        }
    }

    /// Re-shapes the buffers for one group of `active` lanes: resets what
    /// survives a matching shape, drops and rebuilds what does not. After
    /// this the scratch is indistinguishable from freshly allocated
    /// buffers, except `cur`, which the caller overwrites with the group's
    /// packed arena.
    #[allow(clippy::too_many_arguments)]
    fn reshape(
        &mut self,
        total_planes: usize,
        np: usize,
        lw: usize,
        tables: usize,
        faulty: usize,
        n: usize,
        active: usize,
    ) {
        // Ring buffers share the state arenas' shape; park them first so
        // a matching reshape reuses them.
        self.spare.append(&mut self.ring);
        if self.cur.planes() != total_planes || self.cur.lane_words() != lw {
            self.cur = PlaneBuf::new(total_planes, lw);
            self.next = PlaneBuf::new(total_planes, lw);
            self.spare.clear();
        }
        // `next` is fully overwritten by `copy_from` each round and ring
        // entries on insertion.
        self.packed_pool.append(&mut self.packed);
        self.packed_pool
            .retain(|buf| buf.planes() == np && buf.lane_words() == lw);
        if self.gathers.len() != tables
            || self
                .gathers
                .iter()
                .any(|g| g.planes() != np || g.lane_words() != lw)
        {
            self.gathers = (0..tables).map(|_| PlaneBuf::new(np, lw)).collect();
        }
        self.donors.truncate(tables);
        self.donors.resize_with(tables, Vec::new);
        self.donor_masks.clear();
        self.donor_masks.resize(n * lw, 0);
        self.detectors.clear();
        self.exits.clear();
        self.exits.resize(active, ExitReason::FullHorizon);
        self.closed.clear();
        self.closed.resize(lw, 0);
        self.frozen.clear();
        self.frozen
            .extend((0..lw).map(|k| match active.saturating_sub(k * 64) {
                0 => u64::MAX,
                live if live >= 64 => 0,
                live => u64::MAX << live,
            }));
        self.faces = RoundFaces::new(faulty, n);
    }

    /// A zeroed `np × lw` packed arena, reusing a parked buffer when one
    /// fits (the pool was filtered to matching shapes by `reshape`).
    fn packed_arena(&mut self, np: usize, lw: usize) -> PlaneBuf {
        match self.packed_pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => PlaneBuf::new(np, lw),
        }
    }
}

/// Per-OS-thread [`GroupScratch`] slots, warm across `SlicedBatch` runs.
static GROUP_SCRATCH: sc_exec::WorkerScratch<GroupScratch> = sc_exec::WorkerScratch::new();

/// Clamps ring lags to what the execution has actually produced (the scalar
/// replay/stale semantics: effective lag `min(lag, round)`), rewrites
/// zero-lag rings to plain echoes, and blanks rows aimed at faulty
/// receivers — making equal-in-effect face tables equal as cache keys.
fn canonicalize_faces(
    faces: &mut RoundFaces,
    round: u64,
    max_lag: usize,
    faulty: &[NodeId],
    n: usize,
) {
    for g in 0..faulty.len() {
        for v in 0..n {
            let idx = g * n + v;
            if faulty.binary_search(&NodeId::new(v)).is_ok() {
                faces.rows[idx] = FaceRef::Honest(0);
                continue;
            }
            if let FaceRef::Ring { lag, donor } = faces.rows[idx] {
                let eff = (lag as u64).min(round).min(max_lag as u64) as u8;
                faces.rows[idx] = if eff == 0 {
                    FaceRef::Honest(donor)
                } else {
                    FaceRef::Ring { lag: eff, donor }
                };
            }
        }
    }
}

/// Word-parallel agreement check plus a feed of the [`OnlineDetector`] of
/// every lane not `frozen` — the sliced equivalent of observing
/// [`Simulation::agreed_output_now`](crate::Simulation::agreed_output_now).
fn observe_group(
    arena: &PlaneBuf,
    layout: &SlicedLayout,
    honest: &[u32],
    frozen: &[u64],
    detectors: &mut [OnlineDetector],
    agree: &mut Vec<u64>,
) {
    let lw = arena.lane_words();
    let ow = layout.out_bits as usize;
    let out0 = layout.out_base(honest[0]) as usize;
    agree.clear();
    agree.resize(lw, u64::MAX);
    for &h in &honest[1..] {
        let out_h = layout.out_base(h) as usize;
        for (k, word) in agree.iter_mut().enumerate() {
            let mut eq = u64::MAX;
            for i in 0..ow {
                eq &= !(arena.word(out_h + i, k) ^ arena.word(out0 + i, k));
            }
            *word &= eq;
        }
    }
    for (lane, detector) in detectors.iter_mut().enumerate() {
        if (frozen[lane / 64] >> (lane % 64)) & 1 == 1 {
            continue;
        }
        let agreed = if (agree[lane / 64] >> (lane % 64)) & 1 == 1 {
            Some(arena.read_value(lane, out0, ow))
        } else {
            None
        };
        detector.observe(agreed);
    }
}

/// Builds one gather table: per lane, a full copy of the donor node's
/// current bundle, assembled with one OR-mask pass per distinct donor.
fn materialize_gather(
    gather: &mut PlaneBuf,
    cur: &PlaneBuf,
    layout: &SlicedLayout,
    donors: &[u32],
    masks: &mut [u64],
) {
    let lw = cur.lane_words();
    masks.iter_mut().for_each(|w| *w = 0);
    for (lane, &d) in donors.iter().enumerate() {
        masks[d as usize * lw + lane / 64] |= 1u64 << (lane % 64);
    }
    gather.clear();
    let np = layout.node_planes() as usize;
    for d in 0..layout.n as usize {
        let mask = &masks[d * lw..(d + 1) * lw];
        if mask.iter().all(|&w| w == 0) {
            continue;
        }
        let base = layout.node_base(d as u32) as usize;
        for i in 0..np {
            for (k, &m) in mask.iter().enumerate() {
                if m != 0 {
                    *gather.word_mut(i, k) |= m & cur.word(base + i, k);
                }
            }
        }
    }
}

// ---- built-in strategies -------------------------------------------------

/// Face schedule of [`crate::adversaries::crash`]: per lane, each faulty
/// node freezes the state the lane's seed samples for it.
pub fn sliced_crash<P: sc_protocol::SyncProtocol>(
    protocol: &P,
    faulty: impl IntoIterator<Item = usize>,
    seeds: &[u64],
) -> SlicedPalette<P::State> {
    SlicedPalette::sampled(protocol, faulty, seeds, 1, 1)
}

/// Face schedule of [`crate::adversaries::fixed`]: every faulty node shows
/// `state` to every receiver, in every lane.
pub fn sliced_fixed<S: Clone>(
    faulty: impl IntoIterator<Item = usize>,
    state: S,
) -> SlicedPalette<S> {
    let faulty = normalize_faults(faulty);
    let packed = faulty
        .iter()
        .map(|&node| PackedInit::Uniform {
            node,
            state: state.clone(),
        })
        .collect();
    SlicedPalette {
        faulty,
        period: 1,
        width: 1,
        packed,
    }
}

/// Face schedule of [`crate::random_periodic`]: per lane, a palette of
/// `period · |faulty| · n` states drawn from the lane's seed; round `t`
/// shows entry `(t mod period, sender, receiver)`.
///
/// # Panics
///
/// Panics if the palette exceeds 65536 states.
pub fn sliced_random_periodic<P: sc_protocol::SyncProtocol>(
    protocol: &P,
    faulty: impl IntoIterator<Item = usize>,
    seeds: &[u64],
    period: usize,
) -> SlicedPalette<P::State> {
    SlicedPalette::sampled(protocol, faulty, seeds, period.max(1), protocol.n())
}

/// A packed palette: round `t`, faulty node `g` shows receiver `v` bundle
/// `(t mod period · f + g) · width + v mod width` — one per sender when
/// `width` is 1 ([`sliced_crash`], [`crate::adversaries::fixed`]), one per
/// receiver when it is `n` ([`crate::random_periodic`]).
#[derive(Clone, Debug)]
pub struct SlicedPalette<S> {
    faulty: Vec<NodeId>,
    period: usize,
    width: usize,
    packed: Vec<PackedInit<S>>,
}

impl<S> SlicedPalette<S> {
    /// One state per entry and lane, drawn from the lane's seed (one
    /// `SmallRng`, entries in order: slot, sender, receiver).
    pub(crate) fn sampled<P: sc_protocol::SyncProtocol<State = S>>(
        protocol: &P,
        faulty: impl IntoIterator<Item = usize>,
        seeds: &[u64],
        period: usize,
        width: usize,
    ) -> Self {
        let faulty = normalize_faults(faulty);
        let senders: Vec<NodeId> = (0..period * faulty.len() * width)
            .map(|entry| faulty[entry / width % faulty.len()])
            .collect();
        assert!(
            senders.len() <= 1 << 16,
            "palettes hold at most 65536 states"
        );
        let mut states: Vec<Vec<S>> = (0..senders.len()).map(|_| Vec::new()).collect();
        for &seed in seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            for (lanes, &from) in states.iter_mut().zip(&senders) {
                lanes.push(protocol.random_state(from, &mut rng));
            }
        }
        let packed = senders
            .into_iter()
            .zip(states)
            .map(|(node, states)| PackedInit::PerLane { node, states })
            .collect();
        SlicedPalette {
            faulty,
            period,
            width,
            packed,
        }
    }
}

impl<S> SlicedStrategy<S> for SlicedPalette<S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn packed_bundles(&self) -> &[PackedInit<S>] {
        &self.packed
    }

    fn faces(&self, round: u64, n: usize, faces: &mut RoundFaces) {
        let first = round as usize % self.period * self.faulty.len();
        for g in 0..self.faulty.len() {
            for v in 0..n {
                let id = (first + g) * self.width + v % self.width;
                faces.set_face(g, n, v, FaceRef::Packed(id as u16));
            }
        }
    }

    fn phase(&self, round: u64) -> Option<u64> {
        Some(round % self.period as u64)
    }
}

/// Face schedule of [`crate::adversaries::replay`]: receiver `v` sees the
/// `v mod |honest|`-th correct node's broadcast of `delay` rounds ago.
///
/// # Panics
///
/// Panics if every node is faulty or `delay` exceeds 256 (the ring depth
/// the face encoding carries).
pub fn sliced_replay(
    n: usize,
    faulty: impl IntoIterator<Item = usize>,
    delay: usize,
) -> SlicedReplay {
    let strategy = SlicedReplay::new(faulty, delay);
    assert!(strategy.faulty.len() < n, "replay needs a correct donor");
    strategy
}

/// Strategy produced by [`sliced_replay`].
#[derive(Clone, Debug)]
pub struct SlicedReplay {
    faulty: Vec<NodeId>,
    delay: usize,
}

impl SlicedReplay {
    pub(crate) fn new(faulty: impl IntoIterator<Item = usize>, delay: usize) -> Self {
        let delay = delay.max(1);
        assert!(delay <= 256, "replay supports delays up to 256");
        SlicedReplay {
            faulty: normalize_faults(faulty),
            delay,
        }
    }
}

impl<S> SlicedStrategy<S> for SlicedReplay {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn max_lag(&self) -> usize {
        self.delay - 1
    }

    fn faces(&self, _round: u64, n: usize, faces: &mut RoundFaces) {
        let lag = (self.delay - 1) as u8;
        for v in 0..n {
            let donor = donor_id(&self.faulty, n, v).index() as u32;
            for g in 0..self.faulty.len() {
                faces.set_face(g, n, v, FaceRef::Ring { lag, donor });
            }
        }
    }

    fn phase(&self, _round: u64) -> Option<u64> {
        Some(0)
    }
}

/// Face schedule of [`crate::two_faced_periodic`]: per lane, `period` donor
/// salt pairs drawn from the lane's seed; round `t` shows even receivers
/// gather table 0 and odd ones table 1, from slot `t mod period`.
///
/// # Panics
///
/// Panics if every node is faulty (equivocation needs a donor).
pub fn sliced_two_faced_periodic(
    n: usize,
    faulty: impl IntoIterator<Item = usize>,
    seeds: &[u64],
    period: usize,
) -> SlicedTwoFacedPeriodic {
    let strategy = SlicedTwoFacedPeriodic::new(faulty, seeds, period);
    assert!(
        strategy.faulty.len() < n,
        "equivocation needs a correct donor"
    );
    strategy
}

/// Strategy produced by [`sliced_two_faced_periodic`].
#[derive(Clone, Debug)]
pub struct SlicedTwoFacedPeriodic {
    faulty: Vec<NodeId>,
    period: usize,
    /// Per-lane donor salt schedules, indexed by `round mod period`.
    schedules: Vec<Vec<(u32, u32)>>,
}

impl SlicedTwoFacedPeriodic {
    pub(crate) fn new(
        faulty: impl IntoIterator<Item = usize>,
        seeds: &[u64],
        period: usize,
    ) -> Self {
        use rand::RngCore;
        let period = period.max(1);
        let schedules = seeds
            .iter()
            .map(|&seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                (0..period)
                    .map(|_| (rng.next_u32(), rng.next_u32()))
                    .collect()
            })
            .collect();
        SlicedTwoFacedPeriodic {
            faulty: normalize_faults(faulty),
            period,
            schedules,
        }
    }
}

impl<S> SlicedStrategy<S> for SlicedTwoFacedPeriodic {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn gather_tables(&self) -> usize {
        2
    }

    fn faces(&self, _round: u64, n: usize, faces: &mut RoundFaces) {
        for g in 0..self.faulty.len() {
            for v in 0..n {
                faces.set_face(g, n, v, FaceRef::Gather((v % 2) as u8));
            }
        }
    }

    fn gather_donors(&self, round: u64, n: usize, lanes: Range<usize>, out: &mut [Vec<u32>]) {
        for (l, lane) in lanes.enumerate() {
            let (even, odd) = self.schedules[lane][round as usize % self.period];
            out[0][l] = donor_id(&self.faulty, n, even as usize).index() as u32;
            out[1][l] = donor_id(&self.faulty, n, odd as usize).index() as u32;
        }
    }

    fn phase(&self, round: u64) -> Option<u64> {
        Some(round % self.period as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use sc_protocol::{Op, Space};

    use crate::adversaries;
    use crate::batch::Batch;
    use crate::testing::FollowMax;
    use crate::two_faced_periodic;

    /// Hand-lowered round-program source for [`FollowMax`]: per honest
    /// receiver, `max` over the n faces then `+1 mod c`. Exercises every
    /// face source (cur/ring/packed-uniform/packed-dynamic/gather) without
    /// depending on the `sc-core` compiler.
    struct MaxModel {
        n: usize,
        c: u64,
        sb: u16,
        faulty: Vec<NodeId>,
        uniform: HashMap<u16, u64>,
        cache: HashMap<RoundFaces, Arc<Program>>,
    }

    impl MaxModel {
        fn layout_of(&self) -> SlicedLayout {
            SlicedLayout {
                n: self.n as u32,
                state_bits: self.sb as u32,
                ext_bits: 0,
                out_bits: self.sb as u32,
            }
        }
    }

    impl RoundProgramSource for MaxModel {
        fn layout(&self) -> SlicedLayout {
            self.layout_of()
        }

        fn extend_bundle(&self, _node: u32, bundle: &mut BitVec) {
            // out field = the state value itself (FollowMax::output is id).
            let v = bundle.reader().read_bits(self.sb as u32).unwrap();
            bundle.push_bits(v, self.sb as u32);
        }

        fn register_packed(&mut self, id: u16, uniform: Option<&BitVec>) {
            if let Some(bits) = uniform {
                let v = bits.reader().read_bits(self.sb as u32).unwrap();
                let prev = self.uniform.insert(id, v);
                assert!(prev.is_none_or(|p| p == v), "packed slot re-registered");
            }
        }

        fn round_program(&mut self, faces: &RoundFaces) -> Arc<Program> {
            if let Some(p) = self.cache.get(faces) {
                return p.clone();
            }
            let layout = self.layout_of();
            let sb = self.sb;
            let mut ops = Vec::new();
            let mut top = 0u32;
            let mut alloc = |w: u16| {
                let at = top;
                top += w as u32;
                at
            };
            for v in 0..self.n {
                let g_of = |j: usize| self.faulty.binary_search(&NodeId::new(j)).ok();
                if g_of(v).is_some() {
                    continue;
                }
                let mut operands = Vec::new();
                for j in 0..self.n {
                    let dst = alloc(sb);
                    let op = match g_of(j) {
                        None => Op::Load {
                            dst,
                            space: Space::Cur,
                            off: layout.node_base(j as u32),
                            w: sb,
                        },
                        Some(g) => match faces.face(g, self.n, v) {
                            FaceRef::Honest(d) => Op::Load {
                                dst,
                                space: Space::Cur,
                                off: layout.node_base(d),
                                w: sb,
                            },
                            FaceRef::Ring { lag, donor } => Op::Load {
                                dst,
                                space: Space::Ring(lag),
                                off: layout.node_base(donor),
                                w: sb,
                            },
                            FaceRef::Packed(id) => match self.uniform.get(&id) {
                                Some(&value) => Op::Const { dst, value, w: sb },
                                None => Op::Load {
                                    dst,
                                    space: Space::Packed(id),
                                    off: 0,
                                    w: sb,
                                },
                            },
                            FaceRef::Gather(t) => Op::Load {
                                dst,
                                space: Space::Gather(t),
                                off: 0,
                                w: sb,
                            },
                        },
                    };
                    ops.push(op);
                    operands.push(dst);
                }
                let mut best = operands[0];
                for &x in &operands[1..] {
                    let lt = alloc(1);
                    ops.push(Op::Lt {
                        dst: lt,
                        a: best,
                        aw: sb,
                        b: x,
                        bw: sb,
                    });
                    let m = alloc(sb);
                    ops.push(Op::Mux {
                        dst: m,
                        c: lt,
                        a: x,
                        b: best,
                        w: sb,
                    });
                    best = m;
                }
                let one = alloc(1);
                ops.push(Op::Const {
                    dst: one,
                    value: 1,
                    w: 1,
                });
                let t = alloc(sb + 1);
                ops.push(Op::Add {
                    dst: t,
                    a: best,
                    aw: sb,
                    b: one,
                    bw: 1,
                    w: sb + 1,
                });
                let modulus = alloc(sb + 1);
                ops.push(Op::Const {
                    dst: modulus,
                    value: self.c,
                    w: sb + 1,
                });
                let wrap = alloc(1);
                ops.push(Op::Eq {
                    dst: wrap,
                    a: t,
                    aw: sb + 1,
                    b: modulus,
                    bw: sb + 1,
                });
                let zero = alloc(sb);
                ops.push(Op::Const {
                    dst: zero,
                    value: 0,
                    w: sb,
                });
                let res = alloc(sb);
                ops.push(Op::Mux {
                    dst: res,
                    c: wrap,
                    a: zero,
                    b: t + 1, // low sb planes of the (sb+1)-wide sum
                    w: sb,
                });
                ops.push(Op::Store {
                    src: res,
                    off: layout.node_base(v as u32),
                    w: sb,
                });
                ops.push(Op::Store {
                    src: res,
                    off: layout.out_base(v as u32),
                    w: sb,
                });
            }
            let program = Arc::new(Program {
                ops,
                operands: Vec::new(),
                arena_planes: top,
            });
            self.cache.insert(faces.clone(), program.clone());
            program
        }
    }

    impl SlicedProtocol for FollowMax {
        fn sliced_model(&self, faulty: &[NodeId]) -> Option<Box<dyn RoundProgramSource + Send>> {
            Some(Box::new(MaxModel {
                n: self.n,
                c: self.c,
                sb: sc_protocol::bits_for(self.c) as u16,
                faulty: faulty.to_vec(),
                uniform: HashMap::new(),
                cache: HashMap::new(),
            }))
        }
    }

    /// Seed + stabilisation verdict, the cross-engine comparable part of an
    /// outcome (the fabrication/exit ledgers are engine-specific).
    fn verdicts(report: &BatchReport) -> Vec<(u64, &Result<crate::StabilizationReport, SimError>)> {
        report
            .outcomes
            .iter()
            .map(|o| (o.seed, &o.result))
            .collect()
    }

    #[test]
    fn sliced_crash_matches_scalar_batch() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..150);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let scalar = Batch::new(&p, 64).run(&scenarios, |s: &Scenario<u64>| {
            adversaries::crash(&p, [1, 3], s.seed)
        });
        let strategy = sliced_crash(&p, [1, 3], &seeds);
        let sliced = SlicedBatch::new(&p, 64)
            .lane_words(1)
            .run(&scenarios, &strategy)
            .expect("FollowMax lowers");
        assert_eq!(verdicts(&scalar), verdicts(&sliced));
    }

    #[test]
    fn follow_max_lanes_never_freeze() {
        // FollowMax keeps the default predicate: under a ring-free schedule
        // every lane still runs the full horizon.
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..70);
        let strategy = sliced_fixed([1], 3u64);
        let report = SlicedBatch::new(&p, 64)
            .lane_words(1)
            .run(&scenarios, &strategy)
            .unwrap();
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.exit_reason == ExitReason::FullHorizon));
    }

    #[test]
    fn sliced_replay_matches_scalar_batch() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..100);
        for delay in [1usize, 2, 4] {
            let scalar =
                Batch::new(&p, 64).run(&scenarios, |_| adversaries::replay::<u64>([2], delay));
            let strategy = sliced_replay(p.n, [2], delay);
            let sliced = SlicedBatch::new(&p, 64)
                .lane_words(1)
                .run(&scenarios, &strategy)
                .unwrap();
            assert_eq!(verdicts(&scalar), verdicts(&sliced), "delay {delay}");
        }
    }

    #[test]
    fn sliced_two_faced_periodic_matches_scalar_batch() {
        let p = FollowMax { n: 6, c: 8 };
        let scenarios = Scenario::seeds(0..130);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        for period in [1usize, 3] {
            let scalar = Batch::new(&p, 64).run(&scenarios, |s: &Scenario<u64>| {
                two_faced_periodic([0, 4], s.seed, period)
            });
            let strategy = sliced_two_faced_periodic(p.n, [0, 4], &seeds, period);
            let sliced = SlicedBatch::new(&p, 64)
                .lane_words(1)
                .run(&scenarios, &strategy)
                .unwrap();
            assert_eq!(verdicts(&scalar), verdicts(&sliced), "period {period}");
        }
    }

    #[test]
    fn explicit_initial_configurations_are_honoured() {
        let p = FollowMax { n: 4, c: 8 };
        let scenarios: Vec<Scenario<u64>> = (0..70)
            .map(|seed| Scenario::with_states(seed, vec![seed % 8, (seed + 1) % 8, 3, 5]))
            .collect();
        let scalar = Batch::new(&p, 64).run(&scenarios, |s: &Scenario<u64>| {
            adversaries::crash(&p, [0], s.seed)
        });
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&p, [0], &seeds);
        let sliced = SlicedBatch::new(&p, 64)
            .lane_words(1)
            .run(&scenarios, &strategy)
            .unwrap();
        assert_eq!(verdicts(&scalar), verdicts(&sliced));
    }

    #[test]
    fn verdicts_invariant_under_threads_and_lane_words() {
        let p = FollowMax { n: 5, c: 8 };
        let scenarios = Scenario::seeds(0..200);
        let seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
        let strategy = sliced_crash(&p, [4], &seeds);
        let base = SlicedBatch::new(&p, 64)
            .threads(1)
            .lane_words(1)
            .run(&scenarios, &strategy)
            .unwrap();
        for (threads, lane_words) in [(4, 1), (1, 2), (3, 2)] {
            let other = SlicedBatch::new(&p, 64)
                .threads(threads)
                .lane_words(lane_words)
                .run(&scenarios, &strategy)
                .unwrap();
            assert_eq!(
                verdicts(&base),
                verdicts(&other),
                "threads {threads}, lane_words {lane_words}"
            );
        }
    }

    #[test]
    fn short_horizon_fails_every_lane_up_front() {
        let p = FollowMax { n: 3, c: 4 };
        let scenarios = Scenario::seeds(0..5);
        let strategy = sliced_replay(p.n, [1], 2);
        let report = SlicedBatch::new(&p, 4).run(&scenarios, &strategy).unwrap();
        for outcome in &report.outcomes {
            assert!(matches!(
                outcome.result,
                Err(SimError::HorizonTooShort {
                    horizon: 4,
                    required: 8
                })
            ));
        }
    }
}
