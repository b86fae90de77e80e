//! The per-node round logic shared by the live driver and the
//! deterministic harness.
//!
//! A [`NodeCore`] owns one protocol node's evolving state plus the
//! receive-side bookkeeping: `last_seen[s]` is the most recent state
//! successfully observed from sender `s`, and is what a missed message
//! degrades to (the Byzantine model charges silence to the sender, so
//! any fallback is admissible — this one keeps honest laggards maximally
//! coherent). Fault injection is **publish-side only**: every injector
//! except `Crash` keeps reading and stepping honestly underneath, so a
//! node whose misbehaviour window closes rejoins the protocol with a
//! plausible state and the run recovers naturally.
//!
//! A node steps at the kernel's cost: it keeps its own one-receiver
//! round preparation ([`PreparedProtocol`]), refilled from `last_seen`
//! at every read, so the shared tallies are computed once per read and
//! the prepared step returns exactly what the plain step would. Encode
//! and decode scratch, the inbox, the donor list of a scripted injector
//! and its ring are all built once, so a warm round allocates nothing
//! (`tests/zero_alloc.rs`).

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{Move, RawState};
use sc_protocol::{BitVec, Broadcast, Counter, MessageView, NodeId, PreparedProtocol, StepContext};

use crate::mailbox::{MailboxPlane, OutputBoard};
use crate::plan::{FaultEntry, FaultKind};

/// What a node does at its publish point this round, as decided by
/// [`NodeCore::action`]. The drivers interpret the timing; the node
/// supplies the content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishAction {
    /// Publish the honest state to everyone at the slot start.
    Honest,
    /// Publish nothing this round.
    Mute,
    /// Publish to half the receivers, leave one slot torn, and die.
    Crash,
    /// Publish the honest state, but `delay_ns` after the slot start.
    Delayed { delay_ns: u64 },
    /// Publish a per-receiver fabricated face at the slot start.
    Equivocate,
    /// Observe the honest publishes at the observe point, then publish
    /// script-dictated states per receiver.
    Scripted,
}

/// Seed derivation shared by both drivers so a node draws the same
/// jitter/step randomness under the live and deterministic runs.
pub fn node_seed(run_seed: u64, node: usize) -> u64 {
    run_seed ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Deterministic initial configuration for a run: states drawn from the
/// protocol's own sampler under `run_seed`, in node order. Exposed so
/// equivalence tests can hand the identical configuration to `sc-sim`.
pub fn initial_states<P: Counter>(algo: &P, run_seed: u64) -> Vec<P::State> {
    let mut rng = SmallRng::seed_from_u64(run_seed);
    (0..algo.n())
        .map(|i| algo.random_state(NodeId::new(i), &mut rng))
        .collect()
}

/// One node's state machine, driver-agnostic.
pub struct NodeCore<'p, P: Counter + PreparedProtocol> {
    algo: &'p P,
    id: usize,
    n: usize,
    state: P::State,
    /// Most recent state successfully observed from each sender (own
    /// entry mirrors `state`); the miss fallback.
    last_seen: Vec<P::State>,
    /// The one-receiver round preparation over `last_seen`, refilled in
    /// place at every read.
    prep: P::RoundPrep,
    /// Messages missed per round-read, cumulative.
    missed: u64,
    rng: SmallRng,
    fault: Option<FaultEntry>,
    /// For `Scripted`: ring of observed rounds' state vectors, oldest
    /// first, back = current round (mirrors `ScriptedAdversary`).
    ring: VecDeque<Vec<P::State>>,
    retain: usize,
    /// Index of this node within the script's fault set.
    script_g: usize,
    /// For `Scripted`: the nodes outside the script's fault set,
    /// ascending — the donors a salt rotates over.
    donors: Vec<usize>,
    /// Codec scratch, shared by encode and decode.
    bits: BitVec,
    /// Outgoing message words.
    payload: Vec<u64>,
    /// Incoming message words.
    inbox: Vec<u64>,
}

/// Encodes `state` into `payload` through the `bits` scratch.
fn encode<P: Counter>(
    algo: &P,
    id: usize,
    state: &P::State,
    bits: &mut BitVec,
    payload: &mut [u64],
) {
    bits.clear();
    algo.encode_state(NodeId::new(id), state, bits);
    payload.fill(0);
    for (dst, &src) in payload.iter_mut().zip(bits.words()) {
        *dst = src;
    }
}

impl<'p, P: Counter + PreparedProtocol + RawState<P::State>> NodeCore<'p, P> {
    pub fn new(
        algo: &'p P,
        id: usize,
        initial: P::State,
        run_seed: u64,
        fault: Option<FaultEntry>,
    ) -> NodeCore<'p, P> {
        let n = algo.n();
        let words = (algo.state_bits() as usize).div_ceil(64).max(1);
        let (retain, script_g, donors) = match &fault {
            Some(FaultEntry {
                kind: FaultKind::Scripted(script),
                node,
                ..
            }) => {
                let max_lag = script.max_lag();
                let fault_set = script.fault_set();
                let g = fault_set
                    .iter()
                    .position(|&s| s == *node)
                    .expect("validated by FaultPlan");
                let donors = (0..n).filter(|i| !fault_set.contains(i)).collect();
                (if max_lag == 0 { 0 } else { max_lag + 1 }, g, donors)
            }
            _ => (0, 0, Vec::new()),
        };
        let last_seen = vec![initial.clone(); n];
        let prep = algo.prepare_round(Broadcast::States(&last_seen), &[]);
        NodeCore {
            algo,
            id,
            n,
            last_seen,
            prep,
            state: initial,
            missed: 0,
            rng: SmallRng::seed_from_u64(node_seed(run_seed, id)),
            fault,
            ring: VecDeque::new(),
            retain,
            script_g,
            donors,
            bits: BitVec::new(),
            payload: vec![0; words],
            inbox: vec![0; words],
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Cumulative count of missed messages across all reads so far.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// This node's beginning-of-round output (what an honest publish
    /// posts to the board).
    pub fn output(&self) -> u64 {
        self.algo.output(NodeId::new(self.id), &self.state)
    }

    /// Decide this round's publish behaviour. Draws the `Delayed`
    /// jitter from the node RNG, so call exactly once per round.
    pub fn action(&mut self, round: u64, period_ns: u64) -> PublishAction {
        let Some(entry) = &self.fault else {
            return PublishAction::Honest;
        };
        if !entry.active(round) {
            return PublishAction::Honest;
        }
        match &entry.kind {
            FaultKind::Crash => PublishAction::Crash,
            FaultKind::Mute => PublishAction::Mute,
            FaultKind::Delayed { jitter_permille } => {
                let max = period_ns * u64::from(*jitter_permille) / 1000;
                PublishAction::Delayed {
                    delay_ns: if max == 0 {
                        0
                    } else {
                        self.rng.random_range(0..=max)
                    },
                }
            }
            FaultKind::Equivocate => PublishAction::Equivocate,
            FaultKind::Scripted(_) => PublishAction::Scripted,
        }
    }

    /// Encodes this node's own state into `payload`.
    fn encode_own_state(&mut self) {
        encode(
            self.algo,
            self.id,
            &self.state,
            &mut self.bits,
            &mut self.payload,
        );
    }

    /// Honest publish: same state to every receiver, output posted to
    /// the board tagged `round`.
    pub fn publish_honest(&mut self, plane: &MailboxPlane, board: &OutputBoard, round: u64) {
        self.encode_own_state();
        for to in 0..self.n {
            plane.slot(self.id, to).publish(round, &self.payload);
        }
        board.post(self.id, round, self.output());
    }

    /// Capture this round's honest publish (encoded payload + board
    /// output) *without* writing it to the plane — the deterministic
    /// harness uses this to defer a `Delayed` node's publish until after
    /// the round's reads while the content still reflects the
    /// beginning-of-round state.
    pub fn capture_publish(&mut self) -> (Vec<u64>, u64) {
        self.encode_own_state();
        (self.payload.clone(), self.output())
    }

    /// Deliver a previously captured publish.
    pub fn deliver_captured(
        plane: &MailboxPlane,
        board: &OutputBoard,
        from: usize,
        round: u64,
        payload: &[u64],
        output: u64,
    ) {
        for to in 0..plane.n() {
            plane.slot(from, to).publish(round, payload);
        }
        board.post(from, round, output);
    }

    /// Crash mid-publish: half the receivers get the message, the next
    /// slot is left torn (sequence odd, as if the thread died inside
    /// `publish`), the rest never hear from this node again.
    pub fn publish_crash(&mut self, plane: &MailboxPlane, round: u64) {
        self.encode_own_state();
        let half = self.n / 2;
        for to in 0..half {
            plane.slot(self.id, to).publish(round, &self.payload);
        }
        if half < self.n {
            plane.slot(self.id, half).tear();
        }
    }

    /// Equivocate: a different fabricated face per receiver parity,
    /// rotating with the round. No board post — the board entry goes
    /// stale exactly like a mute node's.
    pub fn publish_equivocate(&mut self, plane: &MailboxPlane, round: u64) {
        let base = ((round % 100) as u8) * 2;
        for to in 0..self.n {
            let face = self
                .algo
                .raw_state(NodeId::new(self.id), base + (to % 2) as u8);
            encode(self.algo, self.id, &face, &mut self.bits, &mut self.payload);
            plane.slot(self.id, to).publish(round, &self.payload);
        }
    }

    /// Scripted observe phase: record the current round's states as the
    /// script's donor ring sees them (own observations; a missed honest
    /// sender falls back to its last seen state). Call at the observe
    /// point, before [`NodeCore::publish_scripted`].
    pub fn observe_for_script(&mut self, plane: &MailboxPlane, round: u64) {
        if self.retain == 0 {
            return;
        }
        self.observe_round(plane, round);
        let mut snapshot = if self.ring.len() >= self.retain {
            let mut old = self.ring.pop_front().expect("ring non-empty");
            old.clear();
            old
        } else {
            Vec::with_capacity(self.n)
        };
        snapshot.extend(self.last_seen.iter().cloned());
        self.ring.push_back(snapshot);
    }

    /// Scripted publish: per receiver, resolve the script's move against
    /// the donor ring exactly as `ScriptedAdversary` does.
    pub fn publish_scripted(&mut self, plane: &MailboxPlane, round: u64) {
        // If max_lag == 0 no ring is kept; echo moves still need the
        // current round's states.
        if self.retain == 0 {
            self.observe_round(plane, round);
        }
        let Some(FaultEntry {
            kind: FaultKind::Scripted(script),
            ..
        }) = &self.fault
        else {
            unreachable!("publish_scripted on a non-scripted node");
        };
        let (ring, last_seen) = (&self.ring, &self.last_seen);
        // The `salt`-th donor's state as of `depth` rounds ago (0 = the
        // current round, which the ring's back holds when a ring is
        // kept, and `last_seen` otherwise). Donor rotation mirrors
        // `sc_sim::adversaries::donor_id`.
        let donor_state = |depth: usize, salt: u8| -> &P::State {
            let donor = self.donors[salt as usize % self.donors.len().max(1)];
            match ring.back() {
                None => &last_seen[donor],
                Some(current) if depth == 0 => &current[donor],
                Some(_) => &ring[ring.len() - 1 - depth][donor],
            }
        };
        for to in 0..self.n {
            let raw;
            let state = match script.move_at(round, self.script_g, to) {
                Move::Echo(salt) => donor_state(0, salt),
                Move::Raw(value) => {
                    raw = self.algo.raw_state(NodeId::new(self.id), value);
                    &raw
                }
                Move::Stale { lag, salt } => {
                    donor_state((lag as usize).min(ring.len().saturating_sub(1)), salt)
                }
            };
            encode(self.algo, self.id, state, &mut self.bits, &mut self.payload);
            plane.slot(self.id, to).publish(round, &self.payload);
        }
    }

    /// Observe every sender's round-`round` slot addressed to this node,
    /// updating `last_seen` (misses keep the previous entry and count).
    fn observe_round(&mut self, plane: &MailboxPlane, round: u64) {
        for s in 0..self.n {
            if s == self.id {
                continue;
            }
            if plane.slot(s, self.id).observe(round, &mut self.inbox) {
                self.bits.clear();
                for &word in &self.inbox {
                    self.bits.push_bits(word, 64);
                }
                // Undecodable garbage == no message (charged to the
                // sender, exactly like a torn slot).
                if let Ok(state) = self
                    .algo
                    .decode_state(NodeId::new(s), &mut self.bits.reader())
                {
                    self.last_seen[s] = state;
                    continue;
                }
            }
            self.missed += 1;
        }
        self.last_seen[self.id] = self.state.clone();
    }

    /// Read phase + state transition: observe everyone, refill the
    /// preparation from `last_seen` (misses already degraded), and step
    /// through it — bitwise the plain `step` on the same view.
    pub fn read_and_step(&mut self, plane: &MailboxPlane, round: u64) {
        self.observe_round(plane, round);
        let received = Broadcast::States(&self.last_seen);
        self.algo.refill_round(&mut self.prep, received, &[]);
        let view = MessageView::new(&self.last_seen, &[]);
        let mut ctx = StepContext::new(&mut self.rng);
        self.state = self
            .algo
            .step_prepared(NodeId::new(self.id), &view, &mut self.prep, &mut ctx);
    }
}
