//! Face schedules on the scalar engine: an oblivious strategy is one face
//! function ([`SlicedStrategy`]), and [`FacedAdversary`] plays its first lane
//! as an [`Adversary`].

use sc_protocol::{FaceRef, MessageSource, NodeId, RoundFaces};

use crate::adversary::{Adversary, AdversarySnapshot, RoundContext, SnapshotSupport};
use crate::sliced::{PackedInit, SlicedStrategy};
use crate::workspace::StatePool;

/// The first lane of a face schedule on the scalar engine (its per-lane
/// bundles and gather donors are lane 0's: a scalar constructor builds a
/// one-lane schedule). The face table is recomputed when the schedule's
/// [`phase`](SlicedStrategy::phase) moves, and resolved once for the
/// correct receivers: [`FaceRef::Honest`] and [`FaceRef::Gather`] are
/// zero-copy echoes; a [`FaceRef::Packed`] bundle is pinned the first time
/// it is shown, once per execution; a [`FaceRef::Ring`] replays a past
/// broadcast, the lag clamped to the rounds seen (depth 0 is an echo),
/// fabricated once per (depth, donor) per round.
///
/// Deliberately not `Clone`: pinned leases belong to one execution's pool.
#[derive(Debug)]
pub struct FacedAdversary<T, S> {
    schedule: T,
    /// The ring keeps `max_lag + 1` broadcasts, the current one included.
    max_lag: usize,
    /// Network size, learnt at the first round (0 before).
    n: usize,
    /// The position of the current face table, and whether it has moved.
    phase: Option<u64>,
    moved: bool,
    faces: RoundFaces,
    /// The face table's leases (a ring face's is its depth-0 echo).
    sources: Vec<MessageSource>,
    donors: Vec<Vec<u32>>,
    leases: Vec<Option<MessageSource>>,
    /// Past broadcasts, `n` states per slot, circular; `head` is the
    /// current round's slot.
    ring: Vec<S>,
    ring_len: usize,
    head: usize,
    /// Per `(depth − 1, donor)`: round + 1 of the last fabrication, lease.
    fabricated: Vec<(u64, MessageSource)>,
    /// Ring donors the face table named while the position had not moved.
    ring_donors: Vec<bool>,
}

impl<T: SlicedStrategy<S>, S: Clone> FacedAdversary<T, S> {
    /// Plays lane 0 of `schedule`.
    pub fn new(schedule: T) -> Self {
        FacedAdversary {
            max_lag: schedule.max_lag(),
            donors: vec![vec![0]; schedule.gather_tables()],
            leases: vec![None; schedule.packed_bundles().len()],
            schedule,
            n: 0,
            phase: None,
            moved: false,
            faces: RoundFaces::default(),
            sources: Vec::new(),
            ring: Vec::new(),
            ring_len: 0,
            head: 0,
            fabricated: Vec::new(),
            ring_donors: Vec::new(),
        }
    }

    /// Ring slot of the broadcast `back` rounds before the current one.
    fn ring_slot(&self, back: usize) -> usize {
        (self.head + self.max_lag + 1 - back) % (self.max_lag + 1)
    }

    /// What `donor` broadcast `lag` rounds ago (clamped to the rounds seen),
    /// fabricated once per (depth, donor) per round. Out of line, so that
    /// [`Adversary::message`] stays small enough to inline into the round.
    #[inline(never)]
    fn replayed(
        &mut self,
        lag: u8,
        donor: u32,
        round: u64,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        let (donor, depth) = (donor as usize, lag as usize);
        let depth = depth.min(self.ring_len.saturating_sub(1));
        if depth == 0 {
            return MessageSource::Broadcast(NodeId::new(donor));
        }
        let at = self.ring_slot(depth) * self.n + donor;
        let entry = &mut self.fabricated[(depth - 1) * self.n + donor];
        if entry.0 != round + 1 {
            *entry = (round + 1, pool.fabricate(self.ring[at].clone()));
        }
        entry.1
    }
}

impl<T: SlicedStrategy<S>, S: Clone> Adversary<S> for FacedAdversary<T, S> {
    fn faulty(&self) -> &[NodeId] {
        self.schedule.faulty()
    }

    fn begin_round(&mut self, ctx: &RoundContext<'_, S>, pool: &mut StatePool<S>) {
        let n = ctx.honest.len();
        if self.n == 0 {
            self.n = n;
            self.faces = RoundFaces::new(self.schedule.faulty().len(), n);
            self.sources = vec![MessageSource::Broadcast(NodeId::new(0)); self.faces.rows.len()];
            self.ring.reserve_exact((self.max_lag + 1) * n);
            let unused = (0, MessageSource::Broadcast(NodeId::new(0)));
            self.fabricated = vec![unused; self.max_lag * n];
            self.ring_donors = vec![false; n];
        }

        let phase = self.schedule.phase(ctx.round);
        if phase.is_none() || phase != self.phase {
            self.moved |= self.phase.is_some();
            self.phase = phase;
            self.schedule.faces(ctx.round, n, &mut self.faces);
            if !self.donors.is_empty() {
                self.schedule
                    .gather_donors(ctx.round, n, 0..1, &mut self.donors);
            }
            for (at, face) in self.faces.rows.iter().enumerate() {
                if ctx.is_faulty(NodeId::new(at % n)) {
                    continue;
                }
                let echo = |donor: u32| MessageSource::Broadcast(NodeId::new(donor as usize));
                self.sources[at] = match *face {
                    FaceRef::Honest(donor) => echo(donor),
                    FaceRef::Gather(t) => echo(self.donors[t as usize][0]),
                    FaceRef::Packed(id) => *self.leases[id as usize].get_or_insert_with(|| {
                        pool.pin(match &self.schedule.packed_bundles()[id as usize] {
                            PackedInit::Uniform { state, .. } => state.clone(),
                            PackedInit::PerLane { states, .. } => states[0].clone(),
                        })
                    }),
                    FaceRef::Ring { donor, .. } => {
                        self.ring_donors[donor as usize] |= !self.moved;
                        echo(donor)
                    }
                };
            }
        }

        if self.max_lag > 0 {
            if self.ring_len <= self.max_lag {
                self.head = self.ring_len;
                self.ring.extend_from_slice(ctx.honest);
                self.ring_len += 1;
            } else {
                self.head = self.ring_slot(self.max_lag);
                let at = self.head * n;
                self.ring[at..at + n].clone_from_slice(ctx.honest);
            }
        }
    }

    fn message(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: &RoundContext<'_, S>,
        pool: &mut StatePool<S>,
    ) -> MessageSource {
        let g = self.schedule.faulty().binary_search(&from);
        let at = g.expect("message requested from a non-faulty node") * self.n + to.index();
        if self.max_lag > 0 {
            if let FaceRef::Ring { lag, donor } = self.faces.rows[at] {
                return self.replayed(lag, donor, ctx.round, pool);
            }
        }
        self.sources[at]
    }

    fn snapshot(&self, round: u64, out: &mut AdversarySnapshot<'_, S>) -> SnapshotSupport {
        // Packed leases resolve alike pinned or not; what evolves is the
        // position and the readable ring: the donors the one table named
        // while the position sat still, every correct node once it moved.
        let Some(phase) = self.schedule.phase(round) else {
            return SnapshotSupport::Opaque;
        };
        out.word(phase);
        if self.max_lag == 0 {
            return SnapshotSupport::Deterministic;
        }
        let depths = self.ring_len.min(self.max_lag);
        out.word(depths as u64);
        out.word(u64::from(self.moved));
        let faulty = self.schedule.faulty();
        for back in 0..depths {
            let at = self.ring_slot(back) * self.n;
            for node in 0..self.n {
                let id = NodeId::new(node);
                if self.ring_donors[node] || (self.moved && faulty.binary_search(&id).is_err()) {
                    out.state(id, &self.ring[at + node]);
                }
            }
        }
        SnapshotSupport::Deterministic
    }

    fn fabrication_per_round(&self, _n: usize) -> Option<u64> {
        // Without a ring every face is an echo or a pinned bundle; ring
        // faces fabricate per (depth, donor) as the schedule names them.
        (self.max_lag == 0).then_some(0)
    }
}
