//! Scripted attacks as face schedules: [`SlicedScript`] translates a
//! [`Script`] into the face tables of [`sc_sim::SlicedStrategy`], so the
//! bit-sliced engine advances 64 scenarios per word under it and
//! [`crate::scripted`] plays it on the scalar engine through
//! [`sc_sim::FacedAdversary`].
//!
//! The translation is semantics-preserving move by move:
//!
//! * [`Move::Echo`]`(salt)` → [`FaceRef::Honest`] of the `salt`-th correct
//!   node — the donor rule of [`sc_sim::adversaries::donor_id`];
//! * [`Move::Raw`]`(v)` → [`FaceRef::Packed`] naming a lane-uniform bundle
//!   holding the vocabulary state `raw_state(sender, v)`. The packed id is
//!   `g · 256 + v` — a *fixed* map over the full `u8` vocabulary, so every
//!   script evaluated against one compiled model agrees on what each id
//!   holds (the model asserts re-registrations are consistent);
//! * [`Move::Stale`]`{lag, salt}` → [`FaceRef::Ring`] of the same donor;
//!   both engines clamp the lag to the observed history and turn lag 0
//!   into an echo.
//!
//! Scripts cannot express per-lane variation, so the whole table is
//! lane-uniform — the cheapest kind of sliced strategy: no gather tables,
//! and every raw bundle folds into compile-time constants.

use std::borrow::Cow;

use sc_protocol::{FaceRef, NodeId, RoundFaces};
use sc_sim::adversaries::{donor_id, normalize_faults};
use sc_sim::{PackedInit, SlicedStrategy};

use crate::adversary::RawState;
use crate::script::{Move, Script};

/// Dense raw-vocabulary stride of the packed-id map: faulty sender `g`'s
/// value `v` lives at packed id `g * RAW_STRIDE + v`.
const RAW_STRIDE: usize = 256;

/// The raw vocabulary of `faulty` as [`SlicedScript`]'s packed bundles:
/// one lane-uniform bundle per (sender, `u8` value), at id
/// `g · 256 + v`.
pub(crate) fn raw_vocabulary<S, R: RawState<S>>(raw: &R, faulty: &[NodeId]) -> Vec<PackedInit<S>> {
    faulty
        .iter()
        .flat_map(|&node| {
            (0..=u8::MAX).map(move |v| PackedInit::Uniform {
                node,
                state: raw.raw_state(node, v),
            })
        })
        .collect()
}

/// A [`Script`] as a lane-uniform face schedule ([`SlicedStrategy`]), for
/// the bit-sliced and — through [`crate::scripted`] — the scalar engine.
pub struct SlicedScript<'s, S: Clone> {
    script: &'s Script,
    faulty: Vec<NodeId>,
    /// The raw vocabulary as packed bundles, `g · 256 + v`.
    vocabulary: Cow<'s, [PackedInit<S>]>,
}

impl<'s, S: Clone> SlicedScript<'s, S> {
    /// Wraps `script` over a resolved raw vocabulary — one lane-uniform
    /// bundle per (faulty sender, `u8` value), sender-major — borrowed
    /// (an objective resolves it once for every script it scores) or owned.
    ///
    /// # Panics
    ///
    /// Panics when `vocabulary` does not hold exactly 256 bundles per
    /// faulty sender.
    pub fn new(script: &'s Script, vocabulary: impl Into<Cow<'s, [PackedInit<S>]>>) -> Self {
        let vocabulary = vocabulary.into();
        let faulty = normalize_faults(script.fault_set().iter().copied());
        assert_eq!(
            vocabulary.len(),
            faulty.len() * RAW_STRIDE,
            "raw vocabulary must cover the full u8 range of every faulty sender"
        );
        SlicedScript {
            script,
            faulty,
            vocabulary,
        }
    }
}

impl<'s, S: Clone> SlicedStrategy<S> for SlicedScript<'s, S> {
    fn faulty(&self) -> &[NodeId] {
        &self.faulty
    }

    fn max_lag(&self) -> usize {
        self.script.max_lag()
    }

    fn packed_bundles(&self) -> &[PackedInit<S>] {
        &self.vocabulary
    }

    fn faces(&self, round: u64, n: usize, faces: &mut RoundFaces) {
        if self.faulty.is_empty() {
            return;
        }
        let moves = self.script.round_at(round);
        let donor = |salt: u8| donor_id(&self.faulty, n, salt as usize).index() as u32;
        for g in 0..self.faulty.len() {
            for to in 0..n {
                faces.rows[g * n + to] = match moves[g * n + to] {
                    Move::Echo(salt) => FaceRef::Honest(donor(salt)),
                    Move::Raw(value) => FaceRef::Packed((g * RAW_STRIDE + value as usize) as u16),
                    Move::Stale { lag, salt } => FaceRef::Ring {
                        lag,
                        donor: donor(salt),
                    },
                };
            }
        }
    }

    fn phase(&self, round: u64) -> Option<u64> {
        // The lasso position: it fixes this round's moves and every later
        // position (an empty script never moves).
        Some(if self.script.is_empty() {
            0
        } else {
            self.script.index_at(round) as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `raw_state(g-th sender, v) = g · 1000 + v`.
    struct Thousands(Vec<NodeId>);

    impl RawState<u64> for Thousands {
        fn raw_state(&self, node: NodeId, value: u8) -> u64 {
            let g = self.0.iter().position(|&id| id == node).unwrap() as u64;
            g * 1000 + u64::from(value)
        }
    }

    fn raw_rows(faulty: &[usize]) -> Vec<PackedInit<u64>> {
        let ids = normalize_faults(faulty.iter().copied());
        raw_vocabulary(&Thousands(ids.clone()), &ids)
    }

    #[test]
    fn faces_translate_every_move_kind() {
        let script = Script::new(
            4,
            vec![1],
            vec![vec![
                Move::Echo(0),
                Move::Raw(7),
                Move::Stale { lag: 2, salt: 1 },
                Move::Echo(5),
            ]],
            0,
        )
        .unwrap();
        let rows = raw_rows(&[1]);
        let strategy = SlicedScript::new(&script, &rows);
        assert_eq!(SlicedStrategy::<u64>::max_lag(&strategy), 2);
        let mut faces = RoundFaces::new(1, 4);
        strategy.faces(0, 4, &mut faces);
        // Honest nodes are {0, 2, 3}: salt 0 → 0, salt 1 → 2, salt 5 → 3.
        assert_eq!(faces.rows[0], FaceRef::Honest(0));
        assert_eq!(faces.rows[1], FaceRef::Packed(7));
        assert_eq!(faces.rows[2], FaceRef::Ring { lag: 2, donor: 2 });
        assert_eq!(faces.rows[3], FaceRef::Honest(3));
        // Lasso wrap: round 9 plays the same (single) scripted round.
        let mut later = RoundFaces::new(1, 4);
        strategy.faces(9, 4, &mut later);
        assert_eq!(later, faces);
    }

    #[test]
    fn packed_ids_use_the_dense_per_sender_stride() {
        let script = Script::new(4, vec![0, 2], vec![vec![Move::Raw(3); 8]], 0).unwrap();
        let rows = raw_rows(&[0, 2]);
        let strategy = SlicedScript::new(&script, &rows);
        let bundles = strategy.packed_bundles();
        assert_eq!(bundles.len(), 2 * RAW_STRIDE);
        let PackedInit::Uniform { node, state } = &bundles[RAW_STRIDE + 3] else {
            panic!("raw bundles are uniform");
        };
        assert_eq!(node.index(), 2);
        assert_eq!(*state, 1003);
        let mut faces = RoundFaces::new(2, 4);
        strategy.faces(0, 4, &mut faces);
        assert_eq!(faces.rows[1], FaceRef::Packed(3)); // sender group 0
        assert_eq!(faces.rows[4 + 1], FaceRef::Packed(RAW_STRIDE as u16 + 3));
    }
}
