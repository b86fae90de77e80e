//! Sound early-decision machinery: cycle/fixpoint detection on the joint
//! (states, adversary) configuration, plus the algebraic verdict replay.
//!
//! With a deterministic protocol ([`Counter::deterministic_transition`])
//! and a snapshot-capable adversary
//! ([`Adversary::snapshot`](crate::Adversary::snapshot)), one round of the
//! engine is a pure function on a finite configuration space. An execution
//! is therefore a ρ-shaped walk: a transient prefix followed by a cycle.
//! Once the engine observes the same configuration twice — **bit-exact**,
//! compared on the full codec encoding, never on a hash alone — every
//! remaining round of the sweep horizon is determined, and the
//! stabilisation verdict can be computed arithmetically from the observed
//! output rows ([`periodic_verdict`]) instead of executing them. This is
//! the closed-execution argument `sc-verifier` uses to decide small
//! instances exhaustively, applied to a single execution.
//!
//! The detector is a **hash-map / Brent hybrid**: configurations are
//! interned into a flat word arena behind a 64-bit hash index until a
//! memory cap is reached, after which the detector degrades to Brent's
//! teleporting-anchor scheme — O(1) memory, still guaranteed to terminate
//! on any eventually-periodic execution, just later. Either way a reported
//! recurrence is verified word-for-word, so the verdict is sound under hash
//! collisions; a collision can only *delay* detection.
//!
//! The simulation's one run loop
//! ([`Simulation::run_until_stable_early`](crate::Simulation::run_until_stable_early),
//! behind both `Batch` drivers too) checks the closure exit before each
//! round and feeds this detector after it, so whichever sound exit comes
//! first decides the run.
//!
//! [`Counter::deterministic_transition`]: sc_protocol::Counter::deterministic_transition

use std::collections::HashMap;

use sc_protocol::BitVec;

use crate::stabilization::{good_transition, StabilizationReport};
use crate::SimError;

/// How a run of the simulation's run loop finished executing rounds.
///
/// [`Simulation::run_until_stable_early`](crate::Simulation::run_until_stable_early)
/// returns one, and [`Batch`](crate::Batch) records one per scenario
/// ([`ScenarioOutcome::exit_reason`](crate::ScenarioOutcome)) — the ledger
/// early-decision sweeps are benchmarked on, next to `fabricated_states`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// Every horizon round was executed (no recurrence or closure inside
    /// the horizon, or the run was rejected before it started).
    FullHorizon,
    /// The protocol's transition or the adversary's strategy is RNG-driven
    /// (opted out of fingerprinting), so the cycle detector was disarmed,
    /// and the run never closed: every horizon round was executed.
    Opaque,
    /// The configuration after round `decided_at` matched the configuration
    /// after round `start` bit-exactly: rounds `start..decided_at` are a
    /// proven cycle of the given `length`, and the remaining
    /// `horizon − decided_at` rounds were replayed algebraically.
    Cycle {
        /// First round of the proven cycle.
        start: u64,
        /// Cycle length in rounds.
        length: u64,
        /// Round at which the recurrence closed and execution stopped.
        decided_at: u64,
    },
    /// After round `decided_at` the correct nodes were closed
    /// ([`Counter::closed`](sc_protocol::Counter::closed): their outputs
    /// count from there on, whatever the faulty nodes send) and the
    /// adversary's fabrication rate was known
    /// ([`Adversary::fabrication_per_round`](crate::Adversary::fabrication_per_round)),
    /// so the remaining `horizon − decided_at` rounds were recorded as
    /// counting without executing them. Verdict and fabrication ledger
    /// equal the full-horizon ones.
    Closed {
        /// Round at which the closure held and execution stopped.
        decided_at: u64,
    },
}

impl ExitReason {
    /// Rounds of a `horizon`-round sweep that were *not* executed thanks to
    /// a cycle or closure exit (0 for full-horizon and opaque runs).
    pub fn rounds_saved(&self, horizon: u64) -> u64 {
        match self {
            ExitReason::Cycle { decided_at, .. } | ExitReason::Closed { decided_at } => {
                horizon.saturating_sub(*decided_at)
            }
            ExitReason::FullHorizon | ExitReason::Opaque => 0,
        }
    }
}

/// Result of feeding one configuration to the detector.
#[derive(Debug)]
pub(crate) enum Feed {
    /// Stored; no recurrence yet.
    Recorded,
    /// Recurrence: the configuration equals the one recorded after the
    /// returned round (bit-exact).
    Cycle(u64),
    /// The adversary declined to be snapshotted; detection is off for good.
    Opaque,
}

/// Default cap on interned configuration words before the detector degrades
/// from the hash-map phase to Brent's O(1)-memory anchor scheme: 2²¹ words
/// = 16 MiB per executing scenario.
const DEFAULT_CAP_WORDS: usize = 1 << 21;

/// FNV-1a over the word representation, seeded with the bit length so
/// encodings of different lengths never alias trivially.
fn hash_config(len_bits: usize, words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (len_bits as u64);
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The bounded cycle detector: interning hash table first, Brent anchor
/// after the memory cap.
#[derive(Debug)]
pub(crate) struct CycleDetector {
    /// Reusable encoding scratch, lent out via [`CycleDetector::begin`].
    scratch: BitVec,
    /// Configurations committed so far (the next commit's round index).
    fed: u64,
    cap_words: usize,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    Table {
        /// hash → *storage slot* (index into the parallel vectors below).
        /// On a hash collision with a *different* configuration the
        /// newcomer is not stored — sound (matches are verified), merely
        /// delays detection — so slots are NOT round numbers.
        seen: HashMap<u64, u32>,
        /// Round each stored slot was committed at.
        rounds: Vec<u64>,
        /// Word-arena start offset per stored slot.
        starts: Vec<u32>,
        /// Bit length per stored slot.
        lens: Vec<u32>,
        /// Flat arena of all stored configuration words.
        words: Vec<u64>,
    },
    Brent {
        anchor_round: u64,
        anchor_len: u32,
        anchor: Vec<u64>,
        /// Rounds the anchor stays put before teleporting to the current
        /// configuration (doubles on every teleport).
        power: u64,
    },
}

impl CycleDetector {
    pub(crate) fn new() -> Self {
        Self::with_cap_words(DEFAULT_CAP_WORDS)
    }

    pub(crate) fn with_cap_words(cap_words: usize) -> Self {
        CycleDetector {
            scratch: BitVec::new(),
            fed: 0,
            cap_words: cap_words.max(1),
            phase: Phase::Table {
                seen: HashMap::new(),
                rounds: Vec::new(),
                starts: Vec::new(),
                lens: Vec::new(),
                words: Vec::new(),
            },
        }
    }

    /// Lends out the (cleared) encoding scratch for the next configuration.
    pub(crate) fn begin(&mut self) -> BitVec {
        let mut bits = std::mem::take(&mut self.scratch);
        bits.clear();
        bits
    }

    /// Returns the scratch without committing (the opaque opt-out path).
    pub(crate) fn discard(&mut self, bits: BitVec) {
        self.scratch = bits;
    }

    /// Commits the configuration encoded in `bits` as the next round's and
    /// reports a verified recurrence, if any.
    pub(crate) fn commit(&mut self, bits: BitVec) -> Feed {
        let round = self.fed;
        self.fed += 1;
        let result = match &mut self.phase {
            Phase::Table {
                seen,
                rounds,
                starts,
                lens,
                words,
            } => {
                let h = hash_config(bits.len(), bits.words());
                match seen.get(&h) {
                    Some(&slot) => {
                        let slot = slot as usize;
                        let start = starts[slot] as usize;
                        let end = start + (lens[slot] as usize).div_ceil(64);
                        if lens[slot] as usize == bits.len() && words[start..end] == *bits.words() {
                            Some(Feed::Cycle(rounds[slot]))
                        } else {
                            // Verified collision: skip storing this round.
                            Some(Feed::Recorded)
                        }
                    }
                    None => {
                        if words.len() + bits.words().len() <= self.cap_words {
                            seen.insert(h, starts.len() as u32);
                            rounds.push(round);
                            starts.push(words.len() as u32);
                            lens.push(bits.len() as u32);
                            words.extend_from_slice(bits.words());
                            Some(Feed::Recorded)
                        } else {
                            None // fall through: degrade to Brent below
                        }
                    }
                }
            }
            Phase::Brent {
                anchor_round,
                anchor_len,
                anchor,
                power,
            } => {
                if *anchor_len as usize == bits.len() && anchor[..] == *bits.words() {
                    Some(Feed::Cycle(*anchor_round))
                } else {
                    if round - *anchor_round >= *power {
                        *anchor_round = round;
                        *anchor_len = bits.len() as u32;
                        anchor.clear();
                        anchor.extend_from_slice(bits.words());
                        *power *= 2;
                    }
                    Some(Feed::Recorded)
                }
            }
        };
        let result = result.unwrap_or_else(|| {
            // Memory cap hit: drop the table, anchor Brent on this round.
            self.phase = Phase::Brent {
                anchor_round: round,
                anchor_len: bits.len() as u32,
                anchor: bits.words().to_vec(),
                power: 1,
            };
            Feed::Recorded
        });
        self.scratch = bits;
        result
    }
}

/// Computes the exact `horizon`-round stabilisation verdict of an execution
/// whose configuration after round `outputs.len() − 1` equals the
/// configuration after round `cycle_start`.
///
/// `outputs[r]` is the agreed output at round `r` (`None` = disagreement);
/// rows `cycle_start..` repeat forever with period
/// `L = outputs.len() − 1 − cycle_start`, so the goodness of every
/// transition `j ≥ cycle_start` equals the observed goodness at
/// `cycle_start + (j − cycle_start) mod L`. The verdict is **bitwise
/// identical** to what [`OnlineDetector`](crate::OnlineDetector) would
/// report after executing all `horizon` rounds — the early-decision test
/// suites enforce this.
pub(crate) fn periodic_verdict(
    outputs: &[Option<u64>],
    cycle_start: u64,
    horizon: u64,
    modulus: u64,
    min_confirm: u64,
) -> Result<StabilizationReport, SimError> {
    let decided_at = outputs.len() as u64 - 1;
    let length = decided_at - cycle_start;
    debug_assert!(length >= 1, "a cycle has at least one round");
    debug_assert!(decided_at <= horizon);
    let good = |j: u64| good_transition(outputs[j as usize], outputs[j as usize + 1], modulus);

    // Last violated transition among the horizon's `0..horizon`: a bad
    // in-cycle transition at offset `o` recurs at `cycle_start + o + k·L`
    // for every k, so its last occurrence below the horizon dominates every
    // pre-cycle violation.
    let mut last_violation: Option<u64> = None;
    for o in 0..length {
        let j = cycle_start + o;
        if !good(j) {
            let j_last = j + length * ((horizon - 1 - j) / length);
            last_violation = last_violation.max(Some(j_last));
        }
    }
    if last_violation.is_none() {
        last_violation = (0..cycle_start).rev().find(|&j| !good(j));
    }

    let stabilization_round = last_violation.map_or(0, |j| j + 1);
    let confirmed = horizon - stabilization_round;
    if confirmed < min_confirm {
        return Err(SimError::NotStabilized {
            rounds: horizon,
            last_violation,
            confirmed,
            required: min_confirm,
        });
    }
    Ok(StabilizationReport {
        stabilization_round,
        rounds_recorded: horizon,
        confirmed_rounds: confirmed,
        modulus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stabilization::OnlineDetector;

    /// Replays the truncated observation plus the algebraic extension and
    /// compares against an `OnlineDetector` fed the fully unrolled rows.
    fn check_against_unrolled(
        observed: &[Option<u64>],
        cycle_start: u64,
        horizon: u64,
        modulus: u64,
        confirm: u64,
    ) {
        let decided_at = observed.len() as u64 - 1;
        let length = decided_at - cycle_start;
        let mut online = OnlineDetector::new(modulus);
        for r in 0..=horizon {
            let row = if r <= decided_at {
                observed[r as usize]
            } else {
                observed[(cycle_start + (r - cycle_start) % length) as usize]
            };
            online.observe(row);
        }
        assert_eq!(
            periodic_verdict(observed, cycle_start, horizon, modulus, confirm),
            online.finish(confirm),
            "observed {observed:?} cycle_start {cycle_start} horizon {horizon}"
        );
    }

    #[test]
    fn verdict_replay_matches_unrolled_detection_exhaustively() {
        // All output patterns of 5 rows over {0, 1, 2=disagree} mod 2, all
        // cycle starts, several horizons: the algebra must match the
        // detector on every single one. A real recurrence implies the
        // closing row equals the cycle-start row (equal configurations have
        // equal outputs), so the generator enforces exactly that.
        for pattern in 0u32..3u32.pow(5) {
            let mut rows: Vec<Option<u64>> = (0..5)
                .map(|i| {
                    let digit = pattern / 3u32.pow(i) % 3;
                    (digit < 2).then_some(u64::from(digit))
                })
                .collect();
            for cycle_start in 0..4u64 {
                rows[4] = rows[cycle_start as usize];
                for horizon in [4u64, 9, 40] {
                    check_against_unrolled(&rows, cycle_start, horizon, 2, 2);
                    check_against_unrolled(&rows, cycle_start, horizon, 2, 8);
                }
            }
        }
    }

    #[test]
    fn fixpoint_of_perfect_counting_stabilises_at_zero() {
        // 0,1,0 with cycle_start 0: counting mod 2 forever.
        let rows = vec![Some(0), Some(1), Some(0)];
        let report = periodic_verdict(&rows, 0, 1_000_000, 2, 8).unwrap();
        assert_eq!(report.stabilization_round, 0);
        assert_eq!(report.rounds_recorded, 1_000_000);
        assert_eq!(report.confirmed_rounds, 1_000_000);
    }

    #[test]
    fn recurring_violation_is_projected_to_the_horizon_tail() {
        // Cycle 1,1 (frozen): every transition in the cycle is bad, so the
        // last violation is the horizon's final transition.
        let rows = vec![Some(0), Some(1), Some(1)];
        let err = periodic_verdict(&rows, 1, 100, 2, 4).unwrap_err();
        match err {
            SimError::NotStabilized {
                rounds,
                last_violation,
                confirmed,
                ..
            } => {
                assert_eq!(rounds, 100);
                assert_eq!(last_violation, Some(99));
                assert_eq!(confirmed, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn detector_finds_recurrence_in_table_phase() {
        let mut det = CycleDetector::new();
        let configs = [7u64, 8, 9, 8];
        let mut hits = Vec::new();
        for c in configs {
            let mut bits = det.begin();
            bits.push_bits(c, 64);
            if let Feed::Cycle(at) = det.commit(bits) {
                hits.push((det.fed - 1, at));
            }
        }
        assert_eq!(hits, vec![(3, 1)], "config 8 recurs at round 3 from 1");
    }

    #[test]
    fn detector_degrades_to_brent_and_still_terminates() {
        // Cap of 4 words: the table fills after 4 one-word configs and the
        // detector anchors. The sequence is 0,1,2,…,9,(6,7,8,9)*: Brent must
        // still catch the cycle, possibly a few laps later.
        let mut det = CycleDetector::with_cap_words(4);
        let mut caught = None;
        for r in 0..200u64 {
            let value = if r < 10 { r } else { 6 + (r - 6) % 4 };
            let mut bits = det.begin();
            bits.push_bits(value, 64);
            if let Feed::Cycle(at) = det.commit(bits) {
                caught = Some((at, r));
                break;
            }
        }
        let (at, r) = caught.expect("Brent phase must find the cycle");
        assert!(r > at);
        assert_eq!((r - at) % 4, 0, "distance must be a multiple of the period");
    }

    #[test]
    fn different_lengths_never_match() {
        let mut det = CycleDetector::new();
        let mut bits = det.begin();
        bits.push_bits(5, 32);
        assert!(matches!(det.commit(bits), Feed::Recorded));
        let mut bits = det.begin();
        bits.push_bits(5, 33);
        assert!(matches!(det.commit(bits), Feed::Recorded));
    }

    #[test]
    fn rounds_saved_accounting() {
        let cycle = ExitReason::Cycle {
            start: 10,
            length: 5,
            decided_at: 15,
        };
        assert_eq!(cycle.rounds_saved(100), 85);
        assert_eq!(ExitReason::FullHorizon.rounds_saved(100), 0);
        assert_eq!(ExitReason::Opaque.rounds_saved(100), 0);
        assert_eq!(ExitReason::Closed { decided_at: 30 }.rounds_saved(100), 70);
    }
}
