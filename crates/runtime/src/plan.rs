//! Fault-injection schedules: which nodes misbehave, how, and when.
//!
//! A [`FaultPlan`] is data, not code — losslessly serialisable through the
//! workspace bit codec so a live fault schedule can be stored, shipped,
//! and replayed (including under the deterministic harness, which is how
//! CI reproduces every live scenario). Each [`FaultEntry`] wraps one node
//! in a [`FaultKind`] over a round window `[from_round, until_round)`;
//! outside the window the node behaves honestly, which is what makes
//! disruption *bursts* — and therefore wall-clock recovery measurement —
//! expressible.

use sc_attack::Script;
use sc_protocol::{BitReader, BitVec, CodecError};

/// How a wrapped node misbehaves while its window is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The node thread exits mid-round, leaving a partial publish (some
    /// receivers' slots written, one left torn). It never comes back.
    Crash,
    /// Publishes nothing; keeps reading and stepping honestly so it can
    /// rejoin cleanly when the window closes.
    Mute,
    /// Publishes late by a per-round pseudo-random fraction of the round
    /// period, racing the receivers' read deadline. `jitter_permille` is
    /// the maximum delay in thousandths of the round period (may exceed
    /// 1000 to guarantee misses).
    Delayed { jitter_permille: u32 },
    /// Publishes a different fabricated state to each receiver (two
    /// alternating faces keyed by receiver parity and round).
    Equivocate,
    /// Replays an `sc-attack` [`Script`] witness live: each round the
    /// node observes the honest nodes' current states, then publishes to
    /// each receiver whatever the script's move table dictates
    /// (echo/raw/stale), exactly as `sc_attack::scripted` plays it on the
    /// simulator.
    Scripted(Script),
}

impl FaultKind {
    fn tag(&self) -> u64 {
        match self {
            FaultKind::Crash => 0,
            FaultKind::Mute => 1,
            FaultKind::Delayed { .. } => 2,
            FaultKind::Equivocate => 3,
            FaultKind::Scripted(_) => 4,
        }
    }
}

/// One node's misbehaviour window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// Node being wrapped.
    pub node: usize,
    /// First round (inclusive) of misbehaviour.
    pub from_round: u64,
    /// First round the node is honest again; `None` = misbehaves forever.
    pub until_round: Option<u64>,
    /// The misbehaviour.
    pub kind: FaultKind,
}

impl FaultEntry {
    /// Whether this entry's misbehaviour is active in round `round`.
    pub fn active(&self, round: u64) -> bool {
        round >= self.from_round && self.until_round.is_none_or(|u| round < u)
    }
}

/// A complete injection schedule for an `n`-node run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    n: usize,
    entries: Vec<FaultEntry>,
}

const MAX_JITTER_PERMILLE: u32 = (1 << 20) - 1;

impl FaultPlan {
    /// An all-honest plan.
    pub fn honest(n: usize) -> FaultPlan {
        FaultPlan {
            n,
            entries: Vec::new(),
        }
    }

    /// Validating constructor: entries must target distinct in-range
    /// nodes (sorted by node id for canonical encoding), windows must be
    /// non-empty, and a `Scripted` entry's script must match `n` and
    /// list the node in its fault set.
    pub fn new(n: usize, mut entries: Vec<FaultEntry>) -> Result<FaultPlan, crate::ParamError> {
        entries.sort_by_key(|e| e.node);
        for pair in entries.windows(2) {
            if pair[0].node == pair[1].node {
                return Err(crate::ParamError::constraint(format!(
                    "duplicate fault entry for node {}",
                    pair[0].node
                )));
            }
        }
        for entry in &entries {
            if entry.node >= n {
                return Err(crate::ParamError::constraint(format!(
                    "fault entry node {} out of range for n = {n}",
                    entry.node
                )));
            }
            if let Some(until) = entry.until_round {
                if until <= entry.from_round {
                    return Err(crate::ParamError::constraint(format!(
                        "empty fault window [{}, {until}) for node {}",
                        entry.from_round, entry.node
                    )));
                }
            }
            match &entry.kind {
                FaultKind::Delayed { jitter_permille }
                    if *jitter_permille > MAX_JITTER_PERMILLE =>
                {
                    return Err(crate::ParamError::constraint(format!(
                        "jitter_permille {jitter_permille} exceeds codec limit \
                         {MAX_JITTER_PERMILLE}"
                    )));
                }
                FaultKind::Scripted(script) => {
                    if script.n() != n {
                        return Err(crate::ParamError::constraint(format!(
                            "scripted entry for node {}: script n = {} but plan n = {n}",
                            entry.node,
                            script.n()
                        )));
                    }
                    if !script.fault_set().contains(&entry.node) {
                        return Err(crate::ParamError::constraint(format!(
                            "scripted entry: node {} not in script fault set {:?}",
                            entry.node,
                            script.fault_set()
                        )));
                    }
                }
                _ => {}
            }
        }
        Ok(FaultPlan { n, entries })
    }

    /// Import an `sc-attack` [`Script`] wholesale: every node in the
    /// script's fault set replays its moves live, from round 0 forever.
    /// This is the seam connecting the attack-search subsystem to the
    /// runtime — a searched worst-case witness becomes a live workload.
    pub fn scripted(script: &Script) -> Result<FaultPlan, crate::ParamError> {
        let entries = script
            .fault_set()
            .iter()
            .map(|&node| FaultEntry {
                node,
                from_round: 0,
                until_round: None,
                kind: FaultKind::Scripted(script.clone()),
            })
            .collect();
        FaultPlan::new(script.n(), entries)
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Number of wrapped nodes (the plan's `f`).
    pub fn fault_count(&self) -> usize {
        self.entries.len()
    }

    /// The entry wrapping `node`, if any.
    pub fn entry_for(&self, node: usize) -> Option<&FaultEntry> {
        self.entries.iter().find(|e| e.node == node)
    }

    /// Last round (exclusive) at which any bounded window is still open;
    /// 0 if the plan is honest or all windows are unbounded.
    pub fn last_bounded_window_end(&self) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| e.until_round)
            .max()
            .unwrap_or(0)
    }

    /// Lossless bit encoding. Layout: n:16, count:8, then per entry
    /// node:16, from_round:32, until flag:1 (+ until_round:32), kind
    /// tag:3, kind payload (`Delayed` jitter:20, `Scripted` inline
    /// [`Script::encode`]).
    pub fn encode(&self, out: &mut BitVec) {
        out.push_bits(self.n as u64, 16);
        out.push_bits(self.entries.len() as u64, 8);
        for entry in &self.entries {
            out.push_bits(entry.node as u64, 16);
            out.push_bits(entry.from_round, 32);
            match entry.until_round {
                Some(until) => {
                    out.push_bit(true);
                    out.push_bits(until, 32);
                }
                None => out.push_bit(false),
            }
            out.push_bits(entry.kind.tag(), 3);
            match &entry.kind {
                FaultKind::Delayed { jitter_permille } => {
                    out.push_bits(u64::from(*jitter_permille), 20);
                }
                FaultKind::Scripted(script) => script.encode(out),
                _ => {}
            }
        }
    }

    /// Decode and re-validate. Round-trips [`FaultPlan::encode`] exactly.
    pub fn decode(input: &mut BitReader<'_>) -> Result<FaultPlan, CodecError> {
        let n = input.read_bits(16)? as usize;
        let count = input.read_bits(8)? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let node = input.read_bits(16)? as usize;
            let from_round = input.read_bits(32)?;
            let until_round = if input.read_bit()? {
                Some(input.read_bits(32)?)
            } else {
                None
            };
            let tag = input.read_bits(3)?;
            let kind = match tag {
                0 => FaultKind::Crash,
                1 => FaultKind::Mute,
                2 => FaultKind::Delayed {
                    jitter_permille: input.read_bits(20)? as u32,
                },
                3 => FaultKind::Equivocate,
                4 => FaultKind::Scripted(Script::decode(input)?),
                other => {
                    return Err(CodecError::InvalidField {
                        field: "fault kind tag",
                        value: other,
                    })
                }
            };
            entries.push(FaultEntry {
                node,
                from_round,
                until_round,
                kind,
            });
        }
        FaultPlan::new(n, entries).map_err(|_| CodecError::InvalidField {
            field: "fault plan constraints",
            value: n as u64,
        })
    }
}
