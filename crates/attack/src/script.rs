//! Scripted attacks as data: the [`Script`] representation, its compact
//! codec, and lossless import from verifier witnesses.
//!
//! A script fixes, for every (round, faulty sender, receiver) triple, one
//! [`Move`] from a small vocabulary — echo a current honest state, replay a
//! stale one, or fabricate a raw vocabulary state. Scripts follow a
//! **lasso** shape exactly like [`sc_verifier::Witness`] executions: a
//! finite prefix of explicit rounds followed by a cycle that repeats
//! forever, so a finite table describes an infinite adversary.
//!
//! Treating the adversary as data is what makes worst-case *search*
//! possible: [`crate::ScriptedAdversary`] executes any script on the live
//! engine, the [`crate::Objective`] harness scores it by stabilisation
//! delay, and the strategies in [`crate::search`] edit scripts **in place**
//! ([`Script::set_move`] returns the previous move for undo) — the
//! mutate/undo pattern of the synthesiser's `LutCounter::set_transition`.

use rand::rngs::SmallRng;
use rand::Rng;
use sc_protocol::{BitReader, BitVec, CodecError, ParamError};
use sc_verifier::Witness;

/// One scripted message choice: what a faulty sender presents to one
/// receiver in one round.
///
/// The vocabulary is protocol-agnostic — echo and stale moves permute
/// *observed* honest states (delivered as zero-copy broadcast echoes or
/// ring replays), while [`Move::Raw`] names an entry of the protocol's raw
/// state vocabulary (see [`crate::RawState`]). Witness imports use `Raw`
/// exclusively; searches mix all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// Echo the current broadcast of the `salt`-th correct node (rotating
    /// through the honest set, like the library strategies' donor rule).
    Echo(u8),
    /// Fabricate the raw vocabulary state with this index.
    Raw(u8),
    /// Replay what the `salt`-th correct node broadcast `lag` rounds ago
    /// (clamped to the observed history during warm-up; `lag = 0` degrades
    /// to an echo).
    Stale {
        /// Rounds of staleness.
        lag: u8,
        /// Donor salt into the honest set.
        salt: u8,
    },
}

/// The move vocabulary a search samples from — the knobs that bound the
/// explored equivocation space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveSpace {
    /// Raw vocabulary size: `Raw(v)` moves use `v < raw_values`
    /// (0 disables raw moves entirely).
    pub raw_values: u8,
    /// Donor salts: echo/stale moves use `salt < salts` (at least 1).
    pub salts: u8,
    /// Maximum staleness: stale moves use `1 ..= max_lag`
    /// (0 disables stale moves).
    pub max_lag: u8,
}

impl MoveSpace {
    /// A vocabulary of pure echo moves over `salts` donors.
    pub fn echoes(salts: u8) -> MoveSpace {
        MoveSpace {
            raw_values: 0,
            salts: salts.max(1),
            max_lag: 0,
        }
    }

    /// Samples one move uniformly over the enabled kinds.
    pub fn sample(&self, rng: &mut SmallRng) -> Move {
        let salts = self.salts.max(1);
        let mut kinds = 1u32; // Echo is always available
        if self.raw_values > 0 {
            kinds += 1;
        }
        if self.max_lag > 0 {
            kinds += 1;
        }
        let mut kind = rng.random_range(0..kinds);
        if self.raw_values == 0 && kind >= 1 {
            kind += 1; // skip Raw
        }
        match kind {
            0 => Move::Echo(rng.random_range(0..salts)),
            1 => Move::Raw(rng.random_range(0..self.raw_values)),
            _ => Move::Stale {
                lag: rng.random_range(1..=self.max_lag),
                salt: rng.random_range(0..salts),
            },
        }
    }

    /// Whether `m` lies inside this vocabulary.
    pub fn contains(&self, m: Move) -> bool {
        match m {
            Move::Echo(salt) => salt < self.salts.max(1),
            Move::Raw(v) => v < self.raw_values,
            Move::Stale { lag, salt } => {
                lag >= 1 && lag <= self.max_lag && salt < self.salts.max(1)
            }
        }
    }
}

/// A complete scripted adversary strategy: per-(round, faulty, receiver)
/// [`Move`]s in lasso form.
///
/// Round `t ≥ len` replays round `cycle_start + (t − cycle_start) mod
/// (len − cycle_start)` — exactly the wrap rule of
/// [`Witness::script_at`], so an imported witness script drives the live
/// simulator through the witness's infinite execution.
///
/// # Example
///
/// ```
/// use sc_attack::{Move, Script};
///
/// // One faulty node (id 1) in a 3-node network, scripted for 2 rounds
/// // that then repeat forever.
/// let rounds = vec![vec![Move::Echo(0); 3], vec![Move::Raw(1); 3]];
/// let script = Script::new(3, vec![1], rounds, 0)?;
/// assert_eq!(script.index_at(0), 0);
/// assert_eq!(script.index_at(5), 1); // 2, 4, … wrap onto the cycle
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Script {
    n: usize,
    fault_set: Vec<usize>,
    /// Per-round move tables; `rounds[r][g * n + to]` is what faulty sender
    /// `fault_set[g]` presents to receiver `to`. Entries addressed to
    /// faulty receivers are padding and never consulted.
    rounds: Vec<Vec<Move>>,
    cycle_start: usize,
}

impl Script {
    /// Validates and wraps a move table.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when a faulty id is out of range or
    /// duplicated, a round's table has the wrong width, or `cycle_start`
    /// does not leave a non-empty cycle.
    pub fn new(
        n: usize,
        fault_set: Vec<usize>,
        rounds: Vec<Vec<Move>>,
        cycle_start: usize,
    ) -> Result<Script, ParamError> {
        if fault_set.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ParamError::constraint(
                "script fault set must be sorted and duplicate-free",
            ));
        }
        if fault_set.iter().any(|&v| v >= n) {
            return Err(ParamError::constraint(
                "script fault set names a node outside the network",
            ));
        }
        let width = fault_set.len() * n;
        if rounds.iter().any(|r| r.len() != width) {
            return Err(ParamError::constraint(format!(
                "every scripted round needs f·n = {width} moves"
            )));
        }
        if rounds.is_empty() {
            // An empty table can only script an empty fault set (it never
            // answers a message); anything else would panic at use time.
            if !fault_set.is_empty() {
                return Err(ParamError::constraint(
                    "a script with faulty nodes needs at least one round",
                ));
            }
            if cycle_start != 0 {
                return Err(ParamError::constraint(
                    "an empty script cannot have a cycle start",
                ));
            }
        } else if cycle_start >= rounds.len() {
            return Err(ParamError::constraint(
                "cycle_start must leave a non-empty cycle",
            ));
        }
        Ok(Script {
            n,
            fault_set,
            rounds,
            cycle_start,
        })
    }

    /// A script of `rounds` uniformly sampled moves, deterministic from the
    /// caller's generator — the seed of random restarts.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`Script::new`] validation.
    pub fn random(
        n: usize,
        fault_set: Vec<usize>,
        rounds: usize,
        cycle_start: usize,
        space: &MoveSpace,
        rng: &mut SmallRng,
    ) -> Script {
        let width = fault_set.len() * n;
        let rounds = (0..rounds)
            .map(|_| (0..width).map(|_| space.sample(rng)).collect())
            .collect();
        Script::new(n, fault_set, rounds, cycle_start).expect("sampled script is well-formed")
    }

    /// Imports a verifier [`Witness`] lasso **losslessly**: every Byzantine
    /// value `byz[t][h][g]` becomes a [`Move::Raw`] at the matching (round,
    /// sender, receiver) slot, and the cycle wraps at the witness's
    /// `cycle_start` — replayed through a [`crate::ScriptedAdversary`] with
    /// an exact raw vocabulary, the live execution visits the witness's
    /// configurations forever.
    pub fn from_witness(witness: &Witness) -> Script {
        let n = witness.honest.len() + witness.fault_set.len();
        let width = witness.fault_set.len() * n;
        let rounds = witness
            .byz
            .iter()
            .map(|step| {
                let mut moves = vec![Move::Raw(0); width];
                for (hi, per_node) in step.iter().enumerate() {
                    let to = witness.honest[hi];
                    for (g, &value) in per_node.iter().enumerate() {
                        moves[g * n + to] = Move::Raw(value);
                    }
                }
                moves
            })
            .collect();
        Script::new(n, witness.fault_set.clone(), rounds, witness.cycle_start)
            .expect("witness lassos are well-formed scripts")
    }

    /// Network size the script is written for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sorted faulty nodes the script drives.
    pub fn fault_set(&self) -> &[usize] {
        &self.fault_set
    }

    /// Number of explicitly scripted rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the script has no scripted rounds at all.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// First round of the repeating cycle.
    pub fn cycle_start(&self) -> usize {
        self.cycle_start
    }

    /// Length of the repeating cycle.
    pub fn cycle_len(&self) -> usize {
        self.rounds.len() - self.cycle_start
    }

    /// The scripted round index driving round `t`, following the lasso:
    /// the prefix once, then the cycle forever.
    #[inline]
    pub fn index_at(&self, t: u64) -> usize {
        let len = self.rounds.len();
        if (t as usize) < len {
            t as usize
        } else {
            let cycle = len - self.cycle_start;
            self.cycle_start + ((t as usize - self.cycle_start) % cycle)
        }
    }

    /// The move faulty sender `g` (an index into [`Script::fault_set`])
    /// plays against receiver `to` at round `t`.
    #[inline]
    pub fn move_at(&self, t: u64, g: usize, to: usize) -> Move {
        self.rounds[self.index_at(t)][g * self.n + to]
    }

    /// Replaces one move in place and returns the previous one — the
    /// search strategies' mutate/undo hook (no script is ever cloned per
    /// candidate). `round` indexes the explicit table, not the lasso.
    pub fn set_move(&mut self, round: usize, g: usize, to: usize, m: Move) -> Move {
        std::mem::replace(&mut self.rounds[round][g * self.n + to], m)
    }

    /// Appends an explicitly scripted round — the beam search's
    /// prefix-extension hook.
    ///
    /// # Panics
    ///
    /// Panics if `moves` does not hold exactly `f·n` entries.
    pub fn push_round(&mut self, moves: Vec<Move>) {
        assert_eq!(
            moves.len(),
            self.fault_set.len() * self.n,
            "scripted round has the wrong width"
        );
        self.rounds.push(moves);
    }

    /// The largest staleness any move of the script requests (0 when no
    /// stale moves exist) — how much history a replaying adversary must
    /// retain.
    pub fn max_lag(&self) -> usize {
        self.rounds
            .iter()
            .flatten()
            .map(|m| match m {
                Move::Stale { lag, .. } => *lag as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Appends the compact encoding of the script to `out`.
    ///
    /// The codec is lossless ([`Script::decode`] inverts it bit for bit;
    /// property-tested) and compact: 2 tag bits plus an 8-bit payload per
    /// move (16 bits for stale moves).
    pub fn encode(&self, out: &mut BitVec) {
        out.push_bits(self.n as u64, 16);
        out.push_bits(self.fault_set.len() as u64, 8);
        for &v in &self.fault_set {
            out.push_bits(v as u64, 16);
        }
        out.push_bits(self.rounds.len() as u64, 32);
        out.push_bits(self.cycle_start as u64, 32);
        for round in &self.rounds {
            for &m in round {
                match m {
                    Move::Echo(salt) => {
                        out.push_bits(0, 2);
                        out.push_bits(u64::from(salt), 8);
                    }
                    Move::Raw(v) => {
                        out.push_bits(1, 2);
                        out.push_bits(u64::from(v), 8);
                    }
                    Move::Stale { lag, salt } => {
                        out.push_bits(2, 2);
                        out.push_bits(u64::from(lag), 8);
                        out.push_bits(u64::from(salt), 8);
                    }
                }
            }
        }
    }

    /// Decodes a script previously produced by [`Script::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] when the bit string is truncated, a move tag
    /// is unknown, or the decoded fields fail [`Script::new`] validation.
    pub fn decode(input: &mut BitReader<'_>) -> Result<Script, CodecError> {
        let n = input.read_bits(16)? as usize;
        let f = input.read_bits(8)? as usize;
        let mut fault_set = Vec::with_capacity(f);
        for _ in 0..f {
            fault_set.push(input.read_bits(16)? as usize);
        }
        let len = input.read_bits(32)? as usize;
        let cycle_start = input.read_bits(32)? as usize;
        let width = f * n;
        // Capacities are clamped: the length fields are untrusted input,
        // and a corrupt header must fail with a decode error on the first
        // missing move, not abort on a huge up-front allocation.
        let mut rounds = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            let mut moves = Vec::with_capacity(width.min(4096));
            for _ in 0..width {
                let tag = input.read_bits(2)?;
                moves.push(match tag {
                    0 => Move::Echo(input.read_bits(8)? as u8),
                    1 => Move::Raw(input.read_bits(8)? as u8),
                    2 => Move::Stale {
                        lag: input.read_bits(8)? as u8,
                        salt: input.read_bits(8)? as u8,
                    },
                    other => {
                        return Err(CodecError::InvalidField {
                            field: "script move tag",
                            value: other,
                        })
                    }
                });
            }
            rounds.push(moves);
        }
        Script::new(n, fault_set, rounds, cycle_start).map_err(|_| CodecError::InvalidField {
            field: "script structure",
            value: len as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> Script {
        Script::new(
            3,
            vec![2],
            vec![
                vec![Move::Echo(0), Move::Raw(1), Move::Echo(2)],
                vec![Move::Stale { lag: 2, salt: 1 }, Move::Echo(1), Move::Raw(0)],
                vec![Move::Raw(3), Move::Raw(4), Move::Echo(0)],
            ],
            1,
        )
        .unwrap()
    }

    #[test]
    fn lasso_indexing_matches_witness_rule() {
        let s = tiny();
        // len 3, cycle_start 1, cycle 2: 0 1 2 1 2 1 2 …
        let expect = [0usize, 1, 2, 1, 2, 1, 2, 1];
        for (t, &e) in expect.iter().enumerate() {
            assert_eq!(s.index_at(t as u64), e, "round {t}");
        }
    }

    #[test]
    fn set_move_mutates_and_undoes_in_place() {
        let mut s = tiny();
        let original = s.clone();
        let prev = s.set_move(0, 0, 1, Move::Echo(7));
        assert_eq!(prev, Move::Raw(1));
        assert_eq!(s.move_at(0, 0, 1), Move::Echo(7));
        assert_ne!(s, original);
        s.set_move(0, 0, 1, prev);
        assert_eq!(s, original);
    }

    #[test]
    fn codec_round_trips() {
        let s = tiny();
        let mut bits = BitVec::new();
        s.encode(&mut bits);
        let back = Script::decode(&mut bits.reader()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let s = tiny();
        let mut bits = BitVec::new();
        s.encode(&mut bits);
        let mut truncated = BitVec::new();
        for i in 0..bits.len() - 3 {
            truncated.push_bit(bits.bit(i));
        }
        assert!(Script::decode(&mut truncated.reader()).is_err());
    }

    #[test]
    fn validation_rejects_malformed_tables() {
        assert!(Script::new(3, vec![3], vec![], 0).is_err()); // fault ≥ n
        assert!(Script::new(3, vec![1, 1], vec![], 0).is_err()); // duplicate
        assert!(Script::new(3, vec![1], vec![vec![Move::Echo(0); 2]], 0).is_err()); // width
        assert!(Script::new(3, vec![1], vec![vec![Move::Echo(0); 3]], 1).is_err());
        // empty cycle
        // No rounds: only acceptable for an empty fault set at cycle 0 —
        // a faulty script with no rounds would panic at use time.
        assert!(Script::new(3, vec![1], vec![], 0).is_err());
        assert!(Script::new(3, vec![1], vec![], 9).is_err());
        assert!(Script::new(3, vec![], vec![], 1).is_err());
        assert!(Script::new(3, vec![], vec![], 0).is_ok());
    }

    #[test]
    fn decode_rejects_headers_the_constructor_rejects() {
        // An encoding claiming faulty nodes but zero rounds must come back
        // as a decode error, not a script that panics later (or a giant
        // up-front allocation).
        let mut bits = BitVec::new();
        bits.push_bits(3, 16); // n
        bits.push_bits(1, 8); // f
        bits.push_bits(1, 16); // fault id
        bits.push_bits(0, 32); // rounds = 0
        bits.push_bits(0, 32); // cycle_start
        assert!(Script::decode(&mut bits.reader()).is_err());
        // A huge claimed length with no move payload fails on the first
        // missing move instead of aborting on an up-front allocation.
        let mut bits = BitVec::new();
        bits.push_bits(3, 16);
        bits.push_bits(1, 8);
        bits.push_bits(1, 16);
        bits.push_bits(u64::from(u32::MAX), 32);
        bits.push_bits(0, 32);
        assert!(Script::decode(&mut bits.reader()).is_err());
    }

    #[test]
    fn move_space_samples_stay_in_vocabulary() {
        let space = MoveSpace {
            raw_values: 4,
            salts: 3,
            max_lag: 2,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let mut kinds = [false; 3];
        for _ in 0..500 {
            let m = space.sample(&mut rng);
            assert!(space.contains(m), "{m:?} outside the vocabulary");
            kinds[match m {
                Move::Echo(_) => 0,
                Move::Raw(_) => 1,
                Move::Stale { .. } => 2,
            }] = true;
        }
        assert!(kinds.iter().all(|&k| k), "all kinds must be reachable");
        // Disabled kinds are never sampled.
        let echoes = MoveSpace::echoes(2);
        for _ in 0..100 {
            assert!(matches!(echoes.sample(&mut rng), Move::Echo(_)));
        }
    }

    #[test]
    fn max_lag_scans_the_whole_table() {
        assert_eq!(tiny().max_lag(), 2);
        let s = Script::new(2, vec![0], vec![vec![Move::Echo(0); 2]], 0).unwrap();
        assert_eq!(s.max_lag(), 0);
    }
}
