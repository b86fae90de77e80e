//! Table-driven small counters.
//!
//! For small parameters the synchronous counting problem "is amenable to
//! algorithm synthesis" (§1): the works [4, 5] cited by the paper used
//! computers to design optimal algorithms such as a 3-state counter for
//! `n ≥ 4, f = 1`. A [`LutCounter`] is the executable form of such an
//! algorithm — explicit lookup tables for the transition function
//! `g : [n] × Xⁿ → X` and output function `h : [n] × X → [c]`. The
//! `sc-verifier` crate model-checks these tables exhaustively and searches
//! for new ones.

use std::borrow::Borrow;

use sc_protocol::{bits_for, ParamError};

/// Raw description of a table-driven counter.
///
/// Received state vectors are indexed in little-endian node order:
/// `index = Σ_{u ∈ [n]} x_u · |X|^u`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LutSpec {
    /// Number of nodes `n`.
    pub n: usize,
    /// Claimed resilience `f`.
    pub f: usize,
    /// Counter modulus `c`.
    pub c: u64,
    /// Number of states `|X|`.
    pub states: u8,
    /// Transition tables: `transition[v][index] = g(v, x)`.
    pub transition: Vec<Vec<u8>>,
    /// Output tables: `output[v][s] = h(v, s)`.
    pub output: Vec<Vec<u64>>,
    /// Claimed stabilisation time `T(A)` (e.g. established by the verifier).
    pub stabilization_bound: u64,
}

/// A synchronous counter given by explicit lookup tables.
///
/// # Example
///
/// A hand-written 1-node 2-counter (the trivial counter as a table):
///
/// ```
/// use sc_core::{LutCounter, LutSpec};
///
/// let spec = LutSpec {
///     n: 1,
///     f: 0,
///     c: 2,
///     states: 2,
///     transition: vec![vec![1, 0]], // g(0, [0]) = 1, g(0, [1]) = 0
///     output: vec![vec![0, 1]],
///     stabilization_bound: 0,
/// };
/// let lut = LutCounter::new(spec)?;
/// assert_eq!(lut.next(0, [1]), 0);
/// # Ok::<(), sc_protocol::ParamError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LutCounter {
    spec: LutSpec,
    /// `states^u` for `u ∈ [n]`, for radix indexing.
    pow: Vec<usize>,
}

/// Largest supported table size (`|X|^n` entries per node).
const MAX_TABLE: usize = 1 << 22;

impl LutCounter {
    /// Validates the tables and wraps them as a counter.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when dimensions are inconsistent, entries are
    /// out of range, `c < 2`, `3f ≥ n`, or the table would exceed the
    /// supported size.
    pub fn new(spec: LutSpec) -> Result<Self, ParamError> {
        if spec.n == 0 {
            return Err(ParamError::constraint(
                "LUT counter needs at least one node",
            ));
        }
        if spec.n > 1 && 3 * spec.f >= spec.n {
            return Err(ParamError::constraint(format!(
                "resilience f = {} requires n > 3f, got n = {}",
                spec.f, spec.n
            )));
        }
        if spec.c < 2 {
            return Err(ParamError::constraint("counter modulus must be ≥ 2"));
        }
        if spec.states == 0 {
            return Err(ParamError::constraint("state space must be non-empty"));
        }
        let rows = (spec.states as usize)
            .checked_pow(spec.n as u32)
            .filter(|&r| r <= MAX_TABLE)
            .ok_or_else(|| ParamError::overflow(format!("|X|^n = {}^{}", spec.states, spec.n)))?;
        if spec.transition.len() != spec.n || spec.output.len() != spec.n {
            return Err(ParamError::constraint(
                "one transition and output table per node",
            ));
        }
        for v in 0..spec.n {
            if spec.transition[v].len() != rows {
                return Err(ParamError::constraint(format!(
                    "transition table of node {v} has {} rows, expected {rows}",
                    spec.transition[v].len()
                )));
            }
            if spec.transition[v].iter().any(|&s| s >= spec.states) {
                return Err(ParamError::constraint(format!(
                    "transition table of node {v} names a state ≥ |X|"
                )));
            }
            if spec.output[v].len() != spec.states as usize {
                return Err(ParamError::constraint(format!(
                    "output table of node {v} must have |X| entries"
                )));
            }
            if spec.output[v].iter().any(|&o| o >= spec.c) {
                return Err(ParamError::constraint(format!(
                    "output table of node {v} names a value ≥ c"
                )));
            }
        }
        let pow = (0..spec.n)
            .map(|u| (spec.states as usize).pow(u as u32))
            .collect();
        Ok(LutCounter { spec, pow })
    }

    /// The underlying tables.
    pub fn spec(&self) -> &LutSpec {
        &self.spec
    }

    /// Number of states `|X|`.
    pub fn states(&self) -> u8 {
        self.spec.states
    }

    /// The transition `g(node, received)`, on a received vector that is
    /// stored (`&[u8]`) or computed on the fly (an iterator of `u8`).
    ///
    /// # Panics
    ///
    /// Panics unless `received` has exactly `n` states, or if a state is
    /// out of range (only reachable through fabricated states, which
    /// [`LutCounter::clamp`] prevents).
    pub fn next<S: Borrow<u8>>(&self, node: usize, received: impl IntoIterator<Item = S>) -> u8 {
        let (mut senders, mut index) = (0, 0);
        for s in received {
            let s = *s.borrow();
            assert!(s < self.spec.states, "state {s} out of range");
            assert!(senders < self.spec.n, "more than n received states");
            index += self.pow[senders] * s as usize;
            senders += 1;
        }
        assert_eq!(senders, self.spec.n);
        self.spec.transition[node][index]
    }

    /// The output `h(node, state)`.
    pub fn output(&self, node: usize, state: u8) -> u64 {
        self.spec.output[node][state as usize % self.spec.states as usize]
    }

    /// Replaces one transition-table entry in place, returning the previous
    /// value — the synthesiser's mutate/undo hook: a candidate is evaluated
    /// by patching ≤ 3 entries of the live counter and un-patching them on
    /// rejection, never by cloning the tables.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `row` is out of range, or `state ≥ |X|` (which
    /// would break the validation invariant established by
    /// [`LutCounter::new`]).
    pub fn set_transition(&mut self, node: usize, row: usize, state: u8) -> u8 {
        assert!(
            state < self.spec.states,
            "state {state} out of range for |X| = {}",
            self.spec.states
        );
        std::mem::replace(&mut self.spec.transition[node][row], state)
    }

    /// Reduces an arbitrary byte to a valid state (for fabricated inputs).
    pub fn clamp(&self, raw: u8) -> u8 {
        raw % self.spec.states
    }

    /// Space `⌈log₂ |X|⌉` bits.
    pub fn state_bits(&self) -> u32 {
        bits_for(u64::from(self.spec.states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_spec() -> LutSpec {
        // 2 nodes, 2 states; both nodes: adopt XOR of received states, output
        // identity. Not a correct counter; used to test plumbing only.
        LutSpec {
            n: 2,
            f: 0,
            c: 2,
            states: 2,
            transition: vec![vec![0, 1, 1, 0], vec![0, 1, 1, 0]],
            output: vec![vec![0, 1], vec![0, 1]],
            stabilization_bound: 4,
        }
    }

    #[test]
    fn radix_indexing_is_little_endian() {
        let lut = LutCounter::new(two_node_spec()).unwrap();
        // received = [x0, x1] → index x0 + 2·x1.
        assert_eq!(lut.next(0, [1, 0]), 1);
        assert_eq!(lut.next(0, [0, 1]), 1);
        assert_eq!(lut.next(0, [1, 1]), 0);
    }

    #[test]
    fn validation_catches_dimension_errors() {
        let mut bad = two_node_spec();
        bad.transition[1].pop();
        assert!(LutCounter::new(bad).is_err());

        let mut bad = two_node_spec();
        bad.transition[0][2] = 2; // state out of range
        assert!(LutCounter::new(bad).is_err());

        let mut bad = two_node_spec();
        bad.output[0] = vec![0, 2]; // output ≥ c
        assert!(LutCounter::new(bad).is_err());

        let mut bad = two_node_spec();
        bad.c = 1;
        assert!(LutCounter::new(bad).is_err());
    }

    #[test]
    fn resilience_requires_n_over_3f() {
        let mut bad = two_node_spec();
        bad.f = 1; // n = 2 ≤ 3
        assert!(LutCounter::new(bad).is_err());
    }

    #[test]
    fn set_transition_patches_and_returns_previous() {
        let mut lut = LutCounter::new(two_node_spec()).unwrap();
        assert_eq!(lut.next(0, [1, 0]), 1);
        assert_eq!(lut.set_transition(0, 1, 0), 1);
        assert_eq!(lut.next(0, [1, 0]), 0);
        // Undo restores the original table.
        assert_eq!(lut.set_transition(0, 1, 1), 0);
        assert_eq!(lut, LutCounter::new(two_node_spec()).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_transition_rejects_invalid_state() {
        LutCounter::new(two_node_spec())
            .unwrap()
            .set_transition(0, 0, 2);
    }

    #[test]
    fn clamp_reduces_modulo_states() {
        let lut = LutCounter::new(two_node_spec()).unwrap();
        assert_eq!(lut.clamp(7), 1);
        assert_eq!(lut.state_bits(), 1);
    }
}
