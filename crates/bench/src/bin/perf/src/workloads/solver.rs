//! `verify-solver`: the game solver on large instances, no filter and no
//! simulation. Four exchangeable `n = 4, f = 1, |X| = 16` tables take the
//! quotient path, the asymmetric 16-state follow-leader table the full
//! one. Only `Analyzer::new` and `Analyzer::analyze` are called.
//!
//! The seed relabels the state space of every table. Relabelling is an
//! isomorphism of the safety game, so the cost of a repetition does not
//! depend on the seed and every seed must reproduce the same summaries —
//! the golden digest of this workload holds for all seeds.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_core::{LutCounter, LutSpec};
use sc_verifier::{AnalysisSummary, Analyzer};

use super::{Body, Rep, Workload};
use crate::digest::{derive, Digest};
use crate::registry::{self, WorkloadDef};
use crate::trace::Tracer;

const N: usize = 4;
const STATES: usize = 16;
/// Passes over the five tables per repetition.
pub const PASSES: u64 = 80;
/// Generator seeds of the exchangeable tables: one whose game collapses at
/// once (coverage 0) and three with partial coverage, so the fixed point
/// and the attractor both do work.
const TABLE_SEEDS: [u64; 4] = [0, 4, 6, 7];

pub const EXCH_SPAN: &str = "verifier.analyze.exch";
pub const ASYM_SPAN: &str = "verifier.analyze.asym";

pub struct Solver {
    /// The exchangeable tables, then the asymmetric one.
    tables: Vec<LutCounter>,
    gen_s: f64,
}

/// An exchangeable table: one xorshift-drawn next state per multiset of
/// received states, shared by all nodes; output `s mod 2`.
fn exchangeable_table(seed: u64) -> LutSpec {
    let rows = STATES.pow(N as u32);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % STATES as u64) as u8
    };
    let mut classes: HashMap<Vec<u8>, u8> = HashMap::new();
    let mut table = vec![0u8; rows];
    for (row, slot) in table.iter_mut().enumerate() {
        let mut digits = digits_of(row);
        digits.sort_unstable();
        *slot = *classes.entry(digits.to_vec()).or_insert_with(&mut next);
    }
    LutSpec {
        n: N,
        f: 1,
        c: 2,
        states: STATES as u8,
        transition: vec![table; N],
        output: vec![(0..STATES as u64).map(|s| s % 2).collect(); N],
        stabilization_bound: 0,
    }
}

/// The asymmetric instance: everyone follows node 0's value plus one,
/// modulo 16, fault-free — `16^4` configurations on the full solver.
fn follow_leader_table() -> LutSpec {
    let rows: Vec<u8> = (0..STATES.pow(N as u32))
        .map(|row| ((row % STATES + 1) % STATES) as u8)
        .collect();
    LutSpec {
        n: N,
        f: 0,
        c: STATES as u64,
        states: STATES as u8,
        transition: vec![rows; N],
        output: vec![(0..STATES as u64).collect(); N],
        stabilization_bound: 1,
    }
}

fn digits_of(mut row: usize) -> [u8; N] {
    let mut digits = [0u8; N];
    for d in &mut digits {
        *d = (row % STATES) as u8;
        row /= STATES;
    }
    digits
}

fn row_of(digits: [u8; N]) -> usize {
    digits
        .iter()
        .rev()
        .fold(0, |row, &d| row * STATES + d as usize)
}

/// Renames state `s` to `perm[s]` everywhere in `spec`.
fn relabel(spec: &LutSpec, perm: &[u8; STATES]) -> LutSpec {
    let mut out = spec.clone();
    for node in 0..N {
        for (row, &next) in spec.transition[node].iter().enumerate() {
            let renamed = digits_of(row).map(|d| perm[d as usize]);
            out.transition[node][row_of(renamed)] = perm[next as usize];
        }
        for (state, &value) in spec.output[node].iter().enumerate() {
            out.output[node][perm[state] as usize] = value;
        }
    }
    out
}

fn permutation(seed: u64) -> [u8; STATES] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: [u8; STATES] = std::array::from_fn(|i| i as u8);
    for i in (1..STATES).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    perm
}

/// Joint configurations one `analyze` of `lut` decides: `|X|^(n-k)` per
/// fault set of size `k <= f`.
fn configurations(lut: &LutCounter) -> u64 {
    let spec = lut.spec();
    let mut total = 0u64;
    let mut sets = 1u64; // C(n, k)
    for k in 0..=spec.f {
        total += sets * u64::from(spec.states).pow((spec.n - k) as u32);
        sets = sets * (spec.n - k) as u64 / (k as u64 + 1);
    }
    total
}

impl Solver {
    pub fn generate(seed: u64) -> Solver {
        let start = Instant::now();
        let perm = permutation(derive(seed, 0));
        let tables = TABLE_SEEDS
            .iter()
            .map(|&s| exchangeable_table(s))
            .chain([follow_leader_table()])
            .map(|spec| LutCounter::new(relabel(&spec, &perm)).expect("generated tables are valid"))
            .collect();
        Solver {
            tables,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn tables(&self) -> &[LutCounter] {
        &self.tables
    }
}

fn fold(summary: &AnalysisSummary, digest: &mut Digest) {
    digest.words([summary.worst_time, summary.coverage.to_bits()]);
    match &summary.failure {
        None => digest.word(0),
        Some((fault_set, stuck)) => {
            digest.word(1 + fault_set.len() as u64);
            digest.words(fault_set.iter().map(|&v| v as u64));
            digest.word(*stuck as u64);
        }
    }
}

impl Workload for Solver {
    fn def(&self) -> &'static WorkloadDef {
        registry::workload(registry::SOLVER).expect("registered")
    }

    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn session(&self, body: &mut Body<'_>) -> Result<f64, String> {
        let per_pass: u64 = self.tables.iter().map(configurations).sum();
        let start = Instant::now();
        let mut analyzer = Analyzer::new();
        // First use sizes the game buffers of both engines.
        for table in &self.tables {
            analyzer.analyze(table).map_err(|e| e.to_string())?;
        }
        let setup_s = start.elapsed().as_secs_f64();
        body(&mut |tracer: Option<&mut Tracer>| {
            let mut digest = Digest::new();
            let mut tracer = tracer;
            for _ in 0..PASSES {
                for table in &self.tables {
                    let summary = match tracer.as_deref_mut() {
                        None => analyzer.analyze(table),
                        Some(tracer) => {
                            let span = if table.spec().f == 0 {
                                ASYM_SPAN
                            } else {
                                EXCH_SPAN
                            };
                            tracer.span(span, || analyzer.analyze(table))
                        }
                    }
                    .map_err(|e| e.to_string())?;
                    fold(&summary, &mut digest);
                }
            }
            Ok(Rep {
                units: PASSES * per_pass,
                digest: digest.finish(),
            })
        });
        Ok(setup_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabelling_is_a_bijection_on_rows_and_keeps_exchangeability() {
        let perm = permutation(9);
        let mut sorted = perm;
        sorted.sort_unstable();
        assert_eq!(sorted, std::array::from_fn::<u8, STATES, _>(|i| i as u8));
        assert_eq!(row_of(digits_of(54_321)), 54_321);

        let base = exchangeable_table(4);
        let renamed = relabel(&base, &perm);
        // Spot-check the defining equation on a few rows.
        for row in [0usize, 1, 17, 4_369, 65_535] {
            let image = row_of(digits_of(row).map(|d| perm[d as usize]));
            assert_eq!(
                renamed.transition[0][image],
                perm[base.transition[0][row] as usize]
            );
        }
        // Permuting received positions still does not change a row's value.
        assert_eq!(
            renamed.transition[0][row_of([1, 2, 3, 4])],
            renamed.transition[0][row_of([4, 3, 2, 1])]
        );
        for (state, &image) in perm.iter().enumerate() {
            assert_eq!(renamed.output[0][image as usize], base.output[0][state]);
        }
    }

    #[test]
    fn configuration_counts_match_the_registry() {
        let solver = Solver::generate(1);
        let per_pass: u64 = solver.tables().iter().map(configurations).sum();
        assert_eq!(per_pass, 4 * (65_536 + 4 * 4_096) + 65_536);
        assert_eq!(PASSES * per_pass, solver.def().units);
    }
}
