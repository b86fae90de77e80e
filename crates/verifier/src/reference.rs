//! The retained first-generation checker: enumerate-everything, with the
//! seed exploration limits.
//!
//! This is the pre-bitset implementation kept verbatim as the equivalence
//! oracle: it materialises per-configuration successor lists (`Vec<u32>`
//! per configuration), runs the greatest fixed point and the attractor as
//! repeated full sweeps, and rebuilds the full received vector once per
//! (node, Byzantine combo). The cross-check proptest in
//! `tests/verifier_cross.rs` asserts that [`crate::verify`] returns
//! bitwise-identical [`Verdict`]s — times, fault sets, and witnesses — on
//! random small instances, and the `throughput` bench's verifier table
//! measures the bitset core's speedup against this path.
//!
//! Do not optimise this module; its value is being the old semantics.

use std::collections::HashMap;

use sc_core::LutCounter;
use sc_protocol::ParamError;
use sc_sim::RoundWorkspace;

use crate::checker::{AnalysisSummary, FaultSets, Verdict, Witness};

/// The seed exploration limits (the bitset core raises both).
const MAX_CONFIGS: usize = 1 << 14;
const MAX_BYZ_COMBOS: usize = 1 << 10;

/// [`crate::verify`], as the first-generation checker computed it.
///
/// # Errors
///
/// Returns [`ParamError`] when the instance exceeds the *seed* exploration
/// limits (`|X|^{n−|F|} > 2^14` configurations or `|X|^{|F|} > 2^10`
/// Byzantine combinations).
pub fn verify(lut: &LutCounter) -> Result<Verdict, ParamError> {
    let summary = analyze(lut)?;
    match summary.failure {
        None => Ok(Verdict::Stabilizes {
            worst_case_time: summary.worst_time,
        }),
        Some((fault_set, stuck_configs)) => {
            let analysis = FaultSetAnalysis::run(lut, &fault_set)?;
            let witness = analysis
                .extract_witness(lut, &fault_set)
                .expect("a failing fault set yields a witness");
            Ok(Verdict::Fails {
                fault_set,
                stuck_configs,
                witness,
            })
        }
    }
}

/// [`crate::analyze`], as the first-generation checker computed it.
///
/// # Errors
///
/// Returns [`ParamError`] when the instance exceeds the seed exploration
/// limits.
pub fn analyze(lut: &LutCounter) -> Result<AnalysisSummary, ParamError> {
    let spec = lut.spec();
    let mut worst = 0u64;
    let mut covered = 0usize;
    let mut total = 0usize;
    let mut failure: Option<(Vec<usize>, usize)> = None;
    for fault_set in FaultSets::new(spec.n, spec.f) {
        let analysis = FaultSetAnalysis::run(lut, &fault_set)?;
        total += analysis.configs;
        covered += analysis.covered;
        if analysis.covered == analysis.configs {
            worst = worst.max(analysis.worst_time);
        } else if failure.is_none() {
            failure = Some((fault_set, analysis.configs - analysis.covered));
        }
    }
    Ok(AnalysisSummary {
        worst_time: worst,
        coverage: covered as f64 / total as f64,
        failure,
    })
}

/// Verification of one fault set, keeping the exploration data for witness
/// extraction.
pub(crate) struct FaultSetAnalysis {
    honest: Vec<usize>,
    x: usize,
    combos: usize,
    configs: usize,
    covered: usize,
    worst_time: u64,
    successors: Vec<Vec<u32>>,
    pub(crate) time: Vec<Option<u64>>,
}

impl FaultSetAnalysis {
    /// Decodes configuration index `e` into per-honest-node states.
    fn digits(&self, e: usize) -> Vec<u8> {
        let mut digits = vec![0u8; self.honest.len()];
        let mut rest = e;
        for d in digits.iter_mut() {
            *d = (rest % self.x) as u8;
            rest /= self.x;
        }
        digits
    }

    pub(crate) fn run(lut: &LutCounter, faulty: &[usize]) -> Result<Self, ParamError> {
        let spec = lut.spec();
        let x = spec.states as usize;
        let honest: Vec<usize> = (0..spec.n).filter(|v| !faulty.contains(v)).collect();
        let h = honest.len();
        let configs = x
            .checked_pow(h as u32)
            .filter(|&c| c <= MAX_CONFIGS)
            .ok_or_else(|| ParamError::overflow(format!("|X|^h = {x}^{h}")))?;
        let combos = x
            .checked_pow(faulty.len() as u32)
            .filter(|&c| c <= MAX_BYZ_COMBOS)
            .ok_or_else(|| ParamError::overflow(format!("|X|^|F| = {x}^{}", faulty.len())))?;

        let mut analysis = FaultSetAnalysis {
            honest,
            x,
            combos,
            configs,
            covered: 0,
            worst_time: 0,
            successors: Vec::with_capacity(configs),
            time: Vec::new(),
        };

        // Per configuration: the next-state set of every honest node, then
        // the deduplicated successor-configuration list.
        let mut workspace: RoundWorkspace<u8> = RoundWorkspace::with_capacity(0, spec.n);
        let mut agreed: Vec<Option<u64>> = Vec::with_capacity(configs);
        for e in 0..configs {
            let digits = analysis.digits(e);

            // Output agreement at e.
            let first_out = lut.output(analysis.honest[0], digits[0]);
            let agree = analysis
                .honest
                .iter()
                .zip(&digits)
                .all(|(&v, &s)| lut.output(v, s) == first_out);
            agreed.push(agree.then_some(first_out));

            // Next-state sets under all Byzantine combinations.
            let h = analysis.honest.len();
            let mut next_sets: Vec<Vec<u8>> = Vec::with_capacity(h);
            for &i in &analysis.honest {
                let mut mask = 0u64;
                for combo in 0..combos {
                    analysis.fill_received(lut, faulty, &digits, combo, &mut workspace);
                    mask |= 1u64 << lut.next(i, &workspace.scratch);
                }
                next_sets.push((0..x as u8).filter(|&s| mask >> s & 1 == 1).collect());
            }

            // Product of the next-state sets, as configuration indices.
            let mut succ = Vec::new();
            let mut choice = vec![0usize; h];
            loop {
                let mut index = 0usize;
                for d in (0..h).rev() {
                    index = index * x + next_sets[d][choice[d]] as usize;
                }
                succ.push(index as u32);
                let mut d = 0;
                loop {
                    if d == h {
                        break;
                    }
                    choice[d] += 1;
                    if choice[d] < next_sets[d].len() {
                        break;
                    }
                    choice[d] = 0;
                    d += 1;
                }
                if d == h {
                    break;
                }
            }
            succ.sort_unstable();
            succ.dedup();
            analysis.successors.push(succ);
        }

        // Greatest fixed point: the safe set of configurations from which
        // counting is guaranteed forever.
        let c = spec.c;
        let mut safe: Vec<bool> = agreed.iter().map(Option::is_some).collect();
        loop {
            let mut changed = false;
            for e in 0..configs {
                if !safe[e] {
                    continue;
                }
                let out = agreed[e].expect("safe ⊆ agreed");
                let expect = (out + 1) % c;
                let ok = analysis.successors[e]
                    .iter()
                    .all(|&s| safe[s as usize] && agreed[s as usize] == Some(expect));
                if !ok {
                    safe[e] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Attractor layering: t(e) = 0 on the safe set, otherwise
        // 1 + max over successors (the adversary maximises).
        let mut time: Vec<Option<u64>> = safe
            .iter()
            .map(|&s| if s { Some(0) } else { None })
            .collect();
        loop {
            let mut changed = false;
            for e in 0..configs {
                if time[e].is_some() {
                    continue;
                }
                let mut worst_succ = 0u64;
                let mut all_known = true;
                for &s in &analysis.successors[e] {
                    match time[s as usize] {
                        Some(t) => worst_succ = worst_succ.max(t),
                        None => {
                            all_known = false;
                            break;
                        }
                    }
                }
                if all_known {
                    time[e] = Some(worst_succ + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        analysis.covered = time.iter().filter(|t| t.is_some()).count();
        analysis.worst_time = time.iter().flatten().copied().max().unwrap_or(0);
        analysis.time = time;
        Ok(analysis)
    }

    /// Builds the full received vector for honest digits + Byzantine combo
    /// in the workspace's scratch buffer (no allocation after first use).
    fn fill_received(
        &self,
        lut: &LutCounter,
        faulty: &[usize],
        digits: &[u8],
        combo: usize,
        workspace: &mut RoundWorkspace<u8>,
    ) {
        let received = &mut workspace.scratch;
        received.clear();
        received.resize(lut.spec().n, 0);
        for (hi, &hv) in self.honest.iter().enumerate() {
            received[hv] = digits[hi];
        }
        let mut c = combo;
        for &fv in faulty {
            received[fv] = (c % self.x) as u8;
            c /= self.x;
        }
    }

    /// Extracts a lasso-shaped non-stabilising execution from the stuck
    /// region, including the Byzantine values realising every transition.
    fn extract_witness(&self, lut: &LutCounter, faulty: &[usize]) -> Option<Witness> {
        let mut workspace: RoundWorkspace<u8> = RoundWorkspace::with_capacity(0, lut.spec().n);
        let start = (0..self.configs).find(|&e| self.time[e].is_none())?;
        let mut configs: Vec<usize> = vec![start];
        let mut byz: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut visited: HashMap<usize, usize> = HashMap::new();
        visited.insert(start, 0);
        let mut current = start;
        let cycle_start;
        loop {
            // A stuck configuration always has a stuck successor (otherwise
            // the attractor pass would have assigned it a time).
            let next = *self.successors[current]
                .iter()
                .find(|&&s| self.time[s as usize].is_none())
                .expect("stuck configuration without stuck successor")
                as usize;
            // For every honest node find a Byzantine combo realising its
            // next state, and record the per-faulty-node values.
            let digits = self.digits(current);
            let target = self.digits(next);
            let mut step: Vec<Vec<u8>> = Vec::with_capacity(self.honest.len());
            for (hi, &i) in self.honest.iter().enumerate() {
                let combo = (0..self.combos)
                    .find(|&combo| {
                        self.fill_received(lut, faulty, &digits, combo, &mut workspace);
                        lut.next(i, &workspace.scratch) == target[hi]
                    })
                    .expect("successor state must be realisable");
                let mut values = Vec::with_capacity(faulty.len());
                let mut c = combo;
                for _ in faulty {
                    values.push((c % self.x) as u8);
                    c /= self.x;
                }
                step.push(values);
            }
            byz.push(step);
            configs.push(next);
            if let Some(&at) = visited.get(&next) {
                cycle_start = at;
                break;
            }
            visited.insert(next, configs.len() - 1);
            current = next;
        }
        Some(Witness {
            honest: self.honest.clone(),
            fault_set: faulty.to_vec(),
            configs: configs.into_iter().map(|e| self.digits(e)).collect(),
            byz,
            cycle_start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::LutSpec;

    /// The seed limits still apply to this path: 16 states on 4 nodes is
    /// rejected here (and decided by the bitset core — see the checker
    /// tests).
    #[test]
    fn seed_limits_still_enforced_on_reference_path() {
        let rows = vec![0u8; 65536];
        let output: Vec<u64> = (0..16).map(|i| i % 2).collect();
        let spec = LutSpec {
            n: 4,
            f: 0,
            c: 2,
            states: 16,
            transition: vec![rows.clone(), rows.clone(), rows.clone(), rows],
            output: vec![output; 4],
            stabilization_bound: 0,
        };
        let big = LutCounter::new(spec).unwrap();
        assert!(verify(&big).is_err());
    }
}
