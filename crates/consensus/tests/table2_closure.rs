//! Lemma 5's closure, checked exhaustively at small N.
//!
//! Once every correct node holds the same finite `x` with `d = 1`, Table 2
//! maps its registers to `(x + 1 mod C, 1)` in every instruction set,
//! whatever the ≤ F faulty nodes send and whoever is king. The boosted
//! counter's closure predicate (`sc-core`'s `BoostedCounter::closed`), and
//! with it the batch engine's closure exit, rests on exactly this. Here it
//! is enumerated, not sampled: for N ∈ {4, 7, 10}, F = ⌊(N − 1)/3⌋ and
//! C ∈ 2..=8,
//!
//! * every slot of `3 · king_groups`, for F + 2 king groups and every slack
//!   count up to N;
//! * every x ∈ [C];
//! * every multiset of F foreign values from [C] ∪ {∞}, plus C + 1, which
//!   stands for a register no well-formed state holds (a fabricated word
//!   can carry one);
//! * every king value from the same set;
//! * the three tally forms the engines vote with: the plain [`Tally`], the
//!   [`Rescan`] of the plain step and the [`DeltaTally`] patched with the
//!   foreign votes of the prepared step.

use sc_consensus::instructions::{execute_slot, IncrementMode};
use sc_consensus::{PhaseKingParams, PkRegisters, INFINITY};
use sc_protocol::{DeltaTally, Rescan, Tally};

/// Every multiset of `k` values from `values`, each listed once (in the
/// order of `values`).
fn multisets(values: &[u64], k: usize) -> Vec<Vec<u64>> {
    fn extend(
        values: &[u64],
        k: usize,
        from: usize,
        prefix: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
    ) {
        if prefix.len() == k {
            out.push(prefix.clone());
            return;
        }
        for i in from..values.len() {
            prefix.push(values[i]);
            extend(values, k, i, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(values, k, 0, &mut Vec::with_capacity(k), &mut out);
    out
}

fn binomial(n: u64, k: u64) -> u64 {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// Checks one `(N, F, C)` and returns the number of cases it executed.
fn check_closure(n: usize, f: usize, c: u64) -> u64 {
    let mut values: Vec<u64> = (0..c).collect();
    values.extend([c + 1, INFINITY]);
    let foreign_sets = multisets(&values, f);
    assert_eq!(
        foreign_sets.len() as u64,
        binomial(values.len() as u64 + f as u64 - 1, f as u64)
    );
    let params: Vec<PhaseKingParams> = (f as u64 + 2..=n as u64)
        .map(|groups| PhaseKingParams::with_king_groups(n, f, c, groups).unwrap())
        .collect();
    let mut cases = 0;
    for x in 0..c {
        let regs = PkRegisters::new(x, true);
        let expect = PkRegisters::new((x + 1) % c, true);
        let shared = DeltaTally::from_values(std::iter::repeat_n(x, n - f));
        for foreign in &foreign_sets {
            let received = || std::iter::repeat_n(x, n - f).chain(foreign.iter().copied());
            let plain = Tally::from_values(received());
            let rescan = Rescan(received());
            let patched = shared.patched(foreign);
            for p in &params {
                for slot in 0..p.slots() {
                    for &king in &values {
                        let forms = [
                            execute_slot(p, regs, slot, &plain, king, IncrementMode::Counting),
                            execute_slot(p, regs, slot, &rescan, king, IncrementMode::Counting),
                            execute_slot(p, regs, slot, &patched, king, IncrementMode::Counting),
                        ];
                        for (form, next) in forms.into_iter().enumerate() {
                            assert_eq!(
                                next,
                                expect,
                                "N = {n}, F = {f}, C = {c}, {} king groups, slot {slot}, \
                                 x = {x}, foreign {foreign:?}, king {king}, tally form {form}",
                                p.king_groups()
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    cases
}

#[test]
fn agreed_decided_registers_count_in_every_slot() {
    for n in [4usize, 7, 10] {
        let f = (n - 1) / 3;
        for c in 2..=8u64 {
            let cases = check_closure(n, f, c);
            // x × foreign multisets × Σ_groups 3·groups slots × king values
            // × tally forms: the enumeration ran in full.
            let values = c + 2;
            let slots: u64 = (f as u64 + 2..=n as u64).map(|g| 3 * g).sum();
            let expect = c * binomial(values + f as u64 - 1, f as u64) * slots * values * 3;
            assert_eq!(cases, expect, "N = {n}, C = {c}");
        }
    }
}
