//! Property coverage for the `FaultPlan` codec: lossless round-trips on
//! arbitrary injection schedules (including inline `Script` payloads and
//! `Script`-import plans), deterministic re-encoding, and typed
//! rejection of truncated byte streams.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{MoveSpace, Script};
use sc_protocol::BitVec;
use sc_runtime::{FaultEntry, FaultKind, FaultPlan};

/// A random well-formed plan: n in 4..=9, up to 3 wrapped nodes, all
/// five kinds reachable, windowed and unbounded entries mixed.
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n: usize = rng.random_range(4..=9);
    let f: usize = rng.random_range(0..=3.min(n - 1));
    let mut nodes: Vec<usize> = (0..n).collect();
    nodes.rotate_left(rng.random_range(0..n));
    nodes.truncate(f);
    nodes.sort_unstable();
    let entries = nodes
        .iter()
        .map(|&node| {
            let from_round: u64 = rng.random_range(0..1000);
            let until_round = if rng.random_bool(0.5) {
                Some(from_round + rng.random_range(1..500))
            } else {
                None
            };
            let kind = match rng.random_range(0..5u32) {
                0 => FaultKind::Crash,
                1 => FaultKind::Mute,
                2 => FaultKind::Delayed {
                    jitter_permille: rng.random_range(0..=(1 << 20) - 1),
                },
                3 => FaultKind::Equivocate,
                _ => {
                    let space = MoveSpace {
                        raw_values: rng.random_range(0..=3),
                        salts: rng.random_range(1..=3),
                        max_lag: rng.random_range(0..=2),
                    };
                    let rounds: usize = rng.random_range(1..=4);
                    let cycle_start = rng.random_range(0..rounds);
                    FaultKind::Scripted(Script::random(
                        n,
                        vec![node],
                        rounds,
                        cycle_start,
                        &space,
                        &mut rng,
                    ))
                }
            };
            FaultEntry {
                node,
                from_round,
                until_round,
                kind,
            }
        })
        .collect();
    FaultPlan::new(n, entries).expect("sampled plan is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode → decode is the identity on arbitrary plans, and
    /// re-encoding the decoded plan is bit-identical.
    #[test]
    fn plan_codec_is_lossless(seed in proptest::any::<u64>()) {
        let plan = random_plan(seed);
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        let back = FaultPlan::decode(&mut bits.reader()).unwrap();
        prop_assert_eq!(&back, &plan);
        let mut bits2 = BitVec::new();
        back.encode(&mut bits2);
        prop_assert_eq!(bits.len(), bits2.len());
        prop_assert_eq!(bits.words(), bits2.words());
    }

    /// A `Script`-import plan (the attack-search → runtime seam) wraps
    /// every scripted node and survives the round-trip.
    #[test]
    fn script_import_round_trips(seed in proptest::any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n: usize = rng.random_range(4..=7);
        let f: usize = rng.random_range(1..=2);
        let mut fault_set: Vec<usize> = (0..n).collect();
        fault_set.rotate_left(rng.random_range(0..n));
        fault_set.truncate(f);
        fault_set.sort_unstable();
        let rounds: usize = rng.random_range(1..=5);
        let script = Script::random(
            n,
            fault_set.clone(),
            rounds,
            rng.random_range(0..rounds),
            &MoveSpace { raw_values: 2, salts: 2, max_lag: 2 },
            &mut rng,
        );
        let plan = FaultPlan::scripted(&script).unwrap();
        prop_assert_eq!(plan.fault_count(), f);
        for &node in &fault_set {
            let entry = plan.entry_for(node).expect("every scripted node wrapped");
            prop_assert!(matches!(entry.kind, FaultKind::Scripted(_)));
            prop_assert_eq!(entry.from_round, 0);
            prop_assert_eq!(entry.until_round, None);
        }
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        prop_assert_eq!(&FaultPlan::decode(&mut bits.reader()).unwrap(), &plan);
    }

    /// Every strict prefix of an encoding fails to decode with a typed
    /// error.
    #[test]
    fn truncation_never_decodes_to_the_original(seed in proptest::any::<u64>()) {
        let plan = random_plan(seed);
        let mut bits = BitVec::new();
        plan.encode(&mut bits);
        let mut prefix = BitVec::new();
        for i in 0..bits.len() {
            prop_assert!(
                FaultPlan::decode(&mut prefix.reader()).is_err(),
                "a {}-bit prefix of a {}-bit plan decoded", i, bits.len()
            );
            prefix.push_bit(bits.bit(i));
        }
    }
}

/// A plan of `n = 2` whose one `Scripted` entry (node 0) carries
/// `Script::new(2, vec![0, 1], vec![vec![Move::Echo(0); 4]], 0)` — a script
/// whose fault set is the whole network — as the codec wrote it when such
/// plans were accepted: bit length and MSB-first words.
const ALL_FAULTY_PLAN: (usize, [u64; 4]) = (
    236,
    [
        0x0002_0100_0000_0000,
        0x0040_0020_2000_0000,
        0x1000_0000_1000_0000,
        0,
    ],
);

#[test]
fn plans_reject_a_script_without_a_correct_node() {
    let (len, words) = ALL_FAULTY_PLAN;
    let mut bits = BitVec::new();
    for i in 0..len {
        bits.push_bit(words[i / 64] >> (63 - i % 64) & 1 == 1);
    }
    assert!(FaultPlan::decode(&mut bits.reader()).is_err());
}
