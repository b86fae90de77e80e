//! Sliced-vs-scalar equivalence for scripted attacks:
//!
//! * an [`Objective`] with the bit-sliced path attached scores arbitrary
//!   scripts **exactly** like the scalar full-horizon oracle
//!   ([`Objective::evaluate_full`]), under in-place mutation chains;
//! * ragged sweeps (scenario counts straddling the 64-lane word boundary)
//!   keep the equality;
//! * so does the `attack-search` shape on A(12,3), where most lanes freeze
//!   at Lemma 5's closure before the horizon;
//! * the plane transpose (`pack_lane` / `unpack_lane`) round-trips
//!   arbitrary bundles at arbitrary lane positions.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sc_attack::{MoveSpace, Objective, Script};
use sc_core::{Algorithm, CounterBuilder};
use sc_protocol::{BitVec, PlaneBuf};

fn a4() -> Algorithm {
    CounterBuilder::corollary1(1, 8).unwrap().build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// On A(4,1), a sliced-attached objective scores random scripts — and
    /// every in-place mutation of them — identically to the scalar
    /// full-horizon oracle, across all three move kinds.
    #[test]
    fn sliced_scripted_objective_equals_scalar_oracle(seed in proptest::any::<u64>()) {
        let algo = a4();
        let mut rng = SmallRng::seed_from_u64(seed);
        let fault = rng.random_range(0..4usize);
        let space = MoveSpace { raw_values: 5, salts: 3, max_lag: 3 };
        let rounds = rng.random_range(1..=4usize);
        let cycle_start = rng.random_range(0..rounds);
        let mut script =
            Script::random(4, vec![fault], rounds, cycle_start, &space, &mut rng);

        let mut obj = Objective::new(&algo, &algo, vec![fault], 0..5, 64).unwrap();
        prop_assert!(obj.attach_sliced(), "A(4,1) must lower");
        for step in 0..3 {
            let sliced = obj.evaluate(&script);
            let scalar = obj.evaluate_full(&script);
            prop_assert_eq!(sliced, scalar, "mutation step {} diverged", step);
            let to = (fault + 1 + step) % 4;
            script.set_move(step % rounds, 0, to, space.sample(&mut rng));
        }
    }

    /// The bundle transpose round-trips arbitrary widths at arbitrary lanes,
    /// including lanes beyond the first word and partial trailing planes.
    #[test]
    fn plane_transpose_round_trips(seed in proptest::any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = rng.random_range(1..=70usize);
        let lane_words = rng.random_range(1..=3usize);
        let mut buf = PlaneBuf::new(width, lane_words);
        let lanes: Vec<usize> =
            (0..4).map(|_| rng.random_range(0..lane_words * 64)).collect();
        let payloads: Vec<BitVec> = lanes
            .iter()
            .map(|_| {
                let mut bits = BitVec::new();
                for _ in 0..width {
                    bits.push_bit(rng.random_range(0..2u32) == 1);
                }
                bits
            })
            .collect();
        // Later packs may overwrite earlier lanes; verify against the last
        // write per lane.
        for (lane, bits) in lanes.iter().zip(&payloads) {
            buf.pack_lane(*lane, 0, bits);
        }
        for (i, (lane, bits)) in lanes.iter().zip(&payloads).enumerate() {
            if lanes[i + 1..].contains(lane) {
                continue;
            }
            let mut out = BitVec::new();
            buf.unpack_lane(*lane, 0, width, &mut out);
            prop_assert_eq!(&out, bits, "lane {} width {}", lane, width);
        }
    }
}

/// Ragged multi-word sweeps: 70 scenarios span two lane words with a ragged
/// tail, and a script mixing every move kind still scores exactly like the
/// scalar oracle — on a horizon long enough for many lanes to stabilise, so
/// the equality covers real stabilisation rounds, not just timeouts.
#[test]
fn ragged_multiword_sweep_matches_scalar_oracle() {
    use sc_attack::Move;
    let algo = a4();
    let rounds = vec![
        vec![
            Move::Echo(0),
            Move::Raw(3),
            Move::Stale { lag: 2, salt: 1 },
            Move::Raw(200),
        ],
        vec![
            Move::Stale { lag: 1, salt: 0 },
            Move::Echo(2),
            Move::Raw(0),
            Move::Echo(1),
        ],
    ];
    let script = Script::new(4, vec![2], rounds, 1).unwrap();
    let mut obj = Objective::new(&algo, &algo, vec![2], 0..70, 600).unwrap();
    assert!(obj.attach_sliced());
    let sliced = obj.evaluate(&script);
    let scalar = obj.evaluate_full(&script);
    assert_eq!(sliced, scalar);
    assert!(
        sliced.worst > 0,
        "a live attack sweep should register delay: {sliced:?}"
    );
    assert_eq!(obj.evaluations(), 2);
}

/// The `attack-search` shape: A(12,3) with the Figure-2 fault set, 64
/// scenarios of 96 rounds, echo scripts of 4 rounds. Most lanes close
/// inside the horizon, so the sliced sweeps freeze lanes and stop lane
/// groups early; along a 20-step mutate chain every sliced score must equal
/// the scalar full-horizon oracle's.
#[test]
fn a12_search_shape_mutate_chain_matches_scalar_oracle() {
    let algo = CounterBuilder::corollary1(1, 2)
        .unwrap()
        .boost(3)
        .unwrap()
        .build()
        .unwrap();
    let faulty = vec![0, 1, 4];
    let space = MoveSpace::echoes(2);
    let mut rng = SmallRng::seed_from_u64(0xa12);
    let mut script = Script::random(12, faulty.clone(), 4, 0, &space, &mut rng);
    let mut obj = Objective::new(&algo, &algo, faulty, 0..64, 96).unwrap();
    assert!(obj.attach_sliced(), "A(12,3) must lower");
    for step in 0..=20 {
        let sliced = obj.evaluate(&script);
        let scalar = obj.evaluate_full(&script);
        assert_eq!(sliced, scalar, "mutation step {step}");
        let round = rng.random_range(0..4usize);
        let g = rng.random_range(0..3usize);
        let to = rng.random_range(0..12usize);
        script.set_move(round, g, to, space.sample(&mut rng));
    }
}

/// Stacks outside the lowering's gate (a boosting layer with `m = 3`) leave
/// the objective on the scalar path instead of attaching.
#[test]
fn unsupported_stacks_stay_scalar() {
    let inner = Algorithm::trivial(9 * 6u64.pow(5) * 4).unwrap();
    let wide = Algorithm::boosted(inner, 5, 1, 8, 0).unwrap();
    let mut obj = Objective::new(&wide, &wide, vec![1], 0..2, 64).unwrap();
    assert!(!obj.attach_sliced());
    assert!(!obj.is_sliced());
}
