//! The codec and the packed state word are one representation, not two:
//! what `encode_state` writes *is* the word, what `decode_state` accepts is
//! exactly the words whose every field is in its domain, and no input —
//! truncated, flipped or out of domain — makes the decoder panic.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sc_consensus::INFINITY;
use sc_core::{Algorithm, CounterBuilder, CounterState, LutSpec};
use sc_protocol::{BitVec, CodecError, Counter, NodeId, SyncProtocol};

/// Trivial, table-driven, and the k = 3 stack A(4,1) … A(324,31)
/// (15 / 26 / 38 / 51 / 65 state bits).
fn family() -> &'static [Algorithm] {
    static FAMILY: OnceLock<Vec<Algorithm>> = OnceLock::new();
    FAMILY.get_or_init(|| {
        let three_states = LutSpec {
            n: 1,
            f: 0,
            c: 3,
            states: 3,
            transition: vec![vec![1, 2, 0]],
            output: vec![vec![0, 1, 2]],
            stabilization_bound: 0,
        };
        let mut family = vec![
            Algorithm::trivial(2304).unwrap(),
            Algorithm::lut(three_states).unwrap(),
        ];
        let mut builder = CounterBuilder::corollary1(1, 2).unwrap();
        for _ in 0..5 {
            family.push(builder.build().unwrap());
            builder = builder.boost(3).unwrap();
        }
        family
    })
}

/// The stack A(4,1) … A(324,31) alone.
fn stack() -> &'static [Algorithm] {
    &family()[2..]
}

fn encoded(algo: &Algorithm, state: CounterState) -> BitVec {
    let mut bits = BitVec::new();
    algo.encode_state(NodeId::new(0), &state, &mut bits);
    bits
}

fn decoded(algo: &Algorithm, bits: &BitVec) -> Result<CounterState, CodecError> {
    algo.decode_state(NodeId::new(0), &mut bits.reader())
}

/// `bits` as the integer it spells, most significant bit first.
fn as_word(bits: &BitVec) -> u128 {
    (0..bits.len()).fold(0, |word, i| word << 1 | u128::from(bits.bit(i)))
}

/// Whether every field of `state` is in its domain — the accessors' view,
/// independent of the decoder's.
fn in_domain(algo: &Algorithm, state: CounterState) -> bool {
    match algo {
        Algorithm::Trivial(t) => state.word() < u128::from(t.modulus()),
        Algorithm::Lut(l) => state.word() < u128::from(l.states()),
        Algorithm::Boosted(b) => {
            let a = b.regs_of(state).a;
            (a == INFINITY || a < b.params().c_out()) && in_domain(b.inner(), b.inner_of(state))
        }
    }
}

/// `state` with the `width` bits from bit `low` up replaced by `field`.
fn with_field(state: CounterState, low: u32, width: u32, field: u128) -> CounterState {
    let mask = ((1u128 << width) - 1) << low;
    CounterState::new(state.word() & !mask | field << low)
}

proptest! {
    /// `encode_state` writes the word, in `state_bits()` bits, and
    /// `decode_state` gives it back.
    #[test]
    fn the_encoding_is_the_word(which in 0usize..7, seed in any::<u64>()) {
        let algo = &family()[which];
        let node = NodeId::new(seed as usize % algo.n());
        let state = algo.random_state(node, &mut SmallRng::seed_from_u64(seed));
        let bits = encoded(algo, state);
        prop_assert_eq!(bits.len() as u32, algo.state_bits());
        prop_assert_eq!(as_word(&bits), state.word());
        prop_assert!(in_domain(algo, state));
        prop_assert_eq!(algo.decode_state(node, &mut bits.reader()), Ok(state));
    }

    /// Every proper prefix of an encoding is refused, and every single-bit
    /// flip decodes to a different state that is valid in every field — or
    /// is refused.
    #[test]
    fn truncations_and_bit_flips_never_panic(which in 0usize..7, seed in any::<u64>()) {
        let algo = &family()[which];
        let state = algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(seed));
        let bits = encoded(algo, state);
        for len in 0..bits.len() {
            let mut prefix = BitVec::new();
            (0..len).for_each(|i| prefix.push_bit(bits.bit(i)));
            prop_assert!(
                matches!(decoded(algo, &prefix), Err(CodecError::OutOfBits { .. })),
                "prefix of {len} bits"
            );
        }
        for flip in 0..bits.len() {
            let mut flipped = BitVec::new();
            (0..bits.len()).for_each(|i| flipped.push_bit(bits.bit(i) ^ (i == flip)));
            match decoded(algo, &flipped) {
                Ok(other) => {
                    prop_assert_ne!(other, state);
                    prop_assert_eq!(other.word(), as_word(&flipped));
                    prop_assert!(in_domain(algo, other), "flip {flip} decoded to {other:?}");
                }
                Err(error) => {
                    prop_assert!(matches!(error, CodecError::InvalidField { .. }), "flip {flip}");
                    prop_assert!(!in_domain(algo, CounterState::new(as_word(&flipped))));
                }
            }
        }
    }

    /// A field outside its domain — the innermost counter ≥ its modulus,
    /// or `a > C` at any level of the stack — is refused wherever it sits.
    #[test]
    fn out_of_domain_fields_are_refused(which in 0usize..5, seed in any::<u64>(), over in 0u64..64) {
        let algo = &stack()[which];
        let state = algo.random_state(NodeId::new(0), &mut SmallRng::seed_from_u64(seed));
        let (mut level, mut low) = (algo, 0);
        while let Algorithm::Boosted(b) = level {
            let width = b.params().state_overhead_bits() - 1;
            // Raw register values above C that the field can still hold.
            let beyond = b.params().c_out() + 1 + over;
            if u128::from(beyond) < 1 << width {
                let bad = with_field(state, low + 1, width, beyond.into());
                prop_assert!(!in_domain(algo, bad));
                prop_assert!(
                    matches!(decoded(algo, &encoded(algo, bad)), Err(CodecError::InvalidField { .. })),
                    "a = {beyond} at bit {low}"
                );
            }
            (level, low) = (b.inner(), low + width + 1);
        }
        // The base of the stack is the trivial counter mod 2304 in 12 bits.
        let bad = with_field(state, low, 12, (2304 + over).into());
        prop_assert!(matches!(
            decoded(algo, &encoded(algo, bad)),
            Err(CodecError::InvalidField { field: "trivial counter", .. })
        ));
    }
}

/// The 128-bit bound on the state word leaves the whole measured stack
/// standing: A(324,31), the first level past one `u64`, builds at 65 bits.
#[test]
fn the_stack_up_to_a324_fits_the_word() {
    let bits: Vec<u32> = stack().iter().map(Counter::state_bits).collect();
    assert_eq!(bits, [15, 26, 38, 51, 65]);
    assert_eq!((stack()[4].n(), stack()[4].resilience()), (324, 31));
}

#[test]
fn bare_counters_refuse_values_outside_their_state_space() {
    for (algo, width, first_bad) in [(&family()[0], 12, 2304u64), (&family()[1], 2, 3)] {
        for value in first_bad..1 << width {
            let mut bits = BitVec::new();
            bits.push_bits(value, width);
            assert!(
                matches!(decoded(algo, &bits), Err(CodecError::InvalidField { .. })),
                "{value} in {width} bits"
            );
        }
    }
}

/// `random_state` draws from the generator in the order the boxed states
/// did — inner counter first, then `a`, then `d`, level by level — so every
/// seed still names the configuration it named before. The literals are
/// the codec's output for the same calls at the parent of this change
/// (nodes 0 and n − 1 drawn from one stream per seed).
#[test]
fn random_states_are_the_ones_each_seed_always_named() {
    const SEEDS: [u64; 3] = [1, 0x5eed_cafe, 0xdead_beef_0bad_f00d];
    #[rustfmt::skip]
    let pinned: [(usize, [u128; 6]); 5] = [
        (4, [0x4d8, 0x3522, 0x1742, 0x701, 0x46e5, 0x15a0]),
        (12, [0x26c602, 0x887c09, 0xba2791, 0x2130483, 0x2373c0b, 0x15771da]),
        (36, [0x26c603fc1, 0x152445ec08, 0xba279177c, 0x103781f51, 0x2373c0ca38, 0x19fa7b3388]),
        (108, [0x4d8c07f813b9, 0x2a4f8166235d1, 0x1744f22efcc04, 0x19e35dd4b8ca2, 0x46e78194748d5, 0x310d139756f13]),
        (324, [0x136301fe04ee8809, 0x345cbaadcc1d84e2, 0x5d13c8bbf3018c03, 0xbd1d8e53a7087af0, 0x11b9e0651d2358c0a, 0xd05505d6a2cb56a8]),
    ];
    for (algo, (n, words)) in stack().iter().zip(pinned) {
        assert_eq!(algo.n(), n);
        let mut drawn = Vec::new();
        for seed in SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed);
            for node in [0, n - 1] {
                drawn.push(algo.random_state(NodeId::new(node), &mut rng).word());
            }
        }
        assert_eq!(drawn, words, "A({n}, ·)");
    }
}
