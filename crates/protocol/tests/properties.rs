//! Property-based tests for the protocol substrate.

use proptest::prelude::*;
use sc_protocol::{bits_for, inc_mod, majority, majority_or, BitVec, CodecError, Interval, Tally};

proptest! {
    /// Round trip: any sequence of (value, width) fields written to a
    /// `BitVec` reads back identically, and the length is the sum of widths.
    #[test]
    fn bitvec_round_trips_any_field_sequence(
        fields in proptest::collection::vec((any::<u64>(), 0u32..=64), 0..20)
    ) {
        let mut bits = BitVec::new();
        let mut expect_len = 0usize;
        let mut written = Vec::new();
        for (value, width) in &fields {
            let masked = if *width == 64 { *value } else { value & ((1u64 << width) - 1) };
            bits.push_bits(masked, *width);
            written.push((masked, *width));
            expect_len += *width as usize;
        }
        prop_assert_eq!(bits.len(), expect_len);
        let mut reader = bits.reader();
        for (value, width) in written {
            prop_assert_eq!(reader.read_bits(width).unwrap(), value);
        }
        prop_assert_eq!(reader.remaining(), 0);
    }

    /// The word-level reader equals a bit-by-bit read for every width
    /// 0..=64 at every offset, and a short read fails without consuming.
    #[test]
    fn read_bits_equals_the_bit_by_bit_reader(
        words in proptest::collection::vec(any::<u64>(), 1..4),
        tail in 0u32..64,
    ) {
        let mut bits = BitVec::new();
        for (i, &word) in words.iter().enumerate() {
            if i + 1 < words.len() {
                bits.push_bits(word, 64);
            } else if tail > 0 {
                bits.push_bits(word >> (64 - tail), tail);
            }
        }
        let len = bits.len();
        for offset in 0..=len {
            for width in 0..=64u32 {
                let mut reader = bits.reader();
                let mut skipped = 0;
                while skipped < offset {
                    let step = (offset - skipped).min(64);
                    reader.read_bits(step as u32).unwrap();
                    skipped += step;
                }
                let end = offset + width as usize;
                if end <= len {
                    let expected = (offset..end)
                        .fold(0u64, |acc, i| (acc << 1) | u64::from(bits.bit(i)));
                    prop_assert_eq!(reader.read_bits(width).unwrap(), expected);
                    prop_assert_eq!(reader.remaining(), len - end);
                } else {
                    let short = CodecError::OutOfBits {
                        wanted: width as usize,
                        remaining: len - offset,
                    };
                    prop_assert_eq!(reader.read_bits(width), Err(short));
                    prop_assert_eq!(reader.remaining(), len - offset);
                }
            }
        }
    }

    /// A strict majority, when it exists, occurs more than half the time;
    /// and any value occurring more than half the time is returned.
    #[test]
    fn majority_is_sound_and_complete(values in proptest::collection::vec(0u64..5, 1..30)) {
        let total = values.len();
        match majority(values.iter().copied()) {
            Some(winner) => {
                let count = values.iter().filter(|&&v| v == winner).count();
                prop_assert!(2 * count > total);
            }
            None => {
                for candidate in 0..5u64 {
                    let count = values.iter().filter(|&&v| v == candidate).count();
                    prop_assert!(2 * count <= total);
                }
            }
        }
    }

    /// `majority_or` equals `majority` with a default.
    #[test]
    fn majority_or_matches_majority(values in proptest::collection::vec(0u64..4, 0..20)) {
        let expected = majority(values.iter().copied()).unwrap_or(99);
        prop_assert_eq!(majority_or(values.iter().copied(), 99), expected);
    }

    /// Tally counts match naive counting, and the min-over-threshold query
    /// returns the smallest qualifying value.
    #[test]
    fn tally_matches_naive_counting(
        values in proptest::collection::vec(0u64..6, 0..40),
        threshold in 0usize..10,
    ) {
        let tally: Tally = values.iter().copied().collect();
        prop_assert_eq!(tally.total(), values.len());
        for candidate in 0..6u64 {
            let naive = values.iter().filter(|&&v| v == candidate).count();
            prop_assert_eq!(tally.count(candidate), naive);
        }
        let naive_min = (0..6u64)
            .find(|&c| values.iter().filter(|&&v| v == c).count() > threshold);
        prop_assert_eq!(tally.min_value_with_count_over(threshold), naive_min);
    }

    /// `inc_mod` is a bijection on `[m]` with a single wrap point.
    #[test]
    fn inc_mod_is_cyclic(m in 1u64..1000, v in 0u64..1000) {
        let v = v % m;
        let next = inc_mod(v, m);
        prop_assert!(next < m);
        prop_assert_eq!(next, (v + 1) % m);
    }

    /// `bits_for` is the minimal width: `values - 1` fits, `2^(bits) ≥ values`.
    #[test]
    fn bits_for_is_minimal(values in 1u64..u64::MAX) {
        let w = bits_for(values);
        if w < 64 {
            prop_assert!(1u128 << w >= values as u128);
        }
        if w > 0 {
            prop_assert!((1u128 << (w - 1)) < values as u128);
        }
    }

    /// Interval intersection is commutative, contained in both operands,
    /// and exact on lengths for nested intervals.
    #[test]
    fn interval_intersection_laws(a in 0u64..100, b in 0u64..100, c in 0u64..100, d in 0u64..100) {
        let x = Interval::new(a.min(b), a.max(b));
        let y = Interval::new(c.min(d), c.max(d));
        let xy = x.intersect(y);
        let yx = y.intersect(x);
        prop_assert_eq!(xy, yx);
        for t in xy.start..xy.end {
            prop_assert!(x.contains(t) && y.contains(t));
        }
        prop_assert!(xy.len() <= x.len() && xy.len() <= y.len());
    }
}
