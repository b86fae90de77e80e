//! Vendored, dependency-free subset of the `rand` crate API.
//!
//! The build environment of this workspace has no network access to
//! crates.io, so the few `rand` features the workspace actually uses are
//! provided by this shim: the [`RngCore`] / [`SeedableRng`] traits, the
//! [`Rng`] extension trait with `random_range` / `random_bool`, and
//! [`rngs::SmallRng`] implemented as xoshiro256++ (the same generator family
//! upstream `SmallRng` uses on 64-bit targets) seeded through SplitMix64.
//!
//! Only determinism *within this workspace* is relied upon — no test or
//! experiment assumes upstream `rand`'s exact streams.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed random bits.
pub trait RngCore {
    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be deterministically instantiated from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed material.
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from raw seed material.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64`, expanding it with SplitMix64 —
    /// distinct inputs yield well-separated streams.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }

    /// Creates a generator seeded from another generator.
    fn from_rng<R: RngCore + ?Sized>(source: &mut R) -> Self {
        let mut seed = Self::Seed::default();
        source.fill_bytes(seed.as_mut());
        Self::from_seed(seed)
    }
}

/// A value type that integer ranges can be uniformly sampled over.
pub trait SampleUniform: Copy {
    /// Converts to the `u64` sampling domain.
    fn to_u64(self) -> u64;
    /// Converts back from the `u64` sampling domain.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Uniformly samples `v ∈ [0, span)` without modulo bias (Lemire rejection).
fn sample_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let mut m = (rng.next_u64() as u128) * (span as u128);
    // A draw is rejected when its low half is below `2^64 mod span`, which
    // is below `span`: only then is the threshold (a division) worked out.
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
        }
    }
    (m >> 64) as u64
}

/// A range type that [`Rng::random_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "cannot sample empty range");
        T::from_u64(lo + sample_below(rng, hi - lo))
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "cannot sample empty range");
        // Wrapping: a range spanning the whole u64 domain has span 0.
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            return T::from_u64(rng.next_u64());
        }
        T::from_u64(lo + sample_below(rng, span))
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform sample from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        // 53 uniform mantissa bits, exactly as upstream's float conversion.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; the same
    /// family upstream `SmallRng` uses on 64-bit targets.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, 1, 2];
            }
            SmallRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&v));
            let w: usize = rng.random_range(0..=3);
            assert!(w <= 3);
            let z: u8 = rng.random_range(0..3u8);
            assert!(z < 3);
        }
    }

    /// The nearly divisionless form must accept and reject exactly the
    /// draws the textbook form does, or every seeded stream would shift.
    #[test]
    fn range_sampling_matches_textbook_lemire() {
        fn textbook(rng: &mut SmallRng, span: u64) -> u64 {
            let threshold = span.wrapping_neg() % span;
            loop {
                let m = (rng.next_u64() as u128) * (span as u128);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        // Spans near 2^63 reject almost half of all draws.
        for span in [1u64, 2, 3, 960, 1728, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
            let mut a = SmallRng::seed_from_u64(span);
            let mut b = a.clone();
            for _ in 0..2000 {
                assert_eq!(
                    sample_below(&mut a, span),
                    textbook(&mut b, span),
                    "span {span}"
                );
            }
            assert_eq!(a, b, "span {span}: streams must stay aligned");
        }
    }

    #[test]
    fn full_domain_inclusive_range_does_not_overflow() {
        let mut rng = SmallRng::seed_from_u64(9);
        let _: u64 = rng.random_range(0..=u64::MAX);
        let v: u64 = rng.random_range(1..=u64::MAX);
        assert!(v >= 1);
    }

    #[test]
    fn range_sampling_covers_all_values() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_bool_is_roughly_calibrated() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn dyn_rng_core_supports_extension_methods() {
        let mut rng = SmallRng::seed_from_u64(4);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = dyn_rng.random_range(0..10u64);
        assert!(v < 10);
        let _ = dyn_rng.random_bool(0.5);
    }

    #[test]
    fn fill_bytes_fills_every_byte_position() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        // With 100 fills the probability any byte position stays 0 is ~0.
        let mut or = [0u8; 13];
        for _ in 0..100 {
            rng.fill_bytes(&mut buf);
            for (o, b) in or.iter_mut().zip(&buf) {
                *o |= b;
            }
        }
        assert!(or.iter().all(|&b| b != 0));
    }
}
