//! FNV-1a result digests: every repetition folds what the program returned
//! into one word, so "the outputs are correct" is an equality check.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a digest over 64-bit words (byte-wise, little endian).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(FNV_OFFSET)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            self.word(word);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 of `seed + salt`: how one `--seed` fans out into the
/// independent sub-seeds of a workload's inputs.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_under_repetition_and_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut d = Digest::new();
            d.words(words.iter().copied());
            d.finish()
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[]), fold(&[0]));
        // Pinned value: a silent change of the fold would invalidate every
        // golden digest in the registry.
        assert_eq!(fold(&[0xbead]), 0x1783_776a_c622_da02);
    }

    #[test]
    fn derived_seeds_differ_per_salt_and_per_seed() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
