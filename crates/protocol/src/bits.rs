//! Bit-exact state encoding.
//!
//! The paper measures space as `S(A) = ⌈log |X|⌉` bits per node and proves
//! the recurrence `S(B) = S(A) + ⌈log(C+1)⌉ + 1` for the boosted counter
//! (Theorem 1). Counters in this workspace implement an encoder/decoder into
//! [`BitVec`] whose *exact width* is asserted against the claimed `S(·)` in
//! tests, turning the space analysis into an executable invariant.

use std::error::Error;
use std::fmt;

/// A growable bit string with MSB-first in-word layout.
///
/// # Example
///
/// ```
/// use sc_protocol::BitVec;
///
/// let mut bits = BitVec::new();
/// bits.push_bits(0b101, 3);
/// bits.push_bit(true);
/// assert_eq!(bits.len(), 4);
/// let mut r = bits.reader();
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert!(r.read_bit()?);
/// # Ok::<(), sc_protocol::CodecError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit string.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Creates a zeroed bit string of `len` bits.
    ///
    /// This is the constructor for *random-access* bit sets (safe/agreed
    /// sets of the exhaustive verifier's game solver), as opposed to the
    /// append-only codec use: all bits exist immediately and are mutated
    /// with [`BitVec::set_bit`].
    pub fn with_len(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Clears and re-grows to `len` zero bits, retaining the allocated
    /// capacity — the reuse hook for solver bit sets that are rebuilt once
    /// per problem instance (the verifier's safe/agreed sets).
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Sets or clears the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set_bit(&mut self, index: usize, bit: bool) {
        assert!(index < self.len, "bit index {index} out of range");
        let mask = 1u64 << (63 - (index % 64));
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the indices of all set bits, in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word: 0,
            acc: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// Word-level: a field is appended in at most two masked word writes,
    /// not bit by bit — state codecs run in every round of a fingerprinted
    /// sweep, so this is hot-path code.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits —
    /// an encoder bug that would silently corrupt the space accounting.
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut remaining = width;
        while remaining > 0 {
            let offset = (self.len % 64) as u32;
            if offset == 0 {
                self.words.push(0);
            }
            let take = remaining.min(64 - offset);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            let chunk = (value >> (remaining - take)) & mask;
            *self.words.last_mut().expect("word pushed above or partial") |=
                chunk << (64 - offset - take);
            self.len += take as usize;
            remaining -= take;
        }
    }

    /// [`push_bits`](BitVec::push_bits) for fields of up to 128 bits — a
    /// whole packed counter state is one such field.
    ///
    /// # Panics
    ///
    /// Panics if `width > 128` or if `value` does not fit in `width` bits.
    pub fn push_wide(&mut self, value: u128, width: u32) {
        assert!(width <= 128, "width {width} exceeds u128");
        assert!(
            width == 128 || value >> width == 0,
            "value {value} does not fit in {width} bits"
        );
        if width > 64 {
            self.push_bits((value >> 64) as u64, width - 64);
        }
        self.push_bits(value as u64, width.min(64));
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = 63 - (self.len % 64);
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        (self.words[index / 64] >> (63 - (index % 64))) & 1 == 1
    }

    /// Clears the bit string, retaining the allocated capacity — the reuse
    /// hook for per-round encoding scratch (configuration fingerprinting
    /// re-encodes every round into the same buffer).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The backing 64-bit words, MSB-first within each word; bits past
    /// [`BitVec::len`] in the last word are zero. Two bit strings are equal
    /// exactly when their lengths and word slices are equal, which makes
    /// this the fast path for hashing and comparing whole encodings.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Creates a cursor reading from the first bit.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }
}

/// Iterator over the set-bit indices of a [`BitVec`], ascending.
///
/// Produced by [`BitVec::iter_ones`]. Bits past [`BitVec::len`] in the last
/// word are zero by construction, so no out-of-range index is ever yielded.
#[derive(Clone, Debug)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    word: usize,
    acc: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.acc == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.acc = self.words[self.word];
        }
        // MSB-first layout: the highest set bit is the lowest index.
        let lead = self.acc.leading_zeros() as usize;
        self.acc &= !(1u64 << (63 - lead));
        Some(self.word * 64 + lead)
    }
}

/// Cursor over a [`BitVec`].
///
/// See [`BitVec`] for an example.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Number of bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads `width` bits, most significant first. Consumes nothing unless
    /// the whole field is there.
    ///
    /// Word-level, mirroring [`BitVec::push_bits`]: a field is read from at
    /// most two words, not bit by bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::OutOfBits`] when fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        assert!(width <= 64, "width {width} exceeds u64");
        if (width as usize) > self.remaining() {
            return Err(CodecError::OutOfBits {
                wanted: width as usize,
                remaining: self.remaining(),
            });
        }
        if width == 0 {
            return Ok(0);
        }
        let words = &self.bits.words;
        let (word, offset) = (self.pos / 64, (self.pos % 64) as u32);
        // The field's first bit at the top; a field that straddles the
        // word boundary takes its tail from the top of the next word.
        let mut window = words[word] << offset;
        if width > 64 - offset {
            window |= words[word + 1] >> (64 - offset);
        }
        self.pos += width as usize;
        Ok(window >> (64 - width))
    }

    /// [`read_bits`](BitReader::read_bits) for fields of up to 128 bits.
    /// Consumes nothing unless the whole field is there.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::OutOfBits`] when fewer than `width` bits remain.
    pub fn read_wide(&mut self, width: u32) -> Result<u128, CodecError> {
        assert!(width <= 128, "width {width} exceeds u128");
        if (width as usize) > self.remaining() {
            return Err(CodecError::OutOfBits {
                wanted: width as usize,
                remaining: self.remaining(),
            });
        }
        let high = width.saturating_sub(64);
        let upper = u128::from(self.read_bits(high)?);
        Ok(upper << 64 | u128::from(self.read_bits(width - high)?))
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::OutOfBits`] at the end of the string.
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? == 1)
    }
}

/// Error produced when decoding a state from its bit representation.
///
/// # Example
///
/// ```
/// use sc_protocol::{BitVec, CodecError};
///
/// let bits = BitVec::new();
/// let err = bits.reader().read_bits(4).unwrap_err();
/// assert!(matches!(err, CodecError::OutOfBits { .. }));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bit string ended before the requested field.
    OutOfBits {
        /// Bits requested by the decoder.
        wanted: usize,
        /// Bits still available.
        remaining: usize,
    },
    /// A decoded field holds a value outside its domain.
    InvalidField {
        /// Which field was malformed, e.g. `"phase-king register"`.
        field: &'static str,
        /// The offending raw value.
        value: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::OutOfBits { wanted, remaining } => {
                write!(
                    f,
                    "bit string exhausted: wanted {wanted} bits, {remaining} remain"
                )
            }
            CodecError::InvalidField { field, value } => {
                write!(f, "decoded value {value} is outside the domain of {field}")
            }
        }
    }
}

impl Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_fields() {
        let mut bits = BitVec::new();
        bits.push_bits(0xDEAD, 16);
        bits.push_bit(false);
        bits.push_bits(5, 3);
        bits.push_bits(0, 0); // zero-width fields are allowed
        let mut r = bits.reader();
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(3).unwrap(), 5);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn crossing_word_boundaries() {
        let mut bits = BitVec::new();
        for i in 0..130u64 {
            bits.push_bit(i % 3 == 0);
        }
        assert_eq!(bits.len(), 130);
        let mut r = bits.reader();
        for i in 0..130u64 {
            assert_eq!(r.read_bit().unwrap(), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn full_width_values() {
        let mut bits = BitVec::new();
        bits.push_bits(u64::MAX, 64);
        assert_eq!(bits.reader().read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_rejects_oversized_values() {
        let mut bits = BitVec::new();
        bits.push_bits(8, 3);
    }

    #[test]
    fn wide_fields_equal_their_narrow_halves() {
        let value = 0x1_2345_6789_abcd_ef01_2345u128;
        for width in [0u32, 7, 64, 65, 81, 128] {
            let field = if width == 128 {
                value
            } else {
                value & ((1u128 << width) - 1)
            };
            let mut wide = BitVec::new();
            wide.push_bit(true); // unaligned start
            wide.push_wide(field, width);
            let mut narrow = BitVec::new();
            narrow.push_bit(true);
            narrow.push_bits((field >> 64) as u64, width.saturating_sub(64));
            narrow.push_bits(field as u64, width.min(64));
            assert_eq!(wide, narrow, "width {width}");
            let mut r = wide.reader();
            assert!(r.read_bit().unwrap());
            assert_eq!(r.read_wide(width).unwrap(), field, "width {width}");
        }
        let mut short = BitVec::new();
        short.push_bits(5, 70 - 64);
        short.push_bits(0, 63);
        let mut r = short.reader();
        assert_eq!(
            r.read_wide(70),
            Err(CodecError::OutOfBits {
                wanted: 70,
                remaining: 69
            })
        );
        assert_eq!(r.remaining(), 69, "a failed wide read consumes nothing");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_wide_rejects_oversized_values() {
        let mut bits = BitVec::new();
        bits.push_wide(1 << 70, 70);
    }

    #[test]
    fn out_of_bits_error_reports_counts() {
        let mut bits = BitVec::new();
        bits.push_bits(1, 2);
        let mut r = bits.reader();
        let err = r.read_bits(5).unwrap_err();
        assert_eq!(
            err,
            CodecError::OutOfBits {
                wanted: 5,
                remaining: 2
            }
        );
        assert!(err.to_string().contains("wanted 5"));
    }

    #[test]
    fn with_len_set_bit_round_trip() {
        let mut bits = BitVec::with_len(130);
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), 0);
        bits.set_bit(0, true);
        bits.set_bit(64, true);
        bits.set_bit(129, true);
        assert!(bits.bit(0) && bits.bit(64) && bits.bit(129));
        assert_eq!(bits.count_ones(), 3);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        bits.set_bit(64, false);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
        // Clearing must not disturb neighbours.
        assert!(bits.bit(0) && !bits.bit(64) && bits.bit(129));
    }

    #[test]
    fn reset_zeroes_and_resizes() {
        let mut bits = BitVec::with_len(70);
        bits.set_bit(3, true);
        bits.set_bit(69, true);
        bits.reset(10);
        assert_eq!(bits.len(), 10);
        assert_eq!(bits.count_ones(), 0);
        bits.reset(130);
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), 0);
        bits.set_bit(129, true);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![129]);
    }

    #[test]
    fn iter_ones_on_empty_and_full_strings() {
        assert_eq!(BitVec::new().iter_ones().next(), None);
        assert_eq!(BitVec::with_len(200).iter_ones().next(), None);
        let mut bits = BitVec::with_len(67);
        for i in 0..67 {
            bits.set_bit(i, true);
        }
        assert_eq!(bits.count_ones(), 67);
        assert_eq!(
            bits.iter_ones().collect::<Vec<_>>(),
            (0..67).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_bit_rejects_out_of_range() {
        BitVec::with_len(8).set_bit(8, true);
    }

    #[test]
    fn display_for_invalid_field() {
        let err = CodecError::InvalidField {
            field: "register",
            value: 9,
        };
        assert!(err.to_string().contains("register"));
    }
}
