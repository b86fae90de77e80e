//! Majority votes and tallies.
//!
//! The boosting construction (§3.3) repeatedly takes majority votes over
//! received values. The paper's `majority` evaluates to a value `a` only if
//! `a` occurs *strictly more* than half the time, and is otherwise
//! unconstrained (`∗`) — implementations then default to an arbitrary fixed
//! value. We surface the unconstrained case as `None` so call sites choose
//! their default explicitly.

use std::collections::BTreeMap;

/// Returns the strict-majority value of `values`, if one exists.
///
/// A value wins only when it occurs more than `len/2` times; with no such
/// value the paper's majority function is unconstrained and we return
/// `None`.
///
/// # Example
///
/// ```
/// use sc_protocol::majority;
///
/// assert_eq!(majority([2u64, 2, 2, 1]), Some(2));
/// assert_eq!(majority([2u64, 2, 1, 1]), None); // exactly half is not enough
/// assert_eq!(majority(Vec::<u64>::new()), None);
/// ```
pub fn majority<I, T>(values: I) -> Option<T>
where
    I: IntoIterator<Item = T>,
    I::IntoIter: Clone,
    T: Eq,
{
    // Boyer–Moore: the only possible strict-majority value survives the
    // pairing pass; a second pass over the same votes confirms it. No heap,
    // so the votes of §3.3 cost nothing beyond computing them twice.
    let votes = values.into_iter();
    let mut candidate = None;
    let mut lead = 0usize;
    for v in votes.clone() {
        if lead == 0 {
            candidate = Some(v);
            lead = 1;
        } else if candidate.as_ref() == Some(&v) {
            lead += 1;
        } else {
            lead -= 1;
        }
    }
    let candidate = candidate?;
    let (mut count, mut total) = (0usize, 0usize);
    for v in votes {
        count += usize::from(v == candidate);
        total += 1;
    }
    (2 * count > total).then_some(candidate)
}

/// Returns the strict-majority value of `values`, or `default` when no
/// strict majority exists.
///
/// This matches the paper's advice of "defaulting to, e.g., 0, when no such
/// majority is found".
///
/// # Example
///
/// ```
/// use sc_protocol::majority_or;
///
/// assert_eq!(majority_or([5u64, 5, 1], 0), 5);
/// assert_eq!(majority_or([5u64, 1], 0), 0);
/// ```
pub fn majority_or<I>(values: I, default: u64) -> u64
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: Clone,
{
    majority(values).unwrap_or(default)
}

/// An ordered tally of `u64` values.
///
/// Drives the phase-king instruction sets of Table 2, which need the count
/// `z_j` of each received value `j`, the threshold tests `z_j ≥ N − F` and
/// `z_j > F`, and `min{j : z_j > F}`. Values are kept in increasing order so
/// the minimum query is a scan; the reset state `∞` is encoded by callers as
/// `u64::MAX` and therefore naturally sorts last.
///
/// # Example
///
/// ```
/// use sc_protocol::Tally;
///
/// let mut z = Tally::new();
/// for v in [4u64, 4, 9, u64::MAX] {
///     z.add(v);
/// }
/// assert_eq!(z.total(), 4);
/// assert_eq!(z.count(4), 2);
/// assert_eq!(z.min_value_with_count_over(1), Some(4));
/// assert_eq!(z.min_value_with_count_over(2), None);
/// assert_eq!(z.majority(), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    counts: BTreeMap<u64, usize>,
    total: usize,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Builds a tally from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut tally = Tally::new();
        for v in values {
            tally.add(v);
        }
        tally
    }

    /// Records one occurrence of `value`.
    pub fn add(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of occurrences of `value` (the paper's `z_value`).
    pub fn count(&self, value: u64) -> usize {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Total number of recorded values.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The smallest value occurring strictly more than `threshold` times:
    /// `min{j : z_j > threshold}`.
    pub fn min_value_with_count_over(&self, threshold: usize) -> Option<u64> {
        self.counts
            .iter()
            .find(|(_, &count)| count > threshold)
            .map(|(&value, _)| value)
    }

    /// The strict-majority value, if any.
    pub fn majority(&self) -> Option<u64> {
        self.counts
            .iter()
            .find(|(_, &count)| 2 * count > self.total)
            .map(|(&value, _)| value)
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

impl FromIterator<u64> for Tally {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Tally::from_values(iter)
    }
}

impl Extend<u64> for Tally {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// The vote-count queries the phase-king instruction sets consume.
///
/// Abstracting the queries lets the instruction executor run off either a
/// freshly built [`Tally`] (the reference path) or a shared-and-patched
/// [`DeltaTally`] (the prepared batch path) with identical semantics.
pub trait VoteCounts {
    /// Number of occurrences of `value` (the paper's `z_value`).
    fn count(&self, value: u64) -> usize;
    /// Total number of recorded values.
    fn total(&self) -> usize;
    /// `min{j : z_j > threshold}`.
    fn min_value_with_count_over(&self, threshold: usize) -> Option<u64>;
    /// The strict-majority value, if any.
    fn majority(&self) -> Option<u64> {
        self.min_value_with_count_over(self.total() / 2)
    }
}

impl VoteCounts for Tally {
    fn count(&self, value: u64) -> usize {
        Tally::count(self, value)
    }
    fn total(&self) -> usize {
        Tally::total(self)
    }
    fn min_value_with_count_over(&self, threshold: usize) -> Option<u64> {
        Tally::min_value_with_count_over(self, threshold)
    }
    fn majority(&self) -> Option<u64> {
        Tally::majority(self)
    }
}

/// A sequence of votes that is its own tally: every query walks the votes
/// again, so nothing is stored — the form for a receiver's full vector,
/// whose votes are cheap to recompute and queried a few times at most.
///
/// # Example
///
/// ```
/// use sc_protocol::{Rescan, VoteCounts as _};
///
/// let received = [7u64, 3, 7, 9];
/// let z = Rescan(received.iter().copied());
/// assert_eq!((z.total(), z.count(7)), (4, 2));
/// assert_eq!(z.min_value_with_count_over(0), Some(3));
/// assert_eq!(z.min_value_with_count_over(1), Some(7));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Rescan<I>(pub I);

impl<I: Iterator<Item = u64> + Clone> VoteCounts for Rescan<I> {
    fn count(&self, value: u64) -> usize {
        self.0.clone().filter(|&v| v == value).count()
    }

    fn total(&self) -> usize {
        self.0.clone().count()
    }

    fn min_value_with_count_over(&self, threshold: usize) -> Option<u64> {
        // Only a value below the best so far is worth counting.
        self.0.clone().fold(None, |least, v| {
            let better = least.is_none_or(|found| v < found) && self.count(v) > threshold;
            if better {
                Some(v)
            } else {
                least
            }
        })
    }
}

/// A tally that is shared between receivers and *patched* per receiver.
///
/// The boosting construction's majority votes are taken per receiver, but
/// the votes of honest senders are identical for every receiver — only the
/// ≤ `f` Byzantine overrides differ. A `DeltaTally` holds the shared honest
/// part, built once per round, and each receiver queries it
/// [`patched`](DeltaTally::patched) with the faulty votes it received:
/// `O(f)` work per query instead of `O(n)` per receiver, nothing written
/// and nothing allocated.
///
/// Backed by a sorted `Vec` — for the tally sizes of a round (≤ `n`
/// entries) this is far faster than a tree map, and `min` queries are the
/// same ascending scan.
///
/// # Example
///
/// ```
/// use sc_protocol::{DeltaTally, VoteCounts as _};
///
/// let z = DeltaTally::from_values([4u64, 4, 9, 1]);
/// assert_eq!(z.majority(), None); // 2 of 4 is not strict
/// let seen = z.patched(&[4]); // one receiver also got a 4
/// assert_eq!(seen.count(4), 3);
/// assert_eq!(seen.majority(), Some(4)); // 3 of 5
/// assert_eq!(z.count(4), 2); // the shared part is untouched
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaTally {
    /// `(value, count)`, sorted by value, counts ≥ 1.
    counts: Vec<(u64, u32)>,
    total: usize,
}

impl DeltaTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        DeltaTally::default()
    }

    /// An empty tally with room for `distinct` different values, so that
    /// refilling it round after round never reallocates.
    pub fn with_capacity(distinct: usize) -> Self {
        DeltaTally {
            counts: Vec::with_capacity(distinct),
            total: 0,
        }
    }

    /// Empties the tally, keeping its capacity.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Builds a tally from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut tally = DeltaTally::new();
        for v in values {
            tally.add(v);
        }
        tally
    }

    /// Records one occurrence of `value`.
    pub fn add(&mut self, value: u64) {
        match self.counts.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (value, 1)),
        }
        self.total += 1;
    }

    /// This tally as seen by a receiver who got the `extra` votes on top.
    pub fn patched<'a>(&'a self, extra: &'a [u64]) -> Patched<'a> {
        Patched {
            shared: self,
            extra,
        }
    }
}

/// A [`DeltaTally`] plus one receiver's handful of extra votes; see
/// [`DeltaTally::patched`].
#[derive(Clone, Copy, Debug)]
pub struct Patched<'a> {
    shared: &'a DeltaTally,
    extra: &'a [u64],
}

impl Patched<'_> {
    fn extra_count(&self, value: u64) -> usize {
        self.extra.iter().filter(|&&v| v == value).count()
    }
}

impl VoteCounts for Patched<'_> {
    fn count(&self, value: u64) -> usize {
        self.shared.count(value) + self.extra_count(value)
    }

    fn total(&self) -> usize {
        self.shared.total + self.extra.len()
    }

    fn min_value_with_count_over(&self, threshold: usize) -> Option<u64> {
        // Few values can pass even if every extra vote went to them, and
        // those are the only ones the extra votes are counted for.
        let reach = self.extra.len();
        let shared = self
            .shared
            .counts
            .iter()
            .find(|&&(v, count)| {
                let count = count as usize;
                count + reach > threshold && count + self.extra_count(v) > threshold
            })
            .map(|&(v, _)| v);
        // A value that only the extra votes carry may come first.
        let lone = |&v: &u64| self.shared.count(v) == 0 && self.extra_count(v) > threshold;
        let extra = if reach > threshold {
            self.extra.iter().copied().filter(lone).min()
        } else {
            None
        };
        // (Kept a plain match: this is the innermost query of every prepared
        // step, and `[shared, extra].into_iter().flatten().min()` measured
        // 1.5× on the whole fault-free round.)
        match (shared, extra) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl VoteCounts for DeltaTally {
    fn count(&self, value: u64) -> usize {
        match self.counts.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.counts[i].1 as usize,
            Err(_) => 0,
        }
    }

    fn total(&self) -> usize {
        self.total
    }

    fn min_value_with_count_over(&self, threshold: usize) -> Option<u64> {
        self.counts
            .iter()
            .find(|&&(_, count)| count as usize > threshold)
            .map(|&(value, _)| value)
    }

    fn majority(&self) -> Option<u64> {
        self.counts
            .iter()
            .find(|&&(_, count)| 2 * count as usize > self.total)
            .map(|&(value, _)| value)
    }
}

impl FromIterator<u64> for DeltaTally {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        DeltaTally::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_requires_strict_majority() {
        assert_eq!(majority([1u64, 1, 2, 2]), None);
        assert_eq!(majority([1u64, 1, 1, 2]), Some(1));
        assert_eq!(majority([7u64]), Some(7));
    }

    #[test]
    fn majority_on_non_numeric_ord_types() {
        assert_eq!(majority(["a", "b", "a"]), Some("a"));
    }

    #[test]
    fn majority_or_defaults() {
        assert_eq!(majority_or([], 42), 42);
        assert_eq!(majority_or([3, 3, 3, 1, 2], 42), 3);
    }

    #[test]
    fn tally_counts_and_thresholds() {
        let z: Tally = [5u64, 5, 5, 8, 8, u64::MAX].into_iter().collect();
        assert_eq!(z.total(), 6);
        assert_eq!(z.count(5), 3);
        assert_eq!(z.count(8), 2);
        assert_eq!(z.count(0), 0);
        assert_eq!(z.min_value_with_count_over(2), Some(5));
        assert_eq!(z.min_value_with_count_over(1), Some(5));
        // Only the reset state (u64::MAX) would win here with threshold 0 for
        // large values; the scan returns the smallest qualifying value.
        assert_eq!(z.min_value_with_count_over(0), Some(5));
        assert_eq!(z.min_value_with_count_over(5), None);
    }

    #[test]
    fn tally_majority_matches_free_function() {
        let values = [9u64, 9, 9, 1, 2];
        let z = Tally::from_values(values);
        assert_eq!(z.majority(), majority(values));
    }

    #[test]
    fn infinity_sorts_last() {
        let z = Tally::from_values([u64::MAX, u64::MAX, 3]);
        // min over values with count > 1 is ∞ since only ∞ qualifies.
        assert_eq!(z.min_value_with_count_over(1), Some(u64::MAX));
        // 3 is found first when the threshold admits it.
        assert_eq!(z.min_value_with_count_over(0), Some(3));
    }

    #[test]
    fn extend_accumulates() {
        let mut z = Tally::new();
        z.extend([1u64, 1]);
        z.extend([2u64]);
        assert_eq!(z.total(), 3);
        assert_eq!(z.iter().collect::<Vec<_>>(), vec![(1, 2), (2, 1)]);
    }

    /// Every `VoteCounts` query must agree between `Tally` and `DeltaTally`
    /// for identical multisets, including after add/remove patching.
    #[test]
    fn delta_tally_agrees_with_tally() {
        let multisets: &[&[u64]] = &[
            &[],
            &[7],
            &[4, 4, 9, u64::MAX],
            &[5, 5, 5, 8, 8, u64::MAX],
            &[0, 1, 2, 3, 4, 5, 6],
            &[2, 2, 1, 1],
        ];
        for values in multisets {
            let tree: Tally = values.iter().copied().collect();
            let flat: DeltaTally = values.iter().copied().collect();
            for probe in [0u64, 1, 2, 4, 5, 8, 9, u64::MAX] {
                assert_eq!(
                    VoteCounts::count(&tree, probe),
                    VoteCounts::count(&flat, probe)
                );
            }
            assert_eq!(VoteCounts::total(&tree), VoteCounts::total(&flat));
            for threshold in 0..values.len() + 1 {
                assert_eq!(
                    VoteCounts::min_value_with_count_over(&tree, threshold),
                    VoteCounts::min_value_with_count_over(&flat, threshold),
                    "{values:?} over {threshold}"
                );
            }
            assert_eq!(VoteCounts::majority(&tree), VoteCounts::majority(&flat));
        }
    }

    #[test]
    fn delta_tally_clear_keeps_its_capacity() {
        let mut t = DeltaTally::with_capacity(4);
        let capacity = t.counts.capacity();
        for round in 0..3u64 {
            t.clear();
            assert_eq!((VoteCounts::total(&t), t.majority()), (0, None));
            for v in [round, round + 1, round + 2, round] {
                t.add(v);
            }
            assert_eq!(t.majority(), None);
            assert_eq!(VoteCounts::count(&t, round), 2);
        }
        assert_eq!(t.counts.capacity(), capacity);
    }

    #[test]
    fn rescan_agrees_with_tally() {
        let multisets: &[&[u64]] = &[
            &[],
            &[7],
            &[9, 4, 4, u64::MAX],
            &[5, 8, 5, 8, 5, u64::MAX],
            &[6, 5, 4, 3],
        ];
        for values in multisets {
            let tree: Tally = values.iter().copied().collect();
            let scan = Rescan(values.iter().copied());
            assert_eq!(scan.total(), tree.total());
            for probe in [0u64, 4, 5, 8, u64::MAX] {
                assert_eq!(
                    scan.count(probe),
                    tree.count(probe),
                    "{values:?} count {probe}"
                );
            }
            for threshold in 0..values.len() + 1 {
                assert_eq!(
                    scan.min_value_with_count_over(threshold),
                    tree.min_value_with_count_over(threshold),
                    "{values:?} over {threshold}"
                );
            }
            assert_eq!(VoteCounts::majority(&scan), tree.majority(), "{values:?}");
        }
    }

    /// A patched view must answer every query like a tally that really
    /// holds the extra votes — and leave the shared tally as it was.
    #[test]
    fn patched_view_agrees_with_a_tally_holding_the_extra_votes() {
        let base = [3u64, 3, 7, u64::MAX];
        let shared = DeltaTally::from_values(base);
        let snapshot = shared.clone();
        let patches: &[&[u64]] = &[
            &[],
            &[1, 3],
            &[9, 9],
            &[u64::MAX, 0],
            &[0, 0, 0],
            &[7, 7, 3],
        ];
        for extra in patches {
            let seen = shared.patched(extra);
            let whole: Tally = base.iter().chain(*extra).copied().collect();
            for probe in [0u64, 1, 3, 7, 9, u64::MAX] {
                assert_eq!(
                    seen.count(probe),
                    whole.count(probe),
                    "{extra:?} count {probe}"
                );
            }
            assert_eq!(seen.total(), whole.total());
            for threshold in 0..whole.total() + 1 {
                assert_eq!(
                    seen.min_value_with_count_over(threshold),
                    whole.min_value_with_count_over(threshold),
                    "{extra:?} over {threshold}"
                );
            }
            assert_eq!(seen.majority(), whole.majority(), "{extra:?}");
        }
        assert_eq!(shared, snapshot);
    }
}
