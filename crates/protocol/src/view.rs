//! The per-receiver view of one communication round.

use crate::NodeId;

/// Where the state a faulty sender presents to one receiver comes from — the
/// lease an adversary hands the engine instead of an owned state.
///
/// The borrow-based message plane works in two steps: per (faulty sender,
/// receiver) pair the adversary returns one of these cheap `Copy` tokens,
/// and the engine resolves them zero-copy when it builds the receiver's
/// [`MessageView`] (via [`MessageView::from_sources`]). Only genuinely
/// fabricated states are ever materialised — once, into the engine's state
/// pool — while echo/replay/permutation attacks resolve to references into
/// states that already exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageSource {
    /// Echo the state node `NodeId` broadcasts *this round* (an honest
    /// donor, or the faulty sender's own placeholder). Resolves into the
    /// round's base vector; never clones.
    Broadcast(NodeId),
    /// A state the adversary pinned into the pool once for the whole
    /// execution (e.g. a crash adversary's frozen states). Stable across
    /// rounds; materialised exactly once.
    Pinned(u32),
    /// A state fabricated into the pool *this round*; the slot is recycled
    /// when the next round begins.
    Fabricated(u32),
}

/// The receiver-specific override slot of a [`MessageView`].
///
/// Overrides produced fresh by an adversary are owned; overrides that merely
/// point at states the caller already holds (sleeper adversaries replaying
/// their own honestly-maintained states, lookahead scoring) borrow them
/// instead of cloning; and the engine's hot path resolves adversary
/// [`MessageSource`] leases against the round base and the state pool.
#[derive(Clone, Copy, Debug)]
enum OverrideSlot<'a, S> {
    /// Adversary-materialised states, owned by the scratch buffer.
    Owned(&'a [(NodeId, S)]),
    /// Borrowed states, no clone required.
    Borrowed(&'a [(NodeId, &'a S)]),
    /// [`MessageSource`] leases, resolved against the base vector and the
    /// pinned/fabricated halves of the adversary state pool.
    Sourced {
        /// States pinned for the whole execution ([`MessageSource::Pinned`]).
        pinned: &'a [S],
        /// States fabricated this round ([`MessageSource::Fabricated`]).
        fabricated: &'a [S],
        /// The per-receiver `(faulty sender, lease)` vector, sorted by
        /// sender.
        sources: &'a [(NodeId, MessageSource)],
        /// Bit `v mod 64` is set for every overridden sender `v`: a clear
        /// bit answers "not overridden" without looking at `sources`
        /// (exactly so for `n ≤ 64`, conservatively beyond).
        filter: u64,
    },
}

/// A borrowed, receiver-independent vector of one round's broadcast states:
/// the base layer of a [`MessageView`], and what
/// [`PreparedProtocol::prepare_round`] receives.
///
/// The engine's contiguous state buffer, borrowed: building a view over it
/// never clones or reallocates states.
///
/// [`PreparedProtocol::prepare_round`]: crate::PreparedProtocol::prepare_round
#[derive(Clone, Copy, Debug)]
pub enum Broadcast<'a, S> {
    /// Contiguous states (the engine's round buffer).
    States(&'a [S]),
}

impl<'a, S> Broadcast<'a, S> {
    /// The state broadcast by node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the network.
    pub fn get(&self, index: usize) -> &'a S {
        let Broadcast::States(s) = self;
        &s[index]
    }

    /// Number of states in the broadcast vector (the network size `n`).
    pub fn len(&self) -> usize {
        let Broadcast::States(s) = self;
        s.len()
    }

    /// Whether the vector is empty (only for degenerate zero-node
    /// networks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a, S> From<Broadcast<'a, S>> for MessageView<'a, S> {
    /// The view every receiver shares when nobody lies: `base` itself, no
    /// overrides.
    fn from(base: Broadcast<'a, S>) -> Self {
        MessageView {
            base,
            overrides: OverrideSlot::Owned(&[]),
        }
    }
}

/// The vector of states received by one node in one synchronous round.
///
/// In the model of §2, every node broadcasts its state and receives a vector
/// `x ∈ Xⁿ`. Correct nodes broadcast the *same* state to everyone, while
/// Byzantine nodes may send a different state to every receiver. A
/// `MessageView` therefore consists of
///
/// * a *base* — the honest broadcast vector (entries of faulty senders are
///   placeholders), shared by all receivers in a round, and
/// * *overrides* — the receiver-specific states chosen by the adversary for
///   the faulty senders.
///
/// This layering avoids cloning the `n` honest states once per receiver
/// (`O(n²)` clones per round) while still modelling full per-receiver
/// equivocation. Both layers are zero-copy: the base borrows a contiguous
/// slice ([`MessageView::new`]), and the override slot may borrow states the
/// caller already owns ([`MessageView::with_borrowed`]).
///
/// # Example
///
/// ```
/// use sc_protocol::{MessageView, NodeId};
///
/// let base = vec![10u64, 20, 30];
/// let overrides = vec![(NodeId::new(1), 99u64)]; // node 1 lies to us
/// let view = MessageView::new(&base, &overrides);
/// assert_eq!(*view.get(NodeId::new(0)), 10);
/// assert_eq!(*view.get(NodeId::new(1)), 99);
/// assert_eq!(view.iter().copied().collect::<Vec<_>>(), vec![10, 99, 30]);
///
/// // Zero-copy: the same view with a borrowed override, without cloning a
/// // single state.
/// let lie = 99u64;
/// let borrowed = [(NodeId::new(1), &lie)];
/// let view = MessageView::with_borrowed(&base, &borrowed);
/// assert_eq!(*view.get(NodeId::new(1)), 99);
/// ```
#[derive(Debug)]
pub struct MessageView<'a, S> {
    base: Broadcast<'a, S>,
    overrides: OverrideSlot<'a, S>,
}

impl<'a, S> MessageView<'a, S> {
    /// Creates a view over the honest broadcast `base` with receiver-specific
    /// owned `overrides` for faulty senders.
    ///
    /// Each override index must be in range; duplicate overrides resolve to
    /// the first entry.
    pub fn new(base: &'a [S], overrides: &'a [(NodeId, S)]) -> Self {
        debug_assert!(
            overrides.iter().all(|(id, _)| id.index() < base.len()),
            "override for node outside the network"
        );
        MessageView {
            base: Broadcast::States(base),
            overrides: OverrideSlot::Owned(overrides),
        }
    }

    /// Creates a view whose override slot *borrows* the faulty senders'
    /// states instead of owning clones.
    ///
    /// Use when the overriding states already live somewhere stable for the
    /// duration of the view — e.g. an adversary replaying states it already
    /// maintains.
    pub fn with_borrowed(base: &'a [S], overrides: &'a [(NodeId, &'a S)]) -> Self {
        debug_assert!(
            overrides.iter().all(|(id, _)| id.index() < base.len()),
            "override for node outside the network"
        );
        MessageView {
            base: Broadcast::States(base),
            overrides: OverrideSlot::Borrowed(overrides),
        }
    }

    /// Creates a view whose override slot holds [`MessageSource`] leases:
    /// each faulty sender's entry names either a state of the broadcast
    /// `base` itself or a slot of the adversary state pool (split into its
    /// execution-`pinned` and per-round `fabricated` halves).
    ///
    /// This is the hot-path constructor of the borrow-based message plane —
    /// the lease vector is plain `Copy` data living in reusable engine
    /// scratch, so building a receiver's view allocates and clones nothing.
    /// `sources` must be sorted by sender and duplicate-free (engines fill
    /// it in fault-set order, which is): [`get`](MessageView::get) finds an
    /// overridden sender by binary search and answers for every other
    /// sender from a 64-bit filter without searching at all.
    pub fn from_sources(
        base: &'a [S],
        pinned: &'a [S],
        fabricated: &'a [S],
        sources: &'a [(NodeId, MessageSource)],
    ) -> Self {
        debug_assert!(
            sources.iter().all(|(id, _)| id.index() < base.len()),
            "override for node outside the network"
        );
        debug_assert!(
            sources.windows(2).all(|w| w[0].0 < w[1].0),
            "lease vector must be sorted by sender and duplicate-free"
        );
        let filter = sources
            .iter()
            .fold(0u64, |bits, (id, _)| bits | 1 << (id.index() % 64));
        MessageView {
            base: Broadcast::States(base),
            overrides: OverrideSlot::Sourced {
                pinned,
                fabricated,
                sources,
                filter,
            },
        }
    }

    /// Number of states in the received vector (the network size `n`).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the vector is empty (only for degenerate zero-node networks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The state received from `sender` this round.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the network.
    pub fn get(&self, sender: NodeId) -> &'a S {
        match self.overrides {
            OverrideSlot::Owned(overrides) => {
                for (id, state) in overrides {
                    if *id == sender {
                        return state;
                    }
                }
            }
            OverrideSlot::Borrowed(overrides) => {
                for (id, state) in overrides {
                    if *id == sender {
                        return state;
                    }
                }
            }
            OverrideSlot::Sourced {
                pinned,
                fabricated,
                sources,
                filter,
            } => {
                if filter >> (sender.index() % 64) & 1 == 1 {
                    if let Ok(at) = sources.binary_search_by_key(&sender, |&(id, _)| id) {
                        return match sources[at].1 {
                            MessageSource::Broadcast(donor) => self.base.get(donor.index()),
                            MessageSource::Pinned(slot) => &pinned[slot as usize],
                            MessageSource::Fabricated(slot) => &fabricated[slot as usize],
                        };
                    }
                }
            }
        }
        self.base.get(sender.index())
    }

    /// Iterates over the received states in sender-id order.
    pub fn iter(&self) -> Iter<'a, '_, S> {
        Iter {
            view: self,
            next: 0,
        }
    }
}

/// Iterator over the states of a [`MessageView`] in sender-id order.
#[derive(Debug)]
pub struct Iter<'a, 'v, S> {
    view: &'v MessageView<'a, S>,
    next: usize,
}

impl<'a, 'v, S> Iterator for Iter<'a, 'v, S> {
    type Item = &'a S;

    fn next(&mut self) -> Option<&'a S> {
        if self.next >= self.view.len() {
            return None;
        }
        let item = self.view.get(NodeId::new(self.next));
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.view.len() - self.next;
        (rest, Some(rest))
    }
}

impl<'a, 'v, S> ExactSizeIterator for Iter<'a, 'v, S> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_overrides_view_mirrors_base() {
        let base = vec![1u32, 2, 3, 4];
        let view = MessageView::new(&base, &[]);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        for (i, v) in base.iter().enumerate() {
            assert_eq!(view.get(NodeId::new(i)), v);
        }
    }

    #[test]
    fn overrides_shadow_base_entries() {
        let base = vec![0u32; 3];
        let overrides = vec![(NodeId::new(2), 7u32), (NodeId::new(0), 9)];
        let view = MessageView::new(&base, &overrides);
        assert_eq!(*view.get(NodeId::new(0)), 9);
        assert_eq!(*view.get(NodeId::new(1)), 0);
        assert_eq!(*view.get(NodeId::new(2)), 7);
    }

    #[test]
    fn duplicate_overrides_take_first() {
        let base = vec![0u32; 2];
        let overrides = vec![(NodeId::new(1), 5u32), (NodeId::new(1), 6)];
        let view = MessageView::new(&base, &overrides);
        assert_eq!(*view.get(NodeId::new(1)), 5);
    }

    #[test]
    fn iterator_is_exact_size_and_ordered() {
        let base = vec![10u32, 20, 30];
        let overrides = vec![(NodeId::new(1), 21u32)];
        let view = MessageView::new(&base, &overrides);
        let it = view.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.copied().collect::<Vec<_>>(), vec![10, 21, 30]);
    }

    #[test]
    fn empty_view() {
        let base: Vec<u32> = Vec::new();
        let view = MessageView::new(&base, &[]);
        assert!(view.is_empty());
        assert_eq!(view.iter().count(), 0);
    }

    #[test]
    fn borrowed_overrides_shadow_without_cloning() {
        let base = vec![0u32; 3];
        let lie_a = 7u32;
        let lie_b = 9u32;
        let overrides = [(NodeId::new(2), &lie_a), (NodeId::new(0), &lie_b)];
        let view = MessageView::with_borrowed(&base, &overrides);
        assert_eq!(*view.get(NodeId::new(0)), 9);
        assert_eq!(*view.get(NodeId::new(1)), 0);
        assert_eq!(*view.get(NodeId::new(2)), 7);
        assert_eq!(view.iter().copied().collect::<Vec<_>>(), vec![9, 0, 7]);
    }

    #[test]
    fn sourced_overrides_resolve_all_three_lease_kinds() {
        let base = vec![10u32, 20, 30, 40];
        let pinned = vec![77u32];
        let fabricated = vec![88u32, 99];
        let sources = [
            (NodeId::new(0), MessageSource::Broadcast(NodeId::new(2))),
            (NodeId::new(1), MessageSource::Pinned(0)),
            (NodeId::new(3), MessageSource::Fabricated(1)),
        ];
        let view = MessageView::from_sources(&base, &pinned, &fabricated, &sources);
        assert_eq!(*view.get(NodeId::new(0)), 30); // echoes node 2's broadcast
        assert_eq!(*view.get(NodeId::new(1)), 77); // pinned slot 0
        assert_eq!(*view.get(NodeId::new(2)), 30); // honest, from base
        assert_eq!(*view.get(NodeId::new(3)), 99); // round slot 1
        assert_eq!(
            view.iter().copied().collect::<Vec<_>>(),
            vec![30, 77, 30, 99]
        );
    }

    #[test]
    fn sourced_lookup_skips_the_search_for_honest_senders_beyond_64_nodes() {
        // 130 nodes: senders 3 and 67 share a filter bit, 128 sits past two
        // filter laps; every sender must still resolve exactly.
        let base: Vec<u32> = (0..130).collect();
        let fabricated = vec![1000u32, 1001];
        let sources = [
            (NodeId::new(3), MessageSource::Fabricated(0)),
            (NodeId::new(128), MessageSource::Fabricated(1)),
        ];
        let view = MessageView::from_sources(&base, &[], &fabricated, &sources);
        for v in 0..130u32 {
            let expected = match v {
                3 => 1000,
                128 => 1001,
                honest => honest,
            };
            assert_eq!(*view.get(NodeId::new(v as usize)), expected, "sender {v}");
        }
    }

    #[test]
    fn a_broadcast_is_a_view_without_overrides() {
        let base = vec![4u32, 5, 6];
        let view = MessageView::from(Broadcast::States(&base));
        assert_eq!(view.iter().copied().collect::<Vec<_>>(), base);
    }

    #[test]
    fn get_outlives_the_view_value() {
        // `get` returns references with the *underlying* lifetime, so a
        // projection can be built from a temporary view.
        let base = vec![1u32, 2];
        let first = {
            let view = MessageView::new(&base, &[]);
            view.get(NodeId::new(0))
        };
        assert_eq!(*first, 1);
    }
}
