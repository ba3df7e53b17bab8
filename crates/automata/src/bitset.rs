//! A fixed-capacity bitset over `u64` blocks.
//!
//! Hand-rolled (rather than pulling `fixedbitset`) to stay within the
//! session's dependency budget; the operations below are exactly the ones
//! the determinized product searches need: bulk union/intersection, subset
//! tests for antichain pruning, and hashing so reach-sets can key memo
//! tables.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Fixed-capacity set of `usize` indices backed by `u64` blocks.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

const BITS: usize = 64;

impl BitSet {
    /// Bits per storage block (the granularity of [`BitSet::as_blocks`]
    /// and of the word-aligned ranged step kernels in `pathlearn-graph`).
    pub const BLOCK_BITS: usize = BITS;

    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = Self::new(capacity);
        for block in &mut set.blocks {
            *block = u64::MAX;
        }
        set.mask_tail();
        set
    }

    /// Creates a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut set = Self::new(capacity);
        for i in indices {
            set.insert(i);
        }
        set
    }

    /// Reconstructs a set from raw storage blocks (the inverse of
    /// [`BitSet::as_blocks`], used by the binary snapshot codec).
    /// Returns `None` if the block count does not match the capacity or
    /// any bit at or beyond `capacity` is set — a decoded set must obey
    /// the tail-masking invariant the kernels rely on, so malformed
    /// input is rejected rather than silently masked.
    pub fn from_blocks(capacity: usize, blocks: &[u64]) -> Option<Self> {
        if blocks.len() != capacity.div_ceil(BITS) {
            return None;
        }
        let used = capacity % BITS;
        if used != 0 {
            if let Some(&last) = blocks.last() {
                if last & !((1u64 << used) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(BitSet {
            blocks: blocks.to_vec(),
            capacity,
        })
    }

    fn mask_tail(&mut self) {
        let used = self.capacity % BITS;
        if used != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }

    /// Number of indices this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an index; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        debug_assert!(index < self.capacity, "index {index} out of capacity");
        let mask = 1u64 << (index % BITS);
        let block = &mut self.blocks[index / BITS];
        let fresh = *block & mask == 0;
        *block |= mask;
        fresh
    }

    /// Removes an index; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        debug_assert!(index < self.capacity);
        let mask = 1u64 << (index % BITS);
        let block = &mut self.blocks[index / BITS];
        let present = *block & mask != 0;
        *block &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        debug_assert!(index < self.capacity);
        self.blocks[index / BITS] & (1u64 << (index % BITS)) != 0
    }

    /// Removes all indices.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Inserts every index in `0..capacity` (the in-place analogue of
    /// [`BitSet::full`], for reusable scratch buffers).
    pub fn insert_all(&mut self) {
        self.blocks.fill(u64::MAX);
        self.mask_tail();
    }

    /// `true` iff no index is present.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of indices present.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// In-place union: `self ∪= other`.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place union that records which indices were new: every index of
    /// `other` absent from `self` is inserted into both `self` and
    /// `newly` (`newly` is OR-accumulated, not cleared). Returns how many
    /// indices were new (0 ⇔ nothing new). One pass of word-level
    /// operations; this is the frontier-merge kernel of the
    /// level-synchronous BFS in `pathlearn-graph`. The popcount rides the
    /// same pass over the blocks, so the step-kernel cost model, which
    /// amortizes one popcount per `(level, state)`, gets the next
    /// frontier's size without a separate `len()` scan.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn union_with_recording_new_count(&mut self, other: &BitSet, newly: &mut BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert_eq!(self.capacity, newly.capacity, "capacity mismatch");
        let mut count = 0usize;
        for ((a, &b), n) in self
            .blocks
            .iter_mut()
            .zip(&other.blocks)
            .zip(&mut newly.blocks)
        {
            let fresh = b & !*a;
            *a |= fresh;
            *n |= fresh;
            count += fresh.count_ones() as usize;
        }
        count
    }

    /// [`BitSet::union_with_recording_new_count`] of `other ∩ mask`, in
    /// the same one pass: the merge kernel of a search whose steps are
    /// pruned by a per-target-state set.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn union_masked_recording_new_count(
        &mut self,
        other: &BitSet,
        mask: &BitSet,
        newly: &mut BitSet,
    ) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert_eq!(self.capacity, mask.capacity, "capacity mismatch");
        assert_eq!(self.capacity, newly.capacity, "capacity mismatch");
        let mut count = 0usize;
        for (((a, &b), &m), n) in self
            .blocks
            .iter_mut()
            .zip(&other.blocks)
            .zip(&mask.blocks)
            .zip(&mut newly.blocks)
        {
            let fresh = b & m & !*a;
            *a |= fresh;
            *n |= fresh;
            count += fresh.count_ones() as usize;
        }
        count
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the sets share at least one index.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// `|self ∩ other|` in one fused pass (AND + popcount per block),
    /// without materializing the intersection. This is the measurement
    /// behind the step-kernel cost model in `pathlearn-graph`: against a
    /// label's active set it tells the planner whether a step misses the
    /// label (empty), holds all of it (covered), or must be walked.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The raw `u64` storage blocks, least-significant block first; index
    /// `i` lives at bit `i % 64` of block `i / 64`. Bits at and above
    /// `capacity` in the last block are always zero (every mutator masks
    /// the tail), so word-level consumers — `pathlearn-graph` ranks a
    /// label's active nodes word by word — can AND or popcount blocks of
    /// equal-capacity sets without re-masking.
    #[inline]
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Iterates over present indices in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block_index: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Smallest present index, if any. (Named `first` to avoid clashing
    /// with `Ord::min` in method resolution.)
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl Default for BitSet {
    /// The empty set with capacity `0` (resized on first real use; lets
    /// scratch structs derive `Default`).
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Capacity is fixed per use site; hashing blocks suffices.
        self.blocks.hash(state);
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the indices present in a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    block_index: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_index * BITS + bit);
            }
            self.block_index += 1;
            if self.block_index >= self.set.blocks.len() {
                return None;
            }
            self.current = self.set.blocks[self.block_index];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized by the maximum index (capacity =
    /// max+1). Prefer [`BitSet::from_indices`] when the capacity is known.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let capacity = indices.iter().copied().max().map_or(0, |m| m + 1);
        BitSet::from_indices(capacity, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut set = BitSet::new(130);
        assert!(set.insert(0));
        assert!(set.insert(64));
        assert!(set.insert(129));
        assert!(!set.insert(64));
        assert!(set.contains(0) && set.contains(64) && set.contains(129));
        assert!(!set.contains(1));
        assert_eq!(set.len(), 3);
        assert!(set.remove(64));
        assert!(!set.remove(64));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let set = BitSet::full(67);
        assert_eq!(set.len(), 67);
        assert!(set.contains(66));
        let empty = BitSet::full(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn insert_all_matches_full() {
        for capacity in [0usize, 1, 63, 64, 65, 130] {
            let mut set = BitSet::from_indices(capacity, (0..capacity).filter(|i| i % 3 == 0));
            set.insert_all();
            assert_eq!(set, BitSet::full(capacity), "capacity {capacity}");
        }
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, [1, 3, 5]);
        let b = BitSet::from_indices(10, [3, 5, 7]);
        let mut union = a.clone();
        union.union_with(&b);
        assert_eq!(union.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7]);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.iter().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn union_with_recording_new_tracks_fresh_indices() {
        let mut reached = BitSet::from_indices(130, [1, 64]);
        let incoming = BitSet::from_indices(130, [1, 64, 65, 129]);
        let mut newly = BitSet::from_indices(130, [3]); // pre-existing bit kept
        assert_eq!(
            reached.union_with_recording_new_count(&incoming, &mut newly),
            2
        );
        assert_eq!(reached.iter().collect::<Vec<_>>(), vec![1, 64, 65, 129]);
        assert_eq!(newly.iter().collect::<Vec<_>>(), vec![3, 65, 129]);
        // A second merge of the same set adds nothing.
        let mut newly2 = BitSet::new(130);
        assert_eq!(
            reached.union_with_recording_new_count(&incoming, &mut newly2),
            0
        );
        assert!(newly2.is_empty());
    }

    #[test]
    fn union_with_recording_new_count_matches_fresh_popcount() {
        let mut reached = BitSet::from_indices(200, [0, 64, 128]);
        let incoming = BitSet::from_indices(200, [0, 1, 64, 65, 129, 199]);
        let mut newly = BitSet::new(200);
        let fresh = reached.union_with_recording_new_count(&incoming, &mut newly);
        assert_eq!(fresh, 4); // 1, 65, 129, 199
        assert_eq!(newly.len(), 4);
        assert_eq!(
            reached.union_with_recording_new_count(&incoming, &mut newly),
            0
        );
        // Masked: only the fresh indices inside the mask join.
        let mut reached = BitSet::from_indices(200, [0, 64, 128]);
        let mask = BitSet::from_indices(200, [0, 1, 129, 150]);
        let mut newly = BitSet::new(200);
        let fresh = reached.union_masked_recording_new_count(&incoming, &mask, &mut newly);
        assert_eq!(fresh, 2); // 1, 129
        assert_eq!(newly, BitSet::from_indices(200, [1, 129]));
        assert_eq!(reached, BitSet::from_indices(200, [0, 1, 64, 128, 129]));
    }

    #[test]
    fn subset_and_intersects() {
        let small = BitSet::from_indices(100, [2, 70]);
        let big = BitSet::from_indices(100, [2, 3, 70]);
        let other = BitSet::from_indices(100, [4]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(small.is_subset(&small));
        assert!(small.intersects(&big));
        assert!(!small.intersects(&other));
        assert!(BitSet::new(100).is_subset(&other));
    }

    #[test]
    fn intersection_len_matches_materialized_intersection() {
        for capacity in [0usize, 1, 63, 64, 65, 130, 200] {
            let a = BitSet::from_indices(capacity, (0..capacity).filter(|i| i % 3 == 0));
            let b = BitSet::from_indices(capacity, (0..capacity).filter(|i| i % 2 == 0));
            let mut inter = a.clone();
            inter.intersect_with(&b);
            assert_eq!(a.intersection_len(&b), inter.len(), "capacity {capacity}");
            assert_eq!(b.intersection_len(&a), inter.len(), "capacity {capacity}");
            assert_eq!(a.intersection_len(&a), a.len(), "capacity {capacity}");
        }
    }

    #[test]
    fn blocks_expose_layout_with_masked_tail() {
        let set = BitSet::from_indices(130, [0, 63, 64, 129]);
        let blocks = set.as_blocks();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], 1 | (1 << 63));
        assert_eq!(blocks[1], 1);
        assert_eq!(blocks[2], 2);
        // Tail bits above capacity stay zero even after insert_all.
        let mut full = BitSet::new(130);
        full.insert_all();
        assert_eq!(full.as_blocks()[2], 3);
        assert_eq!(BitSet::BLOCK_BITS, 64);
    }

    #[test]
    fn iter_matches_btreeset_model() {
        let indices = [0usize, 1, 63, 64, 65, 127, 128, 199];
        let set = BitSet::from_indices(200, indices);
        let model: BTreeSet<usize> = indices.into_iter().collect();
        assert_eq!(set.iter().collect::<BTreeSet<_>>(), model);
        assert_eq!(set.first(), Some(0));
        assert_eq!(BitSet::new(8).first(), None);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        use std::collections::HashSet;
        let a = BitSet::from_indices(100, [5, 50]);
        let mut b = BitSet::new(100);
        b.insert(50);
        b.insert(5);
        assert_eq!(a, b);
        let mut seen = HashSet::new();
        seen.insert(a);
        assert!(seen.contains(&b));
    }
}
