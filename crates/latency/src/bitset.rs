//! A growable bitset over `usize` indices, backed by `u64` blocks.

use core::fmt;

/// A dynamically sized bitset.
///
/// Used pervasively for latency sets, coverage tracking during resource
/// selection, and automaton state encodings.
///
/// # Example
///
/// ```
/// use rmd_latency::BitSet;
///
/// let mut s = BitSet::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Clone, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
}

// Equality, ordering and hashing ignore trailing zero blocks, so two sets
// with the same elements are equal regardless of how they were built.
impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.blocks.len().max(other.blocks.len());
        (0..n).all(|i| {
            self.blocks.get(i).copied().unwrap_or(0) == other.blocks.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for BitSet {}

impl core::hash::Hash for BitSet {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        let last = self
            .blocks
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        self.blocks[..last].hash(state);
    }
}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitset with room for indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let block = i / 64;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << (i % 64);
        let newly = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        newly
    }

    /// Removes `i`; returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let block = i / 64;
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << (i % 64);
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        was
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        self.blocks
            .get(i / 64)
            .is_some_and(|b| b & (1u64 << (i % 64)) != 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .enumerate()
            .all(|(i, &b)| b & !other.blocks.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the elements of a [`BitSet`], ascending.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * 64 + tz);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
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
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_blocks() {
        let mut s = BitSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(1000);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1000]);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3, 4].into_iter().collect();

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn subset_handles_length_mismatch() {
        let small: BitSet = [1].into_iter().collect();
        let big: BitSet = [1, 100].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }

    #[test]
    fn debug_formats_as_set() {
        let s: BitSet = [1, 9].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 9}");
    }

    #[test]
    fn equality_ignores_trailing_zero_blocks() {
        let mut a = BitSet::with_capacity(1000);
        a.insert(3);
        let b: BitSet = [3].into_iter().collect();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        a.hash(&mut ha);
        let mut hb = DefaultHasher::new();
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
