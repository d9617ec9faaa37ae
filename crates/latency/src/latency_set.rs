//! Sets of (possibly negative) latencies.

use crate::bitset::BitSet;
use core::fmt;

/// A set of signed latencies, such as one cell `F[X][Y]` of the forbidden
/// latency matrix.
///
/// Backed by two bitsets (negative and nonnegative halves), so membership
/// tests during compatibility checking — the hot loop of Algorithm 1 — are
/// O(1).
///
/// # Example
///
/// ```
/// use rmd_latency::LatencySet;
///
/// let mut s = LatencySet::new();
/// s.insert(-2);
/// s.insert(0);
/// s.insert(3);
/// assert!(s.contains(-2));
/// assert!(!s.contains(2));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![-2, 0, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LatencySet {
    /// Bit `i` set ⇔ latency `-(i+1)` present.
    neg: BitSet,
    /// Bit `i` set ⇔ latency `i` present.
    nonneg: BitSet,
}

impl LatencySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `f`; returns `true` if newly inserted.
    pub fn insert(&mut self, f: i32) -> bool {
        if f < 0 {
            self.neg.insert((-(i64::from(f)) - 1) as usize)
        } else {
            self.nonneg.insert(f as usize)
        }
    }

    /// Tests membership of `f`.
    #[inline]
    pub fn contains(&self, f: i32) -> bool {
        if f < 0 {
            self.neg.contains((-(i64::from(f)) - 1) as usize)
        } else {
            self.nonneg.contains(f as usize)
        }
    }

    /// Number of latencies in the set.
    pub fn len(&self) -> usize {
        self.neg.len() + self.nonneg.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.neg.is_empty() && self.nonneg.is_empty()
    }

    /// Number of *nonnegative* latencies — the count the paper reports
    /// (negative latencies are redundant mirrors).
    pub fn len_nonneg(&self) -> usize {
        self.nonneg.len()
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &LatencySet) {
        self.neg.union_with(&other.neg);
        self.nonneg.union_with(&other.nonneg);
    }

    /// Whether every latency in `self` is in `other`.
    pub fn is_subset(&self, other: &LatencySet) -> bool {
        self.neg.is_subset(&other.neg) && self.nonneg.is_subset(&other.nonneg)
    }

    /// Iterates over latencies in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = i32> + '_ {
        // Negative half descends as bit index ascends, so collect/reverse.
        let mut negs: Vec<i32> = self.neg.iter().map(|i| -(i as i32) - 1).collect();
        negs.reverse();
        negs.into_iter().chain(self.nonneg.iter().map(|i| i as i32))
    }

    /// Iterates over the nonnegative latencies in ascending order.
    pub fn iter_nonneg(&self) -> impl Iterator<Item = i32> + '_ {
        self.nonneg.iter().map(|i| i as i32)
    }

    /// The largest latency, if any.
    pub fn max(&self) -> Option<i32> {
        self.iter().last()
    }
}

impl FromIterator<i32> for LatencySet {
    fn from_iter<I: IntoIterator<Item = i32>>(iter: I) -> Self {
        let mut s = LatencySet::new();
        for f in iter {
            s.insert(f);
        }
        s
    }
}

impl fmt::Debug for LatencySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for LatencySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_both_signs() {
        let mut s = LatencySet::new();
        assert!(s.insert(0));
        assert!(s.insert(-1));
        assert!(!s.insert(-1));
        assert!(s.contains(0));
        assert!(s.contains(-1));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_is_ascending() {
        let s: LatencySet = [3, -5, 0, -1, 7].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![-5, -1, 0, 3, 7]);
        assert_eq!(s.iter_nonneg().collect::<Vec<_>>(), vec![0, 3, 7]);
        assert_eq!(s.max(), Some(7));
    }

    #[test]
    fn subset_and_union() {
        let a: LatencySet = [-1, 2].into_iter().collect();
        let b: LatencySet = [-1, 0, 2, 3].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, b);
    }

    #[test]
    fn len_nonneg_excludes_mirrors() {
        let s: LatencySet = [-3, -1, 0, 1, 3].into_iter().collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.len_nonneg(), 3);
    }

    #[test]
    fn display_is_compact() {
        let s: LatencySet = [-1, 0, 2].into_iter().collect();
        assert_eq!(s.to_string(), "{-1,0,2}");
        assert_eq!(LatencySet::new().to_string(), "{}");
    }
}
