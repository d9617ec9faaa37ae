//! Scheduled-instance bookkeeping shared by the query modules.

use core::fmt;
use rmd_machine::OpId;

/// Identifies one scheduled *instance* of an operation within a partial
/// schedule. Instance ids are chosen by the scheduler (e.g. the index of
/// the operation in the dependence graph) and must be unique among
/// currently scheduled instances.
///
/// The query modules keep one registry slot per id up to the largest
/// id scheduled, so ids should be dense: every in-tree caller numbers
/// instances `0, 1, 2, …`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpInstance(pub u32);

impl OpInstance {
    /// Returns the id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for OpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

impl fmt::Display for OpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// Tracks which instances are currently scheduled, with their operation
/// and issue cycle. The bitvector modules' optimistic→update transition
/// scans this list to reconstruct owner fields.
///
/// A slab indexed by [`OpInstance`]: insert and remove are one array
/// access, with no hashing. Its length follows the largest id inserted
/// since the last [`clear`](Self::clear), so memory grows with the
/// largest live id, not the number of live ids; a lookup beyond the
/// end finds nothing and never grows the slab. [`iter`](Self::iter)
/// walks ids in ascending order, so anything rebuilt from it is
/// deterministic.
#[derive(Clone, Debug, Default)]
pub(crate) struct Registry {
    slots: Vec<Option<(OpId, u32)>>,
    live: usize,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let i = inst.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let prev = self.slots[i].replace((op, cycle));
        debug_assert!(prev.is_none(), "instance {inst} scheduled twice");
        if prev.is_none() {
            self.live += 1;
        }
    }

    pub fn remove(&mut self, inst: OpInstance) -> Option<(OpId, u32)> {
        let removed = self.slots.get_mut(inst.index())?.take();
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn iter(&self) -> impl Iterator<Item = (OpInstance, OpId, u32)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(op, c)| (OpInstance(i as u32), op, c)))
    }

    /// Forgets every instance, keeping the slab's capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip() {
        let mut r = Registry::new();
        r.insert(OpInstance(3), OpId(1), 7);
        assert_eq!(r.len(), 1);
        assert_eq!(r.remove(OpInstance(3)), Some((OpId(1), 7)));
        assert_eq!(r.remove(OpInstance(3)), None);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn sparse_high_id_is_found_alone() {
        let mut r = Registry::new();
        r.insert(OpInstance(1000), OpId(2), 9);
        assert_eq!(r.len(), 1);
        assert_eq!(r.slots.len(), 1001);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![(OpInstance(1000), OpId(2), 9)]
        );
        assert_eq!(r.remove(OpInstance(999)), None);
        assert_eq!(r.remove(OpInstance(1000)), Some((OpId(2), 9)));
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn removing_an_unknown_id_does_not_grow_the_slab() {
        let mut r = Registry::new();
        r.insert(OpInstance(2), OpId(0), 1);
        assert_eq!(r.remove(OpInstance(500)), None);
        assert_eq!(r.remove(OpInstance(u32::MAX)), None);
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn iter_walks_ids_in_ascending_order() {
        let mut r = Registry::new();
        for (i, c) in [(5u32, 50u32), (0, 0), (3, 30), (9, 90), (1, 10)] {
            r.insert(OpInstance(i), OpId(i), c);
        }
        r.remove(OpInstance(3));
        let ids: Vec<u32> = r.iter().map(|(i, _, _)| i.0).collect();
        assert_eq!(ids, vec![0, 1, 5, 9]);
        assert!(r.iter().all(|(i, op, c)| op == OpId(i.0) && c == 10 * i.0));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn clear_forgets_everything_and_keeps_capacity() {
        let mut r = Registry::new();
        for i in 0..64 {
            r.insert(OpInstance(i), OpId(0), i);
        }
        let cap = r.slots.capacity();
        r.clear();
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
        assert_eq!(r.remove(OpInstance(7)), None);
        r.insert(OpInstance(7), OpId(1), 3);
        r.insert(OpInstance(2), OpId(1), 4);
        assert_eq!(r.slots.capacity(), cap);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![(OpInstance(2), OpId(1), 4), (OpInstance(7), OpId(1), 3)]
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn instance_display() {
        assert_eq!(OpInstance(4).to_string(), "inst4");
        assert_eq!(format!("{:?}", OpInstance(4)), "inst4");
    }
}
