//! Reservation tables: per-operation resource usage patterns.

use crate::ids::ResourceId;
use core::fmt;

/// A single reservation-table entry: `resource` is reserved for exclusive
/// use in `cycle` (relative to the issue cycle of the operation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Usage {
    /// The resource being reserved.
    pub resource: ResourceId,
    /// The cycle, relative to issue, in which the resource is reserved.
    pub cycle: u32,
}

impl Usage {
    /// Creates a usage of `resource` in `cycle`.
    #[inline]
    pub fn new(resource: ResourceId, cycle: u32) -> Self {
        Usage { resource, cycle }
    }
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.resource, self.cycle)
    }
}

/// The reservation table of one operation.
///
/// A reservation table records, for each cycle relative to the operation's
/// issue time, which resources the operation reserves for exclusive use.
/// Internally it is a sorted, deduplicated list of [`Usage`]s, which keeps
/// pairwise latency extraction (paper §3, step 1) a simple linear scan.
///
/// # Example
///
/// ```
/// use rmd_machine::{ReservationTable, ResourceId, Usage};
///
/// let mut t = ReservationTable::new();
/// t.reserve(ResourceId(3), 2);
/// t.reserve(ResourceId(0), 0);
/// t.reserve(ResourceId(3), 2); // duplicates collapse
/// assert_eq!(t.num_usages(), 2);
/// assert_eq!(t.length(), 3); // occupies cycles 0..=2
/// assert!(t.uses(ResourceId(3), 2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ReservationTable {
    usages: Vec<Usage>,
}

impl ReservationTable {
    /// Creates an empty reservation table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from an iterator of `(resource, cycle)` pairs.
    pub fn from_usages<I>(usages: I) -> Self
    where
        I: IntoIterator<Item = (ResourceId, u32)>,
    {
        let mut t = Self::new();
        for (r, c) in usages {
            t.reserve(r, c);
        }
        t
    }

    /// Records that `resource` is reserved in `cycle`.
    ///
    /// Duplicate reservations are ignored, matching the paper's model in
    /// which an entry either is or is not present.
    pub fn reserve(&mut self, resource: ResourceId, cycle: u32) {
        let u = Usage::new(resource, cycle);
        match self.usages.binary_search(&u) {
            Ok(_) => {}
            Err(pos) => self.usages.insert(pos, u),
        }
    }

    /// Returns `true` if `resource` is reserved in `cycle`.
    pub fn uses(&self, resource: ResourceId, cycle: u32) -> bool {
        self.usages
            .binary_search(&Usage::new(resource, cycle))
            .is_ok()
    }

    /// The usages, sorted by `(resource, cycle)`.
    pub fn usages(&self) -> &[Usage] {
        &self.usages
    }

    /// Number of usages (reserved entries) in the table.
    pub fn num_usages(&self) -> usize {
        self.usages.len()
    }

    /// Returns `true` if the operation reserves no resource at all.
    pub fn is_empty(&self) -> bool {
        self.usages.is_empty()
    }

    /// The number of columns the table occupies: one past the last reserved
    /// cycle, or zero for an empty table.
    pub fn length(&self) -> u32 {
        self.usages.iter().map(|u| u.cycle + 1).max().unwrap_or(0)
    }

    /// The *usage set* of `resource`: the sorted cycles in which this
    /// operation reserves it (paper §3: the set `X_i`).
    pub fn usage_set(&self, resource: ResourceId) -> Vec<u32> {
        self.usages
            .iter()
            .filter(|u| u.resource == resource)
            .map(|u| u.cycle)
            .collect()
    }

    /// Iterates over the distinct resources this table touches, in id order.
    pub fn resources(&self) -> impl Iterator<Item = ResourceId> + '_ {
        let mut last = None;
        self.usages.iter().filter_map(move |u| {
            if last == Some(u.resource) {
                None
            } else {
                last = Some(u.resource);
                Some(u.resource)
            }
        })
    }

    /// Returns a copy of this table with every usage shifted `delta` cycles
    /// later.
    pub fn shifted(&self, delta: u32) -> ReservationTable {
        ReservationTable {
            usages: self
                .usages
                .iter()
                .map(|u| Usage::new(u.resource, u.cycle + delta))
                .collect(),
        }
    }

    /// Returns the time-reversed table: usage at cycle `c` maps to
    /// `length() - 1 - c`. Used to build reverse automata.
    pub fn reversed(&self) -> ReservationTable {
        let len = self.length();
        let mut t = ReservationTable::new();
        for u in &self.usages {
            t.reserve(u.resource, len - 1 - u.cycle);
        }
        t
    }

    /// Whether the operation can issue every `ii` cycles without
    /// colliding with its own next iterations: no two usages of one
    /// resource fall in the same slot modulo `ii`. This is the one
    /// modulo-fit rule of ResMII and of the modulo reservation tables.
    ///
    /// Fit is not monotone in `ii`: usages at cycles 0 and 3 collide at
    /// II 1 and 3 but not at II 2. Every II above the widest distance
    /// between two usages of one resource fits.
    ///
    /// ```
    /// use rmd_machine::{ReservationTable, ResourceId};
    ///
    /// let t = ReservationTable::from_usages([(ResourceId(0), 0), (ResourceId(0), 3)]);
    /// let fits: Vec<bool> = (1..=4).map(|ii| t.fits_modulo(ii)).collect();
    /// assert_eq!(fits, [false, true, false, true]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn fits_modulo(&self, ii: u32) -> bool {
        // Usages are sorted by (resource, cycle), so each resource's
        // usages form one run and only pairs within a run are compared.
        !self.usages.iter().enumerate().any(|(i, a)| {
            self.usages[i + 1..]
                .iter()
                .take_while(|b| b.resource == a.resource)
                .any(|b| a.cycle % ii == b.cycle % ii)
        })
    }

    /// Returns `true` if issuing `other` exactly `latency` cycles after
    /// `self` creates a simultaneous use of some shared resource.
    ///
    /// Negative latencies mean `other` issues *before* `self`.
    pub fn collides_at(&self, other: &ReservationTable, latency: i64) -> bool {
        // Both lists are sorted by (resource, cycle); merge-scan.
        for u in &self.usages {
            let want = i64::from(u.cycle) - latency;
            if want < 0 {
                continue;
            }
            let Ok(want) = u32::try_from(want) else {
                continue;
            };
            if other.uses(u.resource, want) {
                return true;
            }
        }
        false
    }
}

impl FromIterator<(ResourceId, u32)> for ReservationTable {
    fn from_iter<I: IntoIterator<Item = (ResourceId, u32)>>(iter: I) -> Self {
        Self::from_usages(iter)
    }
}

impl Extend<(ResourceId, u32)> for ReservationTable {
    fn extend<I: IntoIterator<Item = (ResourceId, u32)>>(&mut self, iter: I) {
        for (r, c) in iter {
            self.reserve(r, c);
        }
    }
}

impl fmt::Display for ReservationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, u) in self.usages.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ResourceId {
        ResourceId(i)
    }

    #[test]
    fn reserve_marks_exactly_its_cell() {
        let mut t = ReservationTable::new();
        assert!(t.is_empty());
        t.reserve(r(1), 4);
        assert!(t.uses(r(1), 4));
        assert!(!t.uses(r(1), 3));
        assert!(!t.uses(r(0), 4));
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicates_collapse() {
        let t = ReservationTable::from_usages([(r(0), 0), (r(0), 0), (r(0), 1)]);
        assert_eq!(t.num_usages(), 2);
    }

    #[test]
    fn length_is_one_past_last_cycle() {
        let t = ReservationTable::from_usages([(r(0), 0), (r(4), 7)]);
        assert_eq!(t.length(), 8);
        assert_eq!(ReservationTable::new().length(), 0);
    }

    #[test]
    fn usage_set_extracts_cycles_of_one_resource() {
        let t = ReservationTable::from_usages([(r(3), 2), (r(3), 5), (r(3), 3), (r(4), 6)]);
        assert_eq!(t.usage_set(r(3)), vec![2, 3, 5]);
        assert_eq!(t.usage_set(r(9)), Vec::<u32>::new());
    }

    #[test]
    fn resources_are_deduped_in_order() {
        let t = ReservationTable::from_usages([(r(2), 0), (r(2), 1), (r(5), 0), (r(1), 3)]);
        let rs: Vec<_> = t.resources().collect();
        assert_eq!(rs, vec![r(1), r(2), r(5)]);
    }

    #[test]
    fn shifted_moves_all_usages() {
        let t = ReservationTable::from_usages([(r(0), 0), (r(1), 2)]);
        let s = t.shifted(3);
        assert!(s.uses(r(0), 3));
        assert!(s.uses(r(1), 5));
        assert_eq!(s.num_usages(), 2);
    }

    #[test]
    fn reversed_mirrors_cycles() {
        let t = ReservationTable::from_usages([(r(0), 0), (r(1), 2)]);
        let rev = t.reversed();
        assert!(rev.uses(r(0), 2));
        assert!(rev.uses(r(1), 0));
        assert_eq!(rev.reversed(), t);
    }

    #[test]
    fn collides_at_detects_shared_resource_overlap() {
        // A uses r0@0; B uses r0@1. B issued 1 cycle before A collides:
        // A@t uses r0 at t, B@(t-1) uses r0 at t. So collides_at(A, B, -1)?
        // collides_at(self=A, other=B, latency): other issues `latency`
        // cycles after self. A@0, B@latency: collision iff 0 = latency + 1,
        // i.e. latency = -1.
        let a = ReservationTable::from_usages([(r(0), 0)]);
        let b = ReservationTable::from_usages([(r(0), 1)]);
        assert!(a.collides_at(&b, -1));
        assert!(!a.collides_at(&b, 0));
        assert!(!a.collides_at(&b, 1));
        assert!(b.collides_at(&a, 1));
    }

    #[test]
    fn self_collision_at_zero() {
        let a = ReservationTable::from_usages([(r(0), 0)]);
        assert!(a.collides_at(&a, 0));
    }

    #[test]
    fn disjoint_resources_never_collide() {
        let a = ReservationTable::from_usages([(r(0), 0), (r(1), 1)]);
        let b = ReservationTable::from_usages([(r(2), 0), (r(3), 1)]);
        for lat in -4..=4 {
            assert!(!a.collides_at(&b, lat));
        }
    }

    #[test]
    fn display_is_compact() {
        let t = ReservationTable::from_usages([(r(0), 0), (r(1), 2)]);
        assert_eq!(t.to_string(), "{r0@0, r1@2}");
    }
}
