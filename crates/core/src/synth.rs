//! Synthesized resources: the currency of the reduction algorithms.

use core::fmt;
use rmd_latency::ForbiddenMatrix;

/// A usage of a synthesized resource: operation class `class` reserves the
/// resource in `cycle` (relative to issue).
///
/// `class` indexes the operations of the *class machine* the reduction
/// runs over (one operation per class).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SynthUsage {
    /// Class index within the class machine.
    pub class: u32,
    /// Reservation cycle, relative to issue.
    pub cycle: u32,
}

impl SynthUsage {
    /// Creates a usage of the synthesized resource by `class` in `cycle`.
    pub fn new(class: u32, cycle: u32) -> Self {
        SynthUsage { class, cycle }
    }
}

impl fmt::Display for SynthUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}@{}", self.class, self.cycle)
    }
}

/// Whether two usages may coexist on one synthesized resource: the
/// latency they would forbid must already be forbidden in the target
/// machine (paper §4).
///
/// Usages `(U, a)` and `(V, b)` sharing a resource forbid the latency
/// `b − a ∈ F[U][V]` (and its mirror), so coexistence requires exactly
/// that membership.
#[inline]
pub(crate) fn usages_compatible(f: &ForbiddenMatrix, u: SynthUsage, v: SynthUsage) -> bool {
    let d = i64::from(v.cycle) - i64::from(u.cycle);
    f.get_idx(u.class as usize, v.class as usize)
        .contains(d as i32)
}

/// A synthesized resource: a set of usages, every pair of which generates
/// only latencies forbidden in the target machine.
///
/// Usages are kept sorted and deduplicated; resources are anchored so
/// that construction always places the earliest usage in cycle 0 (shifts
/// do not change the forbidden latencies, paper §3).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SynthResource {
    usages: Vec<SynthUsage>,
}

impl SynthResource {
    /// Creates an empty resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a resource from usages (sorted, deduplicated).
    pub fn from_usages<I: IntoIterator<Item = SynthUsage>>(usages: I) -> Self {
        let mut v: Vec<SynthUsage> = usages.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        SynthResource { usages: v }
    }

    /// Adds a usage; returns `true` if newly added.
    pub fn insert(&mut self, u: SynthUsage) -> bool {
        match self.usages.binary_search(&u) {
            Ok(_) => false,
            Err(pos) => {
                self.usages.insert(pos, u);
                true
            }
        }
    }

    /// Whether `u` is present.
    pub fn contains(&self, u: SynthUsage) -> bool {
        self.usages.binary_search(&u).is_ok()
    }

    /// The usages, sorted by `(class, cycle)`.
    pub fn usages(&self) -> &[SynthUsage] {
        &self.usages
    }

    /// Number of usages.
    pub fn len(&self) -> usize {
        self.usages.len()
    }

    /// Whether the resource has no usages.
    pub fn is_empty(&self) -> bool {
        self.usages.is_empty()
    }

    /// Whether every usage of `self` appears in `other`.
    pub fn is_subset(&self, other: &SynthResource) -> bool {
        self.usages.iter().all(|u| other.contains(*u))
    }

    /// Whether `u` is compatible with *every* usage of this resource.
    pub fn accepts(&self, f: &ForbiddenMatrix, u: SynthUsage) -> bool {
        self.usages.iter().all(|&w| usages_compatible(f, w, u))
    }

    /// The forbidden latencies this resource generates, as sorted
    /// `(class_x, class_y, latency ≥ 0)` triples meaning
    /// `latency ∈ F[class_x][class_y]`: usages `(U@a, V@b)` forbid
    /// `b − a ∈ F[U][V]`, reported in its nonnegative orientation.
    ///
    /// Self-pairs are included, so any usage by class `X` contributes
    /// `(X, X, 0)`.
    pub fn forbidden_triples(&self) -> Vec<(u32, u32, i32)> {
        let mut out = Vec::new();
        for (i, &u) in self.usages.iter().enumerate() {
            for &v in &self.usages[i..] {
                let d = i64::from(v.cycle) - i64::from(u.cycle);
                match d.cmp(&0) {
                    core::cmp::Ordering::Greater => out.push((u.class, v.class, d as i32)),
                    core::cmp::Ordering::Less => out.push((v.class, u.class, (-d) as i32)),
                    core::cmp::Ordering::Equal => {
                        out.push((u.class, v.class, 0));
                        out.push((v.class, u.class, 0));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Validates the resource against a forbidden matrix: every pair of
    /// usages must generate an already-forbidden latency.
    pub fn is_valid(&self, f: &ForbiddenMatrix) -> bool {
        self.usages
            .iter()
            .enumerate()
            .all(|(i, &u)| self.usages[i..].iter().all(|&v| usages_compatible(f, u, v)))
    }

    /// Returns a copy shifted so its earliest usage is in cycle 0.
    pub fn anchored(&self) -> SynthResource {
        let min = self.usages.iter().map(|u| u.cycle).min().unwrap_or(0);
        SynthResource::from_usages(
            self.usages
                .iter()
                .map(|u| SynthUsage::new(u.class, u.cycle - min)),
        )
    }
}

impl FromIterator<SynthUsage> for SynthResource {
    fn from_iter<I: IntoIterator<Item = SynthUsage>>(iter: I) -> Self {
        Self::from_usages(iter)
    }
}

impl fmt::Display for SynthResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, u) in self.usages.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_latency::ForbiddenMatrix;
    use rmd_machine::models::example_machine;

    fn u(c: u32, cy: u32) -> SynthUsage {
        SynthUsage::new(c, cy)
    }

    fn example_matrix() -> ForbiddenMatrix {
        ForbiddenMatrix::compute(&example_machine())
    }

    #[test]
    fn insert_sorts_and_dedups() {
        let mut r = SynthResource::new();
        assert!(r.insert(u(1, 3)));
        assert!(r.insert(u(0, 0)));
        assert!(!r.insert(u(1, 3)));
        assert_eq!(r.usages(), &[u(0, 0), u(1, 3)]);
    }

    #[test]
    fn compatibility_follows_matrix() {
        // Example machine: op 0 = A, op 1 = B; F[B][A] = {1}.
        let f = example_matrix();
        // Usages (A@0, B@1): forbid 1 ∈ F[A][B]? d = 1, F[A][B] = {-1}: no.
        assert!(!usages_compatible(&f, u(0, 0), u(1, 1)));
        // Usages (B@0, A@1): d = 1 ∈ F[B][A] = {1}: yes.
        assert!(usages_compatible(&f, u(1, 0), u(0, 1)));
        // Self pair always compatible at distance 0 when 0 ∈ F[X][X].
        assert!(usages_compatible(&f, u(0, 2), u(0, 2)));
    }

    #[test]
    fn forbidden_triples_cover_both_orientations_of_zero() {
        let r = SynthResource::from_usages([u(0, 1), u(1, 1)]);
        let t = r.forbidden_triples();
        assert!(t.contains(&(0, 1, 0)));
        assert!(t.contains(&(1, 0, 0)));
        assert!(t.contains(&(0, 0, 0)));
        assert!(t.contains(&(1, 1, 0)));
    }

    #[test]
    fn forbidden_triples_orient_positive() {
        // B@0, A@1 generates 1 ∈ F[B][A]: triple (B, A, 1) — this is the
        // paper's resource 0' (Figure 1c).
        let r = SynthResource::from_usages([u(1, 0), u(0, 1)]);
        let t = r.forbidden_triples();
        assert!(t.contains(&(1, 0, 1)), "{t:?}");
        assert!(t.contains(&(0, 0, 0)));
        assert!(t.contains(&(1, 1, 0)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn validity_against_example_machine() {
        let f = example_matrix();
        // B@{0,1,2,3} is the paper's maximal resource 1'.
        let good = SynthResource::from_usages([u(1, 0), u(1, 1), u(1, 2), u(1, 3)]);
        assert!(good.is_valid(&f));
        // B@{0,4} would forbid 4 ∈ F[B][B]: invalid.
        let bad = SynthResource::from_usages([u(1, 0), u(1, 4)]);
        assert!(!bad.is_valid(&f));
    }

    #[test]
    fn accepts_checks_against_all_usages() {
        let f = example_matrix();
        let r = SynthResource::from_usages([u(1, 0), u(1, 3)]);
        assert!(r.accepts(&f, u(1, 1)));
        // A@1 is compatible with B@0 (1 ∈ F[A][B]? d=1-0=1 ∈ F[B→A]...)
        // but not with B@3 (d = -2 ∉ F[B][A]).
        assert!(!r.accepts(&f, u(0, 1)));
    }

    #[test]
    fn anchored_shifts_to_cycle_zero() {
        let r = SynthResource::from_usages([u(0, 2), u(1, 5)]);
        let a = r.anchored();
        assert_eq!(a.usages(), &[u(0, 0), u(1, 3)]);
    }

    #[test]
    fn subset_detection() {
        let small = SynthResource::from_usages([u(1, 0), u(1, 1)]);
        let big = SynthResource::from_usages([u(1, 0), u(1, 1), u(1, 2)]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }
}
