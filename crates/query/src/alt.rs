//! `check-with-alt`: finding a contention-free alternative operation
//! (paper §7).

use crate::traits::ContentionQuery;
use rmd_machine::alternatives::AltGroups;
use rmd_machine::OpId;

/// Determines whether `op` — or any of its alternative operations — can
/// issue in `cycle` without contention, returning the first
/// contention-free alternative.
///
/// Alternatives are tried in group order by repeated [`check`]
/// (the paper's stated implementation), starting with `op` itself so the
/// scheduler's preferred alternative wins ties.
///
/// [`check`]: ContentionQuery::check
///
/// # Example
///
/// ```
/// use rmd_machine::alternatives::AltDescription;
/// use rmd_machine::ReservationTable;
/// use rmd_query::{check_with_alt, ContentionQuery, DiscreteModule, OpInstance};
///
/// let mut d = AltDescription::new("dual-port");
/// let p0 = d.resource("port0");
/// let p1 = d.resource("port1");
/// d.operation("load")
///     .alternative(ReservationTable::from_usages([(p0, 0)]))
///     .alternative(ReservationTable::from_usages([(p1, 0)]))
///     .finish();
/// let (m, groups) = d.expand().unwrap();
/// let (l0, l1) = (m.op_by_name("load#0").unwrap(), m.op_by_name("load#1").unwrap());
///
/// let mut q = DiscreteModule::new(&m);
/// q.assign(OpInstance(0), l0, 0);
/// // Port 0 is taken in cycle 0; the query falls through to port 1.
/// assert_eq!(check_with_alt(&mut q, &groups, l0, 0), Some(l1));
/// ```
pub fn check_with_alt<Q: ContentionQuery + ?Sized>(
    query: &mut Q,
    groups: &AltGroups,
    op: OpId,
    cycle: u32,
) -> Option<OpId> {
    if query.check(op, cycle) {
        return Some(op);
    }
    groups
        .alternatives_of(op)
        .iter()
        .copied()
        .find(|&alt| alt != op && query.check(alt, cycle))
}

/// Slot search over `[start, start + len)` with alternatives: the first
/// cycle in which `op` or one of its alternatives can issue, together
/// with the chosen alternative — the windowed counterpart of scanning
/// [`check_with_alt`] cycle by cycle, with identical results and
/// identical `check` accounting.
///
/// An operation without real alternatives (the common case — most ops
/// either have no group or are their group's only member) delegates to
/// the backend's batched [`first_free_in`]: per cycle, the scalar loop
/// would have issued exactly one `check` of `op`, which is precisely
/// what `first_free_in` charges. With real alternatives the probe order
/// interleaves base and alternatives *within* each cycle before moving
/// on, so batching per op would reorder (and over-count) probes; that
/// path keeps the per-cycle loop.
///
/// [`first_free_in`]: ContentionQuery::first_free_in
pub fn first_free_with_alt<Q: ContentionQuery + ?Sized>(
    query: &mut Q,
    groups: &AltGroups,
    op: OpId,
    start: u32,
    len: u32,
) -> Option<(u32, OpId)> {
    let has_real_alts = groups.alternatives_of(op).iter().any(|&alt| alt != op);
    if !has_real_alts {
        return query.first_free_in(op, start, len).map(|t| (t, op));
    }
    let end = u64::from(start) + u64::from(len);
    let mut cursor = u64::from(start);
    while cursor < end && cursor <= u64::from(u32::MAX) {
        let t = cursor as u32;
        if let Some(chosen) = check_with_alt(query, groups, op, t) {
            return Some((t, chosen));
        }
        cursor += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteModule;
    use crate::registry::OpInstance;
    use rmd_machine::alternatives::AltDescription;
    use rmd_machine::ReservationTable;

    fn dual_port() -> (rmd_machine::MachineDescription, AltGroups, OpId, OpId) {
        let mut d = AltDescription::new("m");
        let p0 = d.resource("p0");
        let p1 = d.resource("p1");
        d.operation("ld")
            .alternative(ReservationTable::from_usages([(p0, 0)]))
            .alternative(ReservationTable::from_usages([(p1, 0)]))
            .finish();
        let (m, g) = d.expand().unwrap();
        let l0 = m.op_by_name("ld#0").unwrap();
        let l1 = m.op_by_name("ld#1").unwrap();
        (m, g, l0, l1)
    }

    #[test]
    fn prefers_the_requested_op() {
        let (m, g, l0, _) = dual_port();
        let mut q = DiscreteModule::new(&m);
        assert_eq!(check_with_alt(&mut q, &g, l0, 0), Some(l0));
    }

    #[test]
    fn falls_through_to_free_alternative() {
        let (m, g, l0, l1) = dual_port();
        let mut q = DiscreteModule::new(&m);
        q.assign(OpInstance(0), l0, 0);
        assert_eq!(check_with_alt(&mut q, &g, l0, 0), Some(l1));
        // Asking via the other alternative also works.
        assert_eq!(check_with_alt(&mut q, &g, l1, 0), Some(l1));
    }

    #[test]
    fn none_when_all_alternatives_blocked() {
        let (m, g, l0, l1) = dual_port();
        let mut q = DiscreteModule::new(&m);
        q.assign(OpInstance(0), l0, 0);
        q.assign(OpInstance(1), l1, 0);
        assert_eq!(check_with_alt(&mut q, &g, l0, 0), None);
        // A later cycle is free.
        assert_eq!(check_with_alt(&mut q, &g, l0, 1), Some(l0));
    }

    #[test]
    fn issues_one_check_per_alternative_tried() {
        let (m, g, l0, _) = dual_port();
        let mut q = DiscreteModule::new(&m);
        q.assign(OpInstance(0), l0, 0);
        let before = q.counters().check.calls;
        check_with_alt(&mut q, &g, l0, 0);
        assert_eq!(q.counters().check.calls - before, 2);
    }

    #[test]
    fn windowed_search_matches_the_scalar_loop_with_alternatives() {
        let (m, g, l0, l1) = dual_port();
        let mut scalar = DiscreteModule::new(&m);
        let mut windowed = DiscreteModule::new(&m);
        for q in [&mut scalar, &mut windowed] {
            q.assign(OpInstance(0), l0, 0);
            q.assign(OpInstance(1), l1, 0);
            q.assign(OpInstance(2), l0, 1);
        }
        // Scalar reference: cycle-by-cycle check_with_alt.
        let mut expect = None;
        for t in 0..8u32 {
            if let Some(chosen) = check_with_alt(&mut scalar, &g, l0, t) {
                expect = Some((t, chosen));
                break;
            }
        }
        let got = first_free_with_alt(&mut windowed, &g, l0, 0, 8);
        assert_eq!(got, expect);
        // Port 1 is free from cycle 1 on.
        assert_eq!(got, Some((1, l1)));
        // Identical `check` accounting: both paths probed the same ops
        // in the same cycles.
        assert_eq!(scalar.counters().check, windowed.counters().check);
    }

    #[test]
    fn ops_without_alternatives_use_the_batched_path() {
        // Identity grouping (every op its own group): the search
        // delegates to the backend's first_free_in, which meters
        // check_window.
        let m = rmd_machine::models::example_machine();
        let g = AltGroups::from_groups(&m, Vec::new());
        let b = m.op_by_name("B").unwrap();
        let mut q = DiscreteModule::new(&m);
        q.assign(OpInstance(0), b, 0);
        assert_eq!(first_free_with_alt(&mut q, &g, b, 1, 10), Some((4, b)));
        assert!(q.counters().check_window.calls > 0);
        // Nothing free in a too-short window.
        assert_eq!(first_free_with_alt(&mut q, &g, b, 1, 3), None);
    }
}
