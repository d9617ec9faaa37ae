//! The common interface of all contention query modules.

use crate::counters::{QueryFn, WorkCounters};
use crate::registry::OpInstance;
use crate::window;
use rmd_machine::OpId;

/// The query interface of paper §7: `check`, `assign`, `assign&free`,
/// and `free`, over either a linear schedule or a modulo reservation
/// table.
///
/// All cycles are nonnegative; modulo modules interpret them mod II.
/// `assign` and `assign&free` are mutually exclusive within one partial
/// schedule (the latter relies on owner fields the former does not
/// maintain in the bitvector representation) — mirroring the paper's
/// note; in this implementation `assign` is safe to mix as long as
/// `assign&free` is never asked to evict an `assign`ed instance that was
/// never registered. The provided modules register every instance, so
/// mixing works and the restriction is purely a performance-model one.
///
/// `assign&free` has one implementation per module,
/// [`assign_free_into`](Self::assign_free_into);
/// [`assign_free`](Self::assign_free) is its allocating form.
pub trait ContentionQuery {
    /// Can `op` issue in `cycle` without resource contention?
    fn check(&mut self, op: OpId, cycle: u32) -> bool;

    /// Reserves the resources of `op` issued at `cycle` for `inst`.
    ///
    /// The caller is expected to have `check`ed first; reserving over an
    /// existing reservation is a logic error that debug builds catch.
    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32);

    /// Reserves the resources of `op` issued at `cycle` for `inst`,
    /// first unscheduling every instance that holds any of them, and
    /// writes the evicted instances (possibly none) into `evicted`,
    /// which is cleared first. Schedulers with reusable scratch call
    /// this form, so a steady-state scheduler allocates nothing here.
    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    );

    /// [`assign_free_into`](Self::assign_free_into) returning the
    /// evicted instances in a fresh `Vec`, with the same semantics and
    /// work accounting.
    fn assign_free(&mut self, inst: OpInstance, op: OpId, cycle: u32) -> Vec<OpInstance> {
        let mut evicted = Vec::new();
        self.assign_free_into(inst, op, cycle, &mut evicted);
        evicted
    }

    /// Releases the resources of `inst` (which must be `op` at `cycle`).
    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32);

    /// The accumulated work counters.
    fn counters(&self) -> &WorkCounters;

    /// The accumulated work counters, mutably.
    ///
    /// Required so the provided [`check_window`](Self::check_window)
    /// and [`first_free_in`](Self::first_free_in) implementations can
    /// meter themselves; schedulers should treat the counters as
    /// read-only and use [`counters`](Self::counters).
    #[doc(hidden)]
    fn counters_mut(&mut self) -> &mut WorkCounters;

    /// Number of currently scheduled instances.
    fn num_scheduled(&self) -> usize;

    /// Availability bitmask for `op` over the window
    /// `[start, start + len)`: bit `i` is set iff
    /// `check(op, start + i)` would return `true`. `len` is clamped to
    /// 64; cycles past `u32::MAX` read as busy.
    ///
    /// Work accounting: the scalar-equivalent cost — one `check` call
    /// per probed cycle, with the same early-exit unit counts the
    /// scalar loop would have recorded — is charged to the `check`
    /// counter, and one `check_window` call is recorded whose units
    /// count the distinct backend word loads the batched scan actually
    /// performed. The provided implementation literally loops over
    /// [`check`](Self::check) (so its loads equal the scalar units);
    /// backends override it with a word-parallel scan that answers the
    /// same question from fewer loads.
    fn check_window(&mut self, op: OpId, start: u32, len: u32) -> u64 {
        let len = len.min(64);
        let before = self.counters().check.units;
        let mut mask = 0u64;
        for i in 0..len {
            let Some(cycle) = start.checked_add(i) else {
                break;
            };
            if self.check(op, cycle) {
                mask |= 1u64 << i;
            }
        }
        let loads = self.counters().check.units - before;
        self.counters_mut().record(QueryFn::CheckWindow, loads);
        mask
    }

    /// First contention-free cycle for `op` in `[start, start + len)`,
    /// probing in ascending order and stopping at the first free cycle
    /// (the IMS slot-search idiom). Windows longer than 64 cycles are
    /// processed in 64-cycle chunks; cycles past `u32::MAX` read as
    /// busy.
    ///
    /// Work accounting matches the scalar loop exactly: only the
    /// probed prefix is charged to `check` (same calls, same units),
    /// plus one `check_window` call per chunk actually scanned (units
    /// = backend word loads for that prefix).
    fn first_free_in(&mut self, op: OpId, start: u32, len: u32) -> Option<u32> {
        window::first_free_chunked(start, len, |chunk_start, chunk| {
            let before = self.counters().check.units;
            let found = (0..chunk)
                .map_while(|i| chunk_start.checked_add(i))
                .find(|&cycle| self.check(op, cycle));
            let loads = self.counters().check.units - before;
            self.counters_mut().record(QueryFn::CheckWindow, loads);
            found
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteModule;
    use rmd_machine::models::example_machine;

    /// Delegates the required methods only, so the provided
    /// `check_window` / `first_free_in` bodies are the ones under test
    /// even when the inner backend overrides them.
    struct DefaultsOnly(DiscreteModule);

    impl ContentionQuery for DefaultsOnly {
        fn check(&mut self, op: OpId, cycle: u32) -> bool {
            self.0.check(op, cycle)
        }
        fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
            self.0.assign(inst, op, cycle);
        }
        fn assign_free_into(
            &mut self,
            inst: OpInstance,
            op: OpId,
            cycle: u32,
            evicted: &mut Vec<OpInstance>,
        ) {
            self.0.assign_free_into(inst, op, cycle, evicted);
        }
        fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
            self.0.free(inst, op, cycle);
        }
        fn counters(&self) -> &WorkCounters {
            self.0.counters()
        }
        fn counters_mut(&mut self) -> &mut WorkCounters {
            self.0.counters_mut()
        }
        fn num_scheduled(&self) -> usize {
            self.0.num_scheduled()
        }
    }

    #[test]
    fn default_check_window_matches_scalar_checks() {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let mut q = DefaultsOnly(DiscreteModule::new(&m));
        q.assign(OpInstance(0), b, 0);
        let mask = q.check_window(b, 0, 8);

        let mut scalar = DefaultsOnly(DiscreteModule::new(&m));
        scalar.assign(OpInstance(0), b, 0);
        let mut expect = 0u64;
        for i in 0..8u32 {
            if scalar.check(b, i) {
                expect |= 1u64 << i;
            }
        }
        assert_eq!(mask, expect);
        // The equivalent scalar work landed on `check`; the window call
        // is metered separately with the loads it performed.
        assert_eq!(q.counters().check, scalar.counters().check);
        assert_eq!(q.counters().check_window.calls, 1);
        // The default loops over `check`, so its loads equal the scalar
        // units exactly (overrides may do better, never worse).
        assert_eq!(q.counters().check_window.units, q.counters().check.units);
    }

    #[test]
    fn default_first_free_in_stops_at_first_free_cycle() {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let mut q = DefaultsOnly(DiscreteModule::new(&m));
        q.assign(OpInstance(0), b, 0);
        // 1..=3 conflict (F[B][B]); 4 is the first free cycle. A scalar
        // loop would charge one `check` per probed cycle: 4 + 3.
        assert_eq!(q.first_free_in(b, 1, 10), Some(4));
        assert_eq!(q.first_free_in(b, 1, 3), None);
        assert_eq!(q.counters().check.calls, 3 + 4);
        assert_eq!(q.counters().check_window.calls, 2);
        // Windows longer than 64 cycles are chunked, still finding the
        // first free cycle.
        let mut long = DefaultsOnly(DiscreteModule::new(&m));
        long.assign(OpInstance(0), b, 0);
        assert_eq!(long.first_free_in(b, 1, 200), Some(4));
    }
}
