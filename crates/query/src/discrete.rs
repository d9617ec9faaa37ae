//! The discrete-representation query module.

use crate::compiled::CompiledUsages;
use crate::counters::{QueryFn, WorkCounters};
use crate::registry::{OpInstance, Registry};
use crate::traits::ContentionQuery;
use rmd_machine::{MachineDescription, OpId};

/// Contention query module over a *discrete* reserved table: one entry
/// per (resource, schedule cycle), carrying the owning instance
/// (paper §5 "discrete representation", §7 functions).
///
/// The reserved table grows on demand as operations are placed in later
/// cycles. Work units: one per reserved-table entry touched.
///
/// # Example
///
/// ```
/// use rmd_machine::models::mips_r3000;
/// use rmd_query::{ContentionQuery, DiscreteModule, OpInstance};
///
/// let m = mips_r3000();
/// let div = m.op_by_name("div.s").unwrap();
/// let mut q = DiscreteModule::new(&m);
/// q.assign(OpInstance(0), div, 0);
/// assert!(!q.check(div, 3)); // divider still busy
/// let evicted = q.assign_free(OpInstance(1), div, 3);
/// assert_eq!(evicted, vec![OpInstance(0)]); // first div unscheduled
/// assert!(q.check(div, 30));
/// ```
#[derive(Clone, Debug)]
pub struct DiscreteModule {
    compiled: CompiledUsages,
    /// `owner[cycle * num_resources + r]`.
    owner: Vec<Option<OpInstance>>,
    horizon: u32,
    registry: Registry,
    counters: WorkCounters,
}

impl DiscreteModule {
    /// Creates an empty partial schedule over `machine`.
    pub fn new(machine: &MachineDescription) -> Self {
        DiscreteModule {
            compiled: CompiledUsages::new(machine),
            owner: Vec::new(),
            horizon: 0,
            registry: Registry::new(),
            counters: WorkCounters::new(),
        }
    }

    fn ensure_horizon(&mut self, cycles: u32) {
        if cycles > self.horizon {
            let nr = self.compiled.num_resources;
            self.owner.resize(cycles as usize * nr, None);
            self.horizon = cycles;
        }
    }

    #[inline]
    fn slot(&self, r: u32, cycle: u32) -> usize {
        cycle as usize * self.compiled.num_resources + r as usize
    }

    /// The instance occupying `(resource r, cycle)`, if any — exposed for
    /// backtracking schedulers that want to inspect conflicts without
    /// committing (beyond the paper's four functions, but in the spirit
    /// of its owner fields).
    pub fn owner_of(&self, r: u32, cycle: u32) -> Option<OpInstance> {
        if cycle >= self.horizon {
            None
        } else {
            self.owner[self.slot(r, cycle)]
        }
    }
}

impl ContentionQuery for DiscreteModule {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        let mut units = 0;
        let mut clear = true;
        for &(r, c) in self.compiled.of(op) {
            units += 1;
            let gc = cycle + c;
            if gc < self.horizon && self.owner[self.slot(r, gc)].is_some() {
                clear = false; // abort on first contention
                break;
            }
        }
        self.counters.record(QueryFn::Check, units);
        clear
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.ensure_horizon(cycle + self.compiled.length[op.index()]);
        for &(r, c) in self.compiled.of(op) {
            let s = self.slot(r, cycle + c);
            debug_assert!(self.owner[s].is_none(), "assign over a reservation");
            self.owner[s] = Some(inst);
        }
        self.counters
            .record(QueryFn::Assign, self.compiled.of(op).len() as u64);
        self.registry.insert(inst, op, cycle);
    }

    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    ) {
        self.ensure_horizon(cycle + self.compiled.length[op.index()]);
        evicted.clear();
        let mut units = 0;
        for ui in 0..self.compiled.of(op).len() {
            let (r, c) = self.compiled.of(op)[ui];
            units += 1;
            let s = self.slot(r, cycle + c);
            if let Some(holder) = self.owner[s] {
                if holder != inst {
                    // Unschedule the conflicting instance entirely.
                    let (hop, hcycle) = self
                        .registry
                        .remove(holder)
                        .expect("owner entries always track registered instances");
                    for &(hr, hc) in self.compiled.of(hop) {
                        units += 1;
                        let hs = self.slot(hr, hcycle + hc);
                        self.owner[hs] = None;
                    }
                    evicted.push(holder);
                }
            }
            self.owner[s] = Some(inst);
        }
        self.counters.record(QueryFn::AssignFree, units);
        self.registry.insert(inst, op, cycle);
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        let removed = self.registry.remove(inst);
        debug_assert_eq!(removed, Some((op, cycle)), "free of unscheduled instance");
        for &(r, c) in self.compiled.of(op) {
            let s = self.slot(r, cycle + c);
            debug_assert_eq!(self.owner[s], Some(inst), "free of foreign reservation");
            self.owner[s] = None;
        }
        self.counters
            .record(QueryFn::Free, self.compiled.of(op).len() as u64);
    }

    fn counters(&self) -> &WorkCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut WorkCounters {
        &mut self.counters
    }

    fn num_scheduled(&self) -> usize {
        self.registry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    fn setup() -> (MachineDescription, DiscreteModule, OpId, OpId) {
        let m = example_machine();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let q = DiscreteModule::new(&m);
        (m, q, a, b)
    }

    #[test]
    fn check_respects_forbidden_latencies() {
        let (_, mut q, a, b) = setup();
        q.assign(OpInstance(0), a, 5);
        // F[B][A] = {1}: B may not issue at 6.
        assert!(!q.check(b, 6));
        assert!(q.check(b, 5));
        assert!(q.check(b, 7));
        // F[A][A] = {0}.
        assert!(!q.check(a, 5));
        assert!(q.check(a, 6));
    }

    #[test]
    fn assign_then_free_restores_emptiness() {
        let (_, mut q, _, b) = setup();
        q.assign(OpInstance(1), b, 3);
        assert!(!q.check(b, 4));
        q.free(OpInstance(1), b, 3);
        assert!(q.check(b, 4));
        assert_eq!(q.num_scheduled(), 0);
    }

    #[test]
    fn assign_free_evicts_all_conflicting_instances() {
        let (_, mut q, _, b) = setup();
        q.assign(OpInstance(0), b, 0);
        // 4 ∉ F[B][B]: legal.
        q.assign(OpInstance(1), b, 4);
        // B at 2 conflicts with both (|Δ| ≤ 3).
        let evicted = q.assign_free(OpInstance(2), b, 2);
        let mut e = evicted.clone();
        e.sort();
        assert_eq!(e, vec![OpInstance(0), OpInstance(1)]);
        assert_eq!(q.num_scheduled(), 1);
        // The evicted slots are free again except where inst2 sits.
        assert!(q.check(b, 6));
    }

    #[test]
    fn assign_free_without_conflict_evicts_nothing() {
        let (_, mut q, a, b) = setup();
        q.assign(OpInstance(0), a, 0);
        let evicted = q.assign_free(OpInstance(1), b, 0);
        assert!(evicted.is_empty());
        assert_eq!(q.num_scheduled(), 2);
    }

    #[test]
    fn work_units_count_usages() {
        let (_, mut q, a, b) = setup();
        // A has 3 usages; a clean check touches all 3.
        q.check(a, 0);
        assert_eq!(q.counters().check.units, 3);
        q.assign(OpInstance(0), a, 0);
        assert_eq!(q.counters().assign.units, 3);
        // B has 8 usages; checking B@1 aborts at the first conflict
        // (A@0 uses stage1 in cycle 1 = B@1's first usage, stage1@0).
        q.check(b, 1);
        assert!(q.counters().check.units <= 3 + 8);
        assert!(q.counters().check.units > 3);
    }

    #[test]
    fn owner_of_reports_holder() {
        let (_, mut q, a, _) = setup();
        q.assign(OpInstance(7), a, 2);
        // A uses stage0 (r0) at cycle 2.
        assert_eq!(q.owner_of(0, 2), Some(OpInstance(7)));
        assert_eq!(q.owner_of(0, 3), None);
        assert_eq!(q.owner_of(0, 1000), None);
    }
}
