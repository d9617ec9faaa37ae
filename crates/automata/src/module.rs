//! A [`ContentionQuery`] adapter over the forward/reverse automaton
//! pair, so the automata baseline can sit behind the same interface as
//! the reservation-table modules and be driven by the cross-backend
//! conformance suite and the schedulers.
//!
//! The pair scheme has no native `free`: automaton states summarize the
//! whole prefix (suffix) of the schedule, so removing one operation
//! invalidates every cached state after (before) it. This adapter makes
//! removal work the only way the representation allows — it keeps the
//! scheduled-operation list plus a shadow owner map, and **rebuilds**
//! the [`PairScheduler`] by replaying the surviving operations whenever
//! `free` or an evicting `assign&free` strikes one out. Each rebuild is
//! counted as a [`WorkCounters::transitions`] and its replay lookups
//! are charged to the triggering call, which is exactly the update
//! overhead the paper's §2 attributes to the automata approach.

use crate::automaton::{Automaton, Direction};
use crate::unrestricted::PairScheduler;
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{CompiledUsages, ContentionQuery, OpInstance, WorkCounters};
use std::collections::HashMap;

/// Contention query module backed by a forward/reverse automaton pair.
///
/// Unlike the reservation-table modules, the schedule horizon is fixed
/// at construction: `check` answers `false` for any placement that does
/// not fit in `0..horizon`, and `assign` of such a placement panics
/// (the automata cache one state per cycle and cannot grow on demand
/// without a full rebuild).
///
/// # Example
///
/// ```
/// use rmd_automata::{AutomataModule, Automaton, Direction};
/// use rmd_machine::models::example_machine;
/// use rmd_query::{ContentionQuery, OpInstance};
///
/// let m = example_machine();
/// let fwd = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
/// let rev = Automaton::build(&m, Direction::Reverse, 1 << 20).unwrap();
/// let b = m.op_by_name("B").unwrap();
///
/// let mut q = AutomataModule::new(&m, &fwd, &rev, 32);
/// q.assign(OpInstance(0), b, 0);
/// assert!(!q.check(b, 1)); // 1 ∈ F[B][B]
/// let evicted = q.assign_free(OpInstance(1), b, 1);
/// assert_eq!(evicted, vec![OpInstance(0)]);
/// q.free(OpInstance(1), b, 1);
/// assert!(q.check(b, 1));
/// ```
#[derive(Clone, Debug)]
pub struct AutomataModule<'a> {
    machine: &'a MachineDescription,
    fwd: &'a Automaton,
    rev: &'a Automaton,
    horizon: u32,
    sched: PairScheduler<'a>,
    /// The eviction-scan order every reservation-table module uses, so
    /// `assign_free_into` reports evictions in the identical order.
    usages: CompiledUsages,
    /// Scheduled instances in insertion order (the replay script).
    insts: Vec<(OpInstance, OpId, u32)>,
    /// Shadow owner map: `(resource, cycle)` -> holding instance.
    owner: HashMap<(u32, u32), OpInstance>,
    counters: WorkCounters,
}

impl<'a> AutomataModule<'a> {
    /// Creates an empty schedule over cycles `0..horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the automata are not a Forward/Reverse pair built for
    /// a machine with this operation count.
    pub fn new(
        machine: &'a MachineDescription,
        fwd: &'a Automaton,
        rev: &'a Automaton,
        horizon: u32,
    ) -> Self {
        assert_eq!(fwd.direction(), Direction::Forward);
        assert_eq!(rev.direction(), Direction::Reverse);
        AutomataModule {
            machine,
            fwd,
            rev,
            horizon,
            sched: PairScheduler::new(machine, fwd, rev, horizon),
            usages: CompiledUsages::new(machine),
            insts: Vec::new(),
            owner: HashMap::new(),
            counters: WorkCounters::new(),
        }
    }

    /// The fixed schedule horizon.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Automaton transition lookups performed since the last call to
    /// `before`, charged to a work-unit counter.
    fn charge_lookups(&mut self, before: u64, unit: fn(&mut WorkCounters) -> &mut u64) {
        let after = self.sched.stats().lookups;
        *unit(&mut self.counters) += after - before;
    }

    /// Replays the surviving instances into a fresh pair scheduler.
    /// The replay's lookups are charged to `unit`; the rebuild itself
    /// is counted as a transition.
    fn rebuild(&mut self, unit: fn(&mut WorkCounters) -> &mut u64) {
        let mut sched = PairScheduler::new(self.machine, self.fwd, self.rev, self.horizon);
        for &(_, op, cycle) in &self.insts {
            sched.insert(op, cycle);
        }
        *unit(&mut self.counters) += sched.stats().lookups;
        self.counters.transitions += 1;
        self.sched = sched;
    }

    fn record(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        for &(r, c) in self.usages.of(op) {
            self.owner.insert((r, cycle + c), inst);
        }
        self.insts.push((inst, op, cycle));
    }

    /// Removes `inst` from the scheduled list and owner map, returning
    /// its (op, cycle). Does **not** rebuild the scheduler.
    fn strike(&mut self, inst: OpInstance) -> (OpId, u32) {
        let i = self
            .insts
            .iter()
            .position(|&(x, _, _)| x == inst)
            .expect("strike of unscheduled instance");
        let (_, op, cycle) = self.insts.remove(i);
        for &(r, c) in self.usages.of(op) {
            self.owner.remove(&(r, cycle + c));
        }
        (op, cycle)
    }
}

impl ContentionQuery for AutomataModule<'_> {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        self.counters.check.calls += 1;
        let before = self.sched.stats().lookups;
        let ok = self.sched.check(op, cycle);
        self.charge_lookups(before, |c| &mut c.check.units);
        ok
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.counters.assign.calls += 1;
        let before = self.sched.stats().lookups;
        self.sched.insert(op, cycle);
        self.charge_lookups(before, |c| &mut c.assign.units);
        self.record(inst, op, cycle);
    }

    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    ) {
        self.counters.assign_free.calls += 1;
        // Scan the new reservation's usage slots in the shared (cycle,
        // resource) order, striking out every conflicting holder — the
        // same walk the discrete module performs over its owner table.
        evicted.clear();
        for ui in 0..self.usages.of(op).len() {
            let (r, c) = self.usages.of(op)[ui];
            self.counters.assign_free.units += 1;
            if let Some(&holder) = self.owner.get(&(r, cycle + c)) {
                if holder != inst {
                    let (hop, _) = self.strike(holder);
                    self.counters.assign_free.units += self.usages.of(hop).len() as u64;
                    evicted.push(holder);
                }
            }
        }
        if evicted.is_empty() {
            let before = self.sched.stats().lookups;
            self.sched.insert(op, cycle);
            self.charge_lookups(before, |c| &mut c.assign_free.units);
        } else {
            // The automata cannot unschedule: replay the survivors.
            self.rebuild(|c| &mut c.assign_free.units);
            self.sched.insert(op, cycle);
        }
        self.record(inst, op, cycle);
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.counters.free.calls += 1;
        let struck = self.strike(inst);
        debug_assert_eq!(struck, (op, cycle), "free of unscheduled instance");
        self.rebuild(|c| &mut c.free.units);
    }

    fn counters(&self) -> &WorkCounters {
        &self.counters
    }

    fn counters_mut(&mut self) -> &mut WorkCounters {
        &mut self.counters
    }

    fn num_scheduled(&self) -> usize {
        self.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    fn pair(m: &MachineDescription) -> (Automaton, Automaton) {
        (
            Automaton::build(m, Direction::Forward, 1 << 20).unwrap(),
            Automaton::build(m, Direction::Reverse, 1 << 20).unwrap(),
        )
    }

    #[test]
    fn behaves_like_a_reservation_table_module() {
        use rmd_query::DiscreteModule;
        let m = example_machine();
        let (f, r) = pair(&m);
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let mut am = AutomataModule::new(&m, &f, &r, 64);
        let mut ds = DiscreteModule::new(&m);
        // Arbitrary-order script mixing all four functions.
        let script: &[(&str, OpId, u32)] = &[
            ("assign", b, 20),
            ("assign", a, 3),
            ("assign", b, 0),
            ("free", b, 20),
            ("assign_free", b, 2),
            ("assign", a, 21),
            ("free", a, 3),
        ];
        let mut next = 0u32;
        let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
        for &(what, op, t) in script {
            match what {
                "assign" => {
                    assert_eq!(am.check(op, t), ds.check(op, t), "{op:?}@{t}");
                    let i = OpInstance(next);
                    next += 1;
                    am.assign(i, op, t);
                    ds.assign(i, op, t);
                    live.push((i, op, t));
                }
                "assign_free" => {
                    let i = OpInstance(next);
                    next += 1;
                    let ea = am.assign_free(i, op, t);
                    let ed = ds.assign_free(i, op, t);
                    assert_eq!(ea, ed, "{op:?}@{t}");
                    live.retain(|(x, _, _)| !ea.contains(x));
                    live.push((i, op, t));
                }
                "free" => {
                    let pos = live
                        .iter()
                        .position(|&(_, o, c)| o == op && c == t)
                        .expect("script frees a live instance");
                    let (i, _, _) = live.remove(pos);
                    am.free(i, op, t);
                    ds.free(i, op, t);
                }
                _ => unreachable!(),
            }
            assert_eq!(am.num_scheduled(), ds.num_scheduled());
        }
        for t in 0..40 {
            for op in [a, b] {
                assert_eq!(am.check(op, t), ds.check(op, t), "{op:?} @ {t}");
            }
        }
    }

    #[test]
    fn assign_free_into_matches_assign_free() {
        // The automata half of rmd-query's test of the same name: the
        // provided `assign_free` reports the same evictions and books
        // the same work, and the buffer form drops stale content.
        let m = example_machine();
        let (f, r) = pair(&m);
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let mut q1 = AutomataModule::new(&m, &f, &r, 64);
        let mut q2 = AutomataModule::new(&m, &f, &r, 64);
        for (inst, op, cycle) in [(0, b, 0), (1, b, 4), (2, b, 2), (3, a, 9)] {
            let e1 = q1.assign_free(OpInstance(inst), op, cycle);
            let mut e2 = vec![OpInstance(99)];
            q2.assign_free_into(OpInstance(inst), op, cycle, &mut e2);
            assert_eq!(e1, e2, "inst={inst} cycle={cycle}");
        }
        assert_eq!(q1.counters(), q2.counters());
        assert_eq!(q1.num_scheduled(), q2.num_scheduled());
    }

    #[test]
    fn out_of_horizon_checks_are_false() {
        let m = example_machine();
        let (f, r) = pair(&m);
        let b = m.op_by_name("B").unwrap();
        let mut am = AutomataModule::new(&m, &f, &r, 10);
        // B's table is 8 cycles long: 2 is the last in-horizon slot.
        assert!(am.check(b, 2));
        assert!(!am.check(b, 3));
        assert_eq!(am.horizon(), 10);
    }

    #[test]
    fn rebuilds_are_metered_as_transitions() {
        let m = example_machine();
        let (f, r) = pair(&m);
        let b = m.op_by_name("B").unwrap();
        let mut am = AutomataModule::new(&m, &f, &r, 64);
        am.assign(OpInstance(0), b, 0);
        assert_eq!(am.counters().transitions, 0);
        // Evicting assign_free forces a replay...
        am.assign_free(OpInstance(1), b, 1);
        assert_eq!(am.counters().transitions, 1);
        // ...and so does free.
        am.free(OpInstance(1), b, 1);
        assert_eq!(am.counters().transitions, 2);
        assert_eq!(am.num_scheduled(), 0);
        assert!(am.counters().free.units > 0 || am.num_scheduled() == 0);
    }
}
