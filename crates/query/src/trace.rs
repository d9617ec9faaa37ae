//! Recorded query traces and the query-protocol checker.
//!
//! A [`QueryTrace`] is a serialized sequence of the paper's four query
//! functions — `check`, `assign`, `assign&free`, `free` — as issued by a
//! scheduler against one machine description. Two consumers share the
//! format:
//!
//! * `rmd-fault`'s differential oracle records a trace against a module
//!   over the original machine and replays it over modules built from a
//!   mutant, comparing [`Answer`]s step by step.
//! * [`QueryTrace::check_protocol`] runs a [`ProtocolChecker`] over a
//!   trace *statically* — no query module involved — to flag misuse:
//!   double-assigns, frees without a matching assign, frees naming a
//!   foreign owner, and modulo-wraparound misfits.
//!
//! No module embeds the checker: [`DiscreteModule`](crate::DiscreteModule)
//! and [`BitvecModule`](crate::BitvecModule) debug-assert the same
//! protocol on their own state, so each violation panics at the
//! offending call in a debug build.

use crate::registry::OpInstance;
use crate::traits::ContentionQuery;
use core::fmt;
use rmd_machine::{MachineDescription, OpId};
use std::collections::HashMap;

/// One recorded query call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryEvent {
    /// `check(op, cycle)` — contention probe, no state change.
    Check {
        /// Operation probed.
        op: OpId,
        /// Issue cycle probed.
        cycle: u32,
    },
    /// `assign(inst, op, cycle)` — reserve, caller checked first.
    Assign {
        /// Scheduled instance id.
        inst: OpInstance,
        /// Operation scheduled.
        op: OpId,
        /// Issue cycle.
        cycle: u32,
    },
    /// `assign_free(inst, op, cycle)` — reserve, evicting holders.
    AssignFree {
        /// Scheduled instance id.
        inst: OpInstance,
        /// Operation scheduled.
        op: OpId,
        /// Issue cycle.
        cycle: u32,
    },
    /// `free(inst, op, cycle)` — release a prior reservation.
    Free {
        /// Instance being unscheduled.
        inst: OpInstance,
        /// Operation it was scheduled as.
        op: OpId,
        /// Cycle it was scheduled at.
        cycle: u32,
    },
}

impl QueryEvent {
    /// Applies the event to a query module and captures its [`Answer`].
    /// Both trace recording and trace replay go through this single
    /// function, so the two sides of a differential comparison see
    /// identical semantics (eviction sets are sorted before capture).
    pub fn apply<Q: ContentionQuery>(&self, q: &mut Q) -> Answer {
        let response = match *self {
            QueryEvent::Check { op, cycle } => Response::Admitted(q.check(op, cycle)),
            QueryEvent::Assign { inst, op, cycle } => {
                q.assign(inst, op, cycle);
                Response::Done
            }
            QueryEvent::AssignFree { inst, op, cycle } => {
                let mut evicted = q.assign_free(inst, op, cycle);
                evicted.sort_unstable();
                Response::Evicted(evicted)
            }
            QueryEvent::Free { inst, op, cycle } => {
                q.free(inst, op, cycle);
                Response::Done
            }
        };
        Answer {
            response,
            scheduled: q.num_scheduled(),
        }
    }
}

impl fmt::Display for QueryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryEvent::Check { op, cycle } => write!(f, "check({op}, {cycle})"),
            QueryEvent::Assign { inst, op, cycle } => {
                write!(f, "assign({inst}, {op}, {cycle})")
            }
            QueryEvent::AssignFree { inst, op, cycle } => {
                write!(f, "assign_free({inst}, {op}, {cycle})")
            }
            QueryEvent::Free { inst, op, cycle } => {
                write!(f, "free({inst}, {op}, {cycle})")
            }
        }
    }
}

/// What one event returned, plus the scheduled count afterwards — the
/// full observable state the differential oracle compares.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Answer {
    /// The call's own result.
    pub response: Response,
    /// `num_scheduled()` right after the call.
    pub scheduled: usize,
}

/// The result of a single query call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// A `check` verdict.
    Admitted(bool),
    /// The (sorted) instances an `assign_free` evicted.
    Evicted(Vec<OpInstance>),
    /// `assign`/`free` return nothing.
    Done,
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.response {
            Response::Admitted(b) => write!(f, "{b}")?,
            Response::Evicted(e) => write!(f, "evicted {e:?}")?,
            Response::Done => write!(f, "ok")?,
        }
        write!(f, " ({} scheduled)", self.scheduled)
    }
}

/// A recorded sequence of query calls against one machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryTrace {
    /// Name of the machine the trace was recorded against.
    pub machine: String,
    /// Initiation interval, when the trace drove a modulo module.
    pub ii: Option<u32>,
    /// The calls, in issue order.
    pub events: Vec<QueryEvent>,
}

impl QueryTrace {
    /// An empty linear-schedule trace.
    pub fn new(machine: impl Into<String>) -> Self {
        QueryTrace {
            machine: machine.into(),
            ii: None,
            events: Vec::new(),
        }
    }

    /// An empty modulo-schedule trace at initiation interval `ii`.
    pub fn modulo(machine: impl Into<String>, ii: u32) -> Self {
        QueryTrace {
            machine: machine.into(),
            ii: Some(ii),
            events: Vec::new(),
        }
    }

    /// Appends one event.
    pub fn push(&mut self, event: QueryEvent) {
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the whole trace over `q`, returning one [`Answer`] per
    /// event.
    pub fn replay<Q: ContentionQuery>(&self, q: &mut Q) -> Vec<Answer> {
        self.events.iter().map(|e| e.apply(q)).collect()
    }

    /// Statically checks the trace for query-protocol misuse against
    /// `machine`, honoring the trace's `ii` for modulo semantics.
    /// Returns `(event index, violation)` pairs in trace order.
    pub fn check_protocol(&self, machine: &MachineDescription) -> Vec<(usize, ProtocolViolation)> {
        let mut checker = match self.ii {
            Some(ii) => ProtocolChecker::with_ii(machine, ii),
            None => ProtocolChecker::new(machine),
        };
        let mut found = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if let Err(v) = checker.observe(e) {
                found.push((i, v));
            }
        }
        found
    }
}

/// A query-protocol violation detected by [`ProtocolChecker`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolViolation {
    /// An instance was assigned while already scheduled.
    DoubleAssign {
        /// The reused instance id.
        inst: OpInstance,
        /// What it is currently scheduled as.
        prev_op: OpId,
        /// The cycle it is currently scheduled at.
        prev_cycle: u32,
    },
    /// A plain `assign` targeted a slot another instance holds —
    /// `assign` requires a prior successful `check`; only `assign_free`
    /// may displace.
    AssignOverlap {
        /// The instance being assigned.
        inst: OpInstance,
        /// The instance already holding the slot.
        holder: OpInstance,
        /// Resource of the contended slot.
        resource: u32,
        /// Schedule cycle (mod `ii` for modulo traces) of the slot.
        cycle: u32,
    },
    /// A `free` named an instance that is not scheduled.
    FreeWithoutAssign {
        /// The unscheduled instance.
        inst: OpInstance,
    },
    /// A `free` named a live instance but disagreed with its registered
    /// operation or cycle — it would release a foreign owner's slots.
    ForeignFree {
        /// The freed instance.
        inst: OpInstance,
        /// What the caller claimed it was scheduled as.
        claimed_op: OpId,
        /// The cycle the caller claimed.
        claimed_cycle: u32,
        /// What it is actually scheduled as.
        actual_op: OpId,
        /// The cycle it is actually scheduled at.
        actual_cycle: u32,
    },
    /// Under a modulo schedule, the operation's reservation table wraps
    /// onto itself: two usages of one resource fall in the same slot mod
    /// `ii`, so no placement can ever succeed
    /// ([`ModuloDiscreteModule::fits`](crate::ModuloDiscreteModule::fits)
    /// is the precondition the caller skipped).
    ModuloMisfit {
        /// The operation that cannot be modulo-scheduled.
        op: OpId,
        /// The initiation interval in force.
        ii: u32,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProtocolViolation::DoubleAssign {
                inst,
                prev_op,
                prev_cycle,
            } => write!(
                f,
                "{inst} assigned while already scheduled as {prev_op} @ {prev_cycle}"
            ),
            ProtocolViolation::AssignOverlap {
                inst,
                holder,
                resource,
                cycle,
            } => write!(
                f,
                "assign of {inst} overlaps the reservation {holder} holds at \
                 (resource {resource}, cycle {cycle}) — check first or use assign_free"
            ),
            ProtocolViolation::FreeWithoutAssign { inst } => {
                write!(f, "free of {inst}, which is not scheduled")
            }
            ProtocolViolation::ForeignFree {
                inst,
                claimed_op,
                claimed_cycle,
                actual_op,
                actual_cycle,
            } => write!(
                f,
                "free of {inst} as {claimed_op} @ {claimed_cycle}, but it is \
                 scheduled as {actual_op} @ {actual_cycle}"
            ),
            ProtocolViolation::ModuloMisfit { op, ii } => write!(
                f,
                "{op} cannot be modulo-scheduled at ii {ii}: usages of one \
                 resource collide mod ii (fits() is false)"
            ),
        }
    }
}

/// Stateful validator of the `check`/`assign`/`assign_free`/`free`
/// protocol over one machine description.
///
/// Feed it every call (as a [`QueryEvent`]) in order; each call returns
/// the violation it constitutes, if any. The checker keeps its own
/// shadow owner table, so it never touches — and cannot be confused by —
/// the module under observation. On a violation it still applies the
/// event's nominal effect (best effort), which keeps later reports from
/// cascading off one early mistake.
#[derive(Clone, Debug)]
pub struct ProtocolChecker {
    /// Per-op `(resource, cycle)` usages.
    usages: Vec<Vec<(u32, u32)>>,
    ii: Option<u32>,
    /// Per-op: can it be placed at all under `ii`? Always true when
    /// linear.
    fits: Vec<bool>,
    live: HashMap<OpInstance, (OpId, u32)>,
    owner: HashMap<(u32, u32), OpInstance>,
}

impl ProtocolChecker {
    /// A checker for a linear (non-modulo) schedule over `machine`.
    pub fn new(machine: &MachineDescription) -> Self {
        Self::build(machine, None)
    }

    /// A checker for a modulo schedule at initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn with_ii(machine: &MachineDescription, ii: u32) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        Self::build(machine, Some(ii))
    }

    fn build(machine: &MachineDescription, ii: Option<u32>) -> Self {
        let usages: Vec<Vec<(u32, u32)>> = machine
            .operations()
            .iter()
            .map(|op| {
                op.table()
                    .usages()
                    .iter()
                    .map(|u| (u.resource.0, u.cycle))
                    .collect()
            })
            .collect();
        let fits = machine
            .operations()
            .iter()
            .map(|op| ii.map_or(true, |ii| op.table().fits_modulo(ii)))
            .collect();
        ProtocolChecker {
            usages,
            ii,
            fits,
            live: HashMap::new(),
            owner: HashMap::new(),
        }
    }

    #[inline]
    fn slot(&self, cycle: u32) -> u32 {
        match self.ii {
            Some(ii) => cycle % ii,
            None => cycle,
        }
    }

    fn fit_violation(&self, op: OpId) -> Option<ProtocolViolation> {
        match self.ii {
            Some(ii) if !self.fits[op.index()] => Some(ProtocolViolation::ModuloMisfit { op, ii }),
            _ => None,
        }
    }

    fn clear_reservation(&mut self, op: OpId, cycle: u32) {
        for i in 0..self.usages[op.index()].len() {
            let (r, c) = self.usages[op.index()][i];
            let s = (r, self.slot(cycle + c));
            self.owner.remove(&s);
        }
    }

    /// Observes one call. `Ok(())` when the call respects the protocol;
    /// otherwise the (first) violation it constitutes. State is updated
    /// either way.
    pub fn observe(&mut self, event: &QueryEvent) -> Result<(), ProtocolViolation> {
        let mut violation = None;
        match *event {
            QueryEvent::Check { op, .. } => {
                violation = self.fit_violation(op);
            }
            QueryEvent::Assign { inst, op, cycle } => {
                violation = self.fit_violation(op);
                if let Some(&(prev_op, prev_cycle)) = self.live.get(&inst) {
                    violation.get_or_insert(ProtocolViolation::DoubleAssign {
                        inst,
                        prev_op,
                        prev_cycle,
                    });
                    self.clear_reservation(prev_op, prev_cycle);
                }
                for i in 0..self.usages[op.index()].len() {
                    let (r, c) = self.usages[op.index()][i];
                    let s = (r, self.slot(cycle + c));
                    if let Some(&holder) = self.owner.get(&s) {
                        if holder != inst {
                            violation.get_or_insert(ProtocolViolation::AssignOverlap {
                                inst,
                                holder,
                                resource: s.0,
                                cycle: s.1,
                            });
                        }
                    }
                    self.owner.insert(s, inst);
                }
                self.live.insert(inst, (op, cycle));
            }
            QueryEvent::AssignFree { inst, op, cycle } => {
                violation = self.fit_violation(op);
                if let Some(&(prev_op, prev_cycle)) = self.live.get(&inst) {
                    violation.get_or_insert(ProtocolViolation::DoubleAssign {
                        inst,
                        prev_op,
                        prev_cycle,
                    });
                    self.clear_reservation(prev_op, prev_cycle);
                }
                // Evicting holders is this call's contract, not misuse.
                for i in 0..self.usages[op.index()].len() {
                    let (r, c) = self.usages[op.index()][i];
                    let s = (r, self.slot(cycle + c));
                    if let Some(&holder) = self.owner.get(&s) {
                        if holder != inst {
                            if let Some(&(hop, hcycle)) = self.live.get(&holder) {
                                self.clear_reservation(hop, hcycle);
                            }
                            self.live.remove(&holder);
                        }
                    }
                }
                for i in 0..self.usages[op.index()].len() {
                    let (r, c) = self.usages[op.index()][i];
                    let s = (r, self.slot(cycle + c));
                    self.owner.insert(s, inst);
                }
                self.live.insert(inst, (op, cycle));
            }
            QueryEvent::Free { inst, op, cycle } => match self.live.remove(&inst) {
                None => {
                    violation = Some(ProtocolViolation::FreeWithoutAssign { inst });
                }
                Some((actual_op, actual_cycle)) => {
                    self.clear_reservation(actual_op, actual_cycle);
                    if (actual_op, actual_cycle) != (op, cycle) {
                        violation = Some(ProtocolViolation::ForeignFree {
                            inst,
                            claimed_op: op,
                            claimed_cycle: cycle,
                            actual_op,
                            actual_cycle,
                        });
                    }
                }
            },
        }
        violation.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteModule;
    use rmd_machine::models::example_machine;

    fn ops() -> (MachineDescription, OpId, OpId) {
        let m = example_machine();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        (m, a, b)
    }

    #[test]
    fn clean_trace_has_no_violations() {
        let (m, a, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Check { op: b, cycle: 0 });
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        t.push(QueryEvent::AssignFree {
            inst: OpInstance(1),
            op: b,
            cycle: 1,
        });
        t.push(QueryEvent::Assign {
            inst: OpInstance(2),
            op: a,
            cycle: 10,
        });
        t.push(QueryEvent::Free {
            inst: OpInstance(1),
            op: b,
            cycle: 1,
        });
        assert_eq!(t.check_protocol(&m), vec![]);
    }

    #[test]
    fn double_assign_is_flagged() {
        let (m, _, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 8,
        });
        let found = t.check_protocol(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 1);
        assert!(matches!(
            found[0].1,
            ProtocolViolation::DoubleAssign {
                inst: OpInstance(0),
                ..
            }
        ));
    }

    #[test]
    fn assign_into_occupied_slot_is_flagged() {
        let (m, _, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        // B@1 collides with B@0 (1 ∈ F[B][B]) — a plain assign here is
        // the "double-assign of an occupied slot" misuse.
        t.push(QueryEvent::Assign {
            inst: OpInstance(1),
            op: b,
            cycle: 1,
        });
        let found = t.check_protocol(&m);
        assert_eq!(found.len(), 1);
        assert!(matches!(
            found[0].1,
            ProtocolViolation::AssignOverlap {
                holder: OpInstance(0),
                ..
            }
        ));
    }

    #[test]
    fn free_without_assign_is_flagged() {
        let (m, _, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Free {
            inst: OpInstance(5),
            op: b,
            cycle: 0,
        });
        let found = t.check_protocol(&m);
        assert!(matches!(
            found[0].1,
            ProtocolViolation::FreeWithoutAssign {
                inst: OpInstance(5)
            }
        ));
    }

    #[test]
    fn foreign_free_is_flagged() {
        let (m, a, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        t.push(QueryEvent::Free {
            inst: OpInstance(0),
            op: a,
            cycle: 3,
        });
        let found = t.check_protocol(&m);
        assert_eq!(found.len(), 1);
        assert!(matches!(found[0].1, ProtocolViolation::ForeignFree { .. }));
    }

    #[test]
    fn modulo_misfit_is_flagged() {
        // B uses each stage across cycles 0..=7; at ii 4 its issue/stage
        // usages wrap onto themselves.
        let (m, _, b) = ops();
        let mut t = QueryTrace::modulo(m.name(), 2);
        t.push(QueryEvent::Check { op: b, cycle: 0 });
        let found = t.check_protocol(&m);
        assert!(matches!(
            found[0].1,
            ProtocolViolation::ModuloMisfit { ii: 2, .. }
        ));
    }

    #[test]
    fn violation_reports_do_not_cascade() {
        // One double-assign must not make every later event look wrong.
        let (m, a, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 20,
        });
        t.push(QueryEvent::Assign {
            inst: OpInstance(1),
            op: a,
            cycle: 40,
        });
        t.push(QueryEvent::Free {
            inst: OpInstance(0),
            op: b,
            cycle: 20,
        });
        t.push(QueryEvent::Free {
            inst: OpInstance(1),
            op: a,
            cycle: 40,
        });
        let found = t.check_protocol(&m);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, 1);
    }

    #[test]
    fn replay_answers_match_direct_calls() {
        let (m, _, b) = ops();
        let mut t = QueryTrace::new(m.name());
        t.push(QueryEvent::Check { op: b, cycle: 0 });
        t.push(QueryEvent::Assign {
            inst: OpInstance(0),
            op: b,
            cycle: 0,
        });
        t.push(QueryEvent::Check { op: b, cycle: 1 });
        t.push(QueryEvent::AssignFree {
            inst: OpInstance(1),
            op: b,
            cycle: 2,
        });
        let answers = t.replay(&mut DiscreteModule::new(&m));
        assert_eq!(answers[0].response, Response::Admitted(true));
        assert_eq!(answers[2].response, Response::Admitted(false));
        assert_eq!(answers[3].response, Response::Evicted(vec![OpInstance(0)]));
        assert_eq!(answers[3].scheduled, 1);
    }

    /// The linear modules assert the protocol on their own state: every
    /// misuse `check_protocol` flags panics both of them at the call.
    #[cfg(debug_assertions)]
    #[test]
    fn linear_modules_panic_on_each_protocol_violation() {
        use crate::bitvec::{BitvecModule, WordLayout};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (m, a, b) = ops();
        let assign = |inst, op, cycle| QueryEvent::Assign {
            inst: OpInstance(inst),
            op,
            cycle,
        };
        let free = |inst, op, cycle| QueryEvent::Free {
            inst: OpInstance(inst),
            op,
            cycle,
        };
        let reassign = QueryEvent::AssignFree {
            inst: OpInstance(0),
            op: b,
            cycle: 8,
        };
        let cases = [
            // One instance assigned twice, plainly and by assign_free.
            vec![assign(0, b, 0), assign(0, b, 8)],
            vec![assign(0, b, 0), reassign],
            // A plain assign over another instance's reservation.
            vec![assign(0, b, 0), assign(1, b, 1)],
            // A free of an instance that is not scheduled.
            vec![free(0, b, 0)],
            // A free under the wrong op, and under the wrong cycle.
            vec![assign(0, b, 0), free(0, a, 0)],
            vec![assign(0, b, 0), free(0, b, 1)],
        ];
        let layout = WordLayout::widest(64, m.num_resources());
        for events in cases {
            let mut t = QueryTrace::new(m.name());
            events.iter().for_each(|&e| t.push(e));
            assert!(!t.check_protocol(&m).is_empty(), "{events:?}");
            let discrete = catch_unwind(AssertUnwindSafe(|| {
                t.replay(&mut DiscreteModule::new(&m));
            }));
            assert!(discrete.is_err(), "DiscreteModule accepted {events:?}");
            let bitvec = catch_unwind(AssertUnwindSafe(|| {
                t.replay(&mut BitvecModule::new(&m, layout));
            }));
            assert!(bitvec.is_err(), "BitvecModule accepted {events:?}");
        }
    }
}
