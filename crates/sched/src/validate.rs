//! Independent schedule validation.
//!
//! Validation deliberately bypasses the query module: it re-simulates
//! the schedule's resource usage directly from reservation tables, so a
//! schedule produced with a *reduced* description can be validated
//! against the *original* one — the end-to-end form of the paper's
//! equivalence claim.

use crate::graph::DepGraph;
use crate::ims::ImsResult;
use crate::list::ListResult;
use core::fmt;
use rmd_machine::MachineDescription;
use std::collections::HashMap;

/// A witness that a schedule is invalid.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A dependence `from → to` is violated.
    DependenceViolated {
        /// Source node index.
        from: usize,
        /// Sink node index.
        to: usize,
        /// Required minimum issue time of `to`.
        required: i64,
        /// Actual issue time of `to`.
        actual: i64,
    },
    /// Two nodes reserve the same resource slot.
    ResourceConflict {
        /// First node index.
        a: usize,
        /// Second node index.
        b: usize,
        /// Resource index.
        resource: u32,
        /// The contended slot (modulo slot for modulo schedules,
        /// absolute cycle otherwise, negative before block entry).
        slot: i64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::DependenceViolated {
                from,
                to,
                required,
                actual,
            } => write!(
                f,
                "dependence n{from} -> n{to} violated: t = {actual} < required {required}"
            ),
            ScheduleError::ResourceConflict {
                a,
                b,
                resource,
                slot,
            } => write!(
                f,
                "nodes n{a} and n{b} both reserve resource r{resource} in slot {slot}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Validates a modulo schedule against `machine` (typically the
/// *original*, unreduced description).
///
/// # Errors
///
/// Returns the first [`ScheduleError`] found.
pub fn validate(
    g: &DepGraph,
    machine: &MachineDescription,
    result: &ImsResult,
) -> Result<(), ScheduleError> {
    let ii = i64::from(result.ii);
    // Dependences: t(to) ≥ t(from) + delay − II · distance.
    for e in g.edges() {
        let tf = i64::from(result.times[e.from.index()]);
        let tt = i64::from(result.times[e.to.index()]);
        let required = tf + i64::from(e.delay) - ii * i64::from(e.distance);
        if tt < required {
            return Err(ScheduleError::DependenceViolated {
                from: e.from.index(),
                to: e.to.index(),
                required,
                actual: tt,
            });
        }
    }
    // Resources: every (resource, modulo slot) reserved at most once.
    // Alternatives: the table that matters is the *chosen* operation's.
    let mut taken: HashMap<(u32, u32), usize> = HashMap::new();
    for v in g.nodes() {
        let t = result.times[v.index()];
        let table = machine.operation(result.chosen[v.index()]).table();
        for u in table.usages() {
            let slot = ((u64::from(t) + u64::from(u.cycle)) % result.ii as u64) as u32;
            if let Some(&other) = taken.get(&(u.resource.0, slot)) {
                return Err(ScheduleError::ResourceConflict {
                    a: other,
                    b: v.index(),
                    resource: u.resource.0,
                    slot: i64::from(slot),
                });
            }
            taken.insert((u.resource.0, slot), v.index());
        }
    }
    Ok(())
}

/// Validates an acyclic (list) schedule against `machine`: dependences
/// with distance 0 and absolute-cycle resource exclusivity, including
/// the dangling boundary reservations.
///
/// # Errors
///
/// Returns the first [`ScheduleError`] found.
pub fn validate_list(
    g: &DepGraph,
    machine: &MachineDescription,
    result: &ListResult,
) -> Result<(), ScheduleError> {
    for e in g.edges() {
        debug_assert_eq!(e.distance, 0, "list schedules are acyclic");
        let tf = i64::from(result.times[e.from.index()]);
        let tt = i64::from(result.times[e.to.index()]);
        let required = tf + i64::from(e.delay);
        if tt < required {
            return Err(ScheduleError::DependenceViolated {
                from: e.from.index(),
                to: e.to.index(),
                required,
                actual: tt,
            });
        }
    }
    let mut taken: HashMap<(u32, i64), usize> = HashMap::new();
    let mut reserve = |node: usize, op: rmd_machine::OpId, t: i64| -> Result<(), ScheduleError> {
        let table = machine.operation(op).table();
        for u in table.usages() {
            let slot = t + i64::from(u.cycle);
            if let Some(&other) = taken.get(&(u.resource.0, slot)) {
                return Err(ScheduleError::ResourceConflict {
                    a: other,
                    b: node,
                    resource: u.resource.0,
                    slot,
                });
            }
            taken.insert((u.resource.0, slot), node);
        }
        Ok(())
    };
    for (i, b) in result.boundary.iter().enumerate() {
        // Boundary ops use pseudo node indices beyond the graph.
        reserve(g.num_nodes() + i, b.op, i64::from(b.issue_cycle))?;
    }
    for v in g.nodes() {
        reserve(v.index(), g.op(v), i64::from(result.times[v.index()]))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;
    use crate::ims::{ImsConfig, IterativeModuloScheduler, Representation};
    use crate::list::BoundaryOp;
    use rmd_machine::models::example_machine;
    use rmd_query::WorkCounters;

    fn chain(m: &MachineDescription, names: &[&str]) -> DepGraph {
        let mut g = DepGraph::new();
        let nodes: Vec<_> = names
            .iter()
            .map(|n| g.add_node(m.op_by_name(n).expect("op exists")))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], 1, 0, DepKind::Flow);
        }
        g
    }

    fn resource(m: &MachineDescription, name: &str) -> u32 {
        m.resources()
            .iter()
            .position(|r| r.name() == name)
            .expect("resource exists") as u32
    }

    fn ims(g: &DepGraph, m: &MachineDescription) -> ImsResult {
        IterativeModuloScheduler::new(ImsConfig::default())
            .schedule(g, m, Representation::Discrete)
            .expect("schedulable")
    }

    #[test]
    fn ims_schedules_validate() {
        let m = example_machine();
        let g = chain(&m, &["A", "B", "A"]);
        assert_eq!(validate(&g, &m, &ims(&g, &m)), Ok(()));
    }

    #[test]
    fn collapsed_times_violate_the_first_dependence() {
        let m = example_machine();
        let g = chain(&m, &["B", "B", "B"]);
        let mut r = ims(&g, &m);
        r.times.fill(0);
        assert_eq!(
            validate(&g, &m, &r),
            Err(ScheduleError::DependenceViolated {
                from: 0,
                to: 1,
                required: 1,
                actual: 0,
            })
        );
    }

    #[test]
    fn colliding_nodes_name_the_first_holder() {
        // Two independent Bs issued together: both enter `stage1` at
        // cycle 0, and the node that reserved it first is named first.
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let mut g = DepGraph::new();
        g.add_node(b);
        g.add_node(b);
        let mut r = ims(&g, &m);
        r.times.fill(0);
        assert_eq!(
            validate(&g, &m, &r),
            Err(ScheduleError::ResourceConflict {
                a: 0,
                b: 1,
                resource: resource(&m, "stage1"),
                slot: 0,
            })
        );
    }

    #[test]
    fn the_chosen_alternatives_table_is_checked() {
        // Two A nodes at cycle 0 collide on `stage0`, but placed as A and
        // B they share nothing: only the chosen tables count.
        let m = example_machine();
        let (a, b) = (m.op_by_name("A").unwrap(), m.op_by_name("B").unwrap());
        let mut g = DepGraph::new();
        g.add_node(a);
        g.add_node(a);
        let mut r = ims(&g, &m);
        r.times = vec![0, 0];
        r.ii = 16;
        r.chosen = vec![a, b];
        assert_eq!(validate(&g, &m, &r), Ok(()));
        r.chosen = vec![a, a];
        assert!(matches!(
            validate(&g, &m, &r),
            Err(ScheduleError::ResourceConflict { a: 0, b: 1, .. })
        ));
    }

    #[test]
    fn list_schedules_collide_with_boundary_ops() {
        // A B issued one cycle before the block still holds `mul-stage`
        // at cycle 2, where a B issued at entry needs it. The boundary op
        // is the first holder, under the pseudo index past the graph.
        let m = example_machine();
        let g = chain(&m, &["B"]);
        let b = m.op_by_name("B").unwrap();
        let list = |issue_cycles: &[i32]| ListResult {
            times: vec![0],
            length: 1,
            counters: WorkCounters::new(),
            boundary: issue_cycles
                .iter()
                .map(|&issue_cycle| BoundaryOp { op: b, issue_cycle })
                .collect(),
        };
        assert_eq!(
            validate_list(&g, &m, &list(&[-1])),
            Err(ScheduleError::ResourceConflict {
                a: 1,
                b: 0,
                resource: resource(&m, "mul-stage"),
                slot: 2,
            })
        );
        // Issued eight cycles earlier, the boundary B has drained.
        assert_eq!(validate_list(&g, &m, &list(&[-8])), Ok(()));
        // Two boundary Bs issued together collide before block entry,
        // and the cycle is reported as it is, negative.
        assert_eq!(
            validate_list(&g, &m, &list(&[-9, -9])),
            Err(ScheduleError::ResourceConflict {
                a: 1,
                b: 2,
                resource: resource(&m, "stage1"),
                slot: -9,
            })
        );
    }
}
