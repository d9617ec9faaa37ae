//! Minimum initiation interval bounds.
//!
//! A modulo schedule's II is bounded below by resource pressure
//! ([`res_mii`]) and by recurrence circuits ([`rec_mii`]); [`mii`] is
//! their maximum. These are the standard bounds of Rau's Iterative Modulo
//! Scheduling and appear in the paper's Table 5 as the "MII" against
//! which schedule quality (II/MII) is judged.
//!
//! Every loop computes [`mii`] before it is scheduled, so it does no work
//! the maximum does not need. ResMII comes first, counted once per
//! distinct operation. A circuit needs an edge that does not go forward
//! in node order; when every such edge is a loop-carried self-loop, those
//! self-loops are the only circuits and RecMII has a closed form. Any
//! other graph is probed: a circuit's weight `Σ delay − II · Σ distance`
//! never rises with II, so one positive-circuit probe at II = ResMII
//! settles most loops: without a positive circuit there, RecMII ≤ ResMII.
//! Only when the probe finds one does [`mii`] search for RecMII, and then
//! only above ResMII.

use crate::graph::DepGraph;
use rmd_machine::{MachineDescription, Usage};

/// Operations and resources [`res_mii`] counts on the stack; a machine
/// with more of either counts in a heap buffer.
const STACK_COUNTS: usize = 64;

/// Resource-constrained MII: each resource has II modulo slots per
/// iteration and every usage claims one, so ResMII is at least the
/// pressure `max_r Σ_nodes usages_r(op(node))`.
///
/// Additionally, each operation's own table must fit II
/// ([`ReservationTable::fits_modulo`](rmd_machine::ReservationTable::fits_modulo)).
/// Fit is not monotone in II, so the result is the smallest II at or
/// above the pressure at which every operation of the graph fits. Every
/// operation fits once II exceeds the widest distance between two usages
/// of one resource by one operation, so the scan stops there. The II
/// search of [`IterativeModuloScheduler`](crate::IterativeModuloScheduler)
/// skips the IIs above this bound at which some operation does not fit.
///
/// Nodes are counted per operation first, so each distinct operation's
/// usages are added once, times its count, and its fit is tested once
/// per II.
pub fn res_mii(g: &DepGraph, m: &MachineDescription) -> u32 {
    let (num_ops, num_res) = (m.num_operations(), m.num_resources());
    let mut stack = [0u32; 2 * STACK_COUNTS];
    let mut heap = Vec::new();
    let counts = if num_ops <= STACK_COUNTS && num_res <= STACK_COUNTS {
        &mut stack[..num_ops + num_res]
    } else {
        heap.resize(num_ops + num_res, 0);
        &mut heap[..]
    };
    let (per_op, per_resource) = counts.split_at_mut(num_ops);
    for n in g.nodes() {
        per_op[g.op(n).index()] += 1;
    }
    // Each distinct operation's node count and table.
    let distinct = || {
        per_op
            .iter()
            .zip(m.operations())
            .filter(|(&count, _)| count > 0)
            .map(|(&count, op)| (count, op.table()))
    };
    let mut widest = 0;
    for (count, table) in distinct() {
        // The first usage of the current resource's run.
        let mut first: Option<&Usage> = None;
        for u in table.usages() {
            per_resource[u.resource.index()] += count;
            match first {
                Some(f) if f.resource == u.resource => widest = widest.max(u.cycle - f.cycle),
                _ => first = Some(u),
            }
        }
    }
    let mut ii = per_resource.iter().copied().max().unwrap_or(1).max(1);
    while ii <= widest && distinct().any(|(_, t)| !t.fits_modulo(ii)) {
        ii += 1;
    }
    ii
}

/// Recurrence-constrained MII: the smallest II such that no dependence
/// circuit has positive weight `Σ delay − II · Σ distance`; i.e.
/// `RecMII = max over circuits ⌈Σ delay / Σ distance⌉`.
///
/// Read off the self-loops when they are the only circuits
/// (`self_loop_bound`); otherwise computed by binary search on II over
/// `[1, Σ positive delays]`, each probe a Bellman-Ford positive-circuit
/// check. Returns 1 for graphs without a loop-carried edge, and
/// `Σ positive delays` when a circuit of distance-0 edges is positive,
/// which no II satisfies.
pub fn rec_mii(g: &DepGraph) -> u32 {
    if let Some(rec) = self_loop_bound(g) {
        return rec;
    }
    if !g.has_recurrence() {
        return 1;
    }
    first_feasible_ii(g, 1, positive_delay_sum(g), &mut Vec::new())
}

/// The minimum initiation interval: `max(ResMII, RecMII)`.
///
/// Equal to `res_mii(g, m).max(rec_mii(g))`, but RecMII is searched for
/// only above ResMII, and only when some circuit other than a carried
/// self-loop is still positive at II = ResMII. No heap allocation on a
/// machine of at most 64 operations and 64 resources when the self-loops
/// are the only circuits, and at most one otherwise.
pub fn mii(g: &DepGraph, m: &MachineDescription) -> u32 {
    let res = res_mii(g, m);
    if let Some(rec) = self_loop_bound(g) {
        return res.max(rec);
    }
    if !g.has_recurrence() {
        return res;
    }
    let hi = positive_delay_sum(g);
    let mut dist = Vec::new();
    if hi <= i64::from(res) || !has_positive_cycle(g, i64::from(res), &mut dist) {
        return res;
    }
    first_feasible_ii(g, i64::from(res) + 1, hi, &mut dist)
}

/// Whether some circuit of distance-0 edges has positive total delay: a
/// dependence that no II satisfies. Only a distance-0 edge to the same or
/// a lower-numbered node can close such a circuit, so graphs without one
/// are answered by a scan of the edges.
pub(crate) fn has_unsatisfiable_circuit(g: &DepGraph) -> bool {
    // At II = Σ positive delays + 1, every circuit with a loop-carried
    // edge has negative weight; only distance-0 circuits can be positive.
    g.edges().iter().any(|e| e.distance == 0 && e.to <= e.from)
        && has_positive_cycle(g, positive_delay_sum(g) + 1, &mut Vec::new())
}

/// Whether some path of distance-0 edges is longer than `u32::MAX`
/// cycles. Its last operation would issue past the last cycle a start
/// time can name, at every II. Only a graph whose positive distance-0
/// delays add up past `u32::MAX` can have such a path, so other graphs
/// are answered by a scan of the edges. Meant for graphs without a
/// positive distance-0 circuit, where the relaxation settles.
pub(crate) fn has_overlong_chain(g: &DepGraph) -> bool {
    let limit = i64::from(u32::MAX);
    let zero_distance = || g.edges().iter().filter(|e| e.distance == 0);
    let positive: i64 = zero_distance().map(|e| i64::from(e.delay.max(0))).sum();
    if positive <= limit {
        return false;
    }
    let mut dist = vec![0i64; g.num_nodes()];
    for _ in 0..g.num_nodes() {
        let mut changed = false;
        for e in zero_distance() {
            let cand = dist[e.from.index()] + i64::from(e.delay);
            if cand > dist[e.to.index()] {
                dist[e.to.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist.iter().any(|&d| d > limit)
}

/// RecMII of a graph whose only circuits are loop-carried self-loops:
/// the largest `⌈delay / distance⌉` of a self-loop, at least 1. `None`
/// when some other edge does not go forward in node order.
///
/// A circuit returns to its first node, so it holds an edge to the same
/// or a lower-numbered node. When every such edge is a carried
/// self-loop, every circuit is one of them (or a walk around several, no
/// heavier than its heaviest), and a self-loop is positive exactly below
/// its own bound. The bound is at most the loop's delay, below the
/// search's `Σ positive delays` ceiling, so the search's answer is this
/// bound.
fn self_loop_bound(g: &DepGraph) -> Option<u32> {
    let mut bound = 1;
    for e in g.edges() {
        if e.to > e.from {
            continue;
        }
        if e.to < e.from || e.distance == 0 {
            return None;
        }
        if e.delay > 0 {
            let (delay, distance) = (e.delay as u32, e.distance);
            bound = bound.max(delay.div_ceil(distance));
        }
    }
    Some(bound)
}

/// The sum of positive edge delays, at least 1. No circuit with a
/// loop-carried edge is positive at this II.
fn positive_delay_sum(g: &DepGraph) -> i64 {
    g.edges()
        .iter()
        .map(|e| i64::from(e.delay.max(0)))
        .sum::<i64>()
        .max(1)
}

/// The smallest II in `lo..=hi` at which no circuit is positive, or `hi`
/// if every II in the range has one; `dist` is the probes' shared buffer.
fn first_feasible_ii(g: &DepGraph, mut lo: i64, mut hi: i64, dist: &mut Vec<i64>) -> u32 {
    while lo < hi {
        let mid = (lo + hi) / 2;
        if has_positive_cycle(g, mid, dist) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Longest-path relaxation: true iff some circuit has positive weight
/// under `w(e) = delay − ii · distance`. `dist` is working space.
fn has_positive_cycle(g: &DepGraph, ii: i64, dist: &mut Vec<i64>) -> bool {
    let n = g.num_nodes();
    dist.clear();
    dist.resize(n, 0);
    for round in 0..=n {
        let mut changed = false;
        for e in g.edges() {
            let w = i64::from(e.delay) - ii * i64::from(e.distance);
            let cand = dist[e.from.index()] + w;
            if cand > dist[e.to.index()] {
                dist[e.to.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true; // still relaxing after n rounds ⇒ positive cycle
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepGraph, DepKind};
    use rmd_machine::MachineBuilder;

    fn machine() -> MachineDescription {
        let mut b = MachineBuilder::new("m");
        let alu = b.resource("alu");
        let bus = b.resource("bus");
        b.operation("add").usage(alu, 0).usage(bus, 1).finish();
        b.operation("long").usage(alu, 0).usage(alu, 3).finish();
        b.build().expect("test setup")
    }

    #[test]
    fn res_mii_counts_contended_resource() {
        let m = machine();
        let add = m.op_by_name("add").expect("test setup");
        let mut g = DepGraph::new();
        for _ in 0..3 {
            g.add_node(add);
        }
        // 3 alu usages, 3 bus usages -> ResMII 3.
        assert_eq!(res_mii(&g, &m), 3);
    }

    #[test]
    fn res_mii_respects_self_overlap() {
        let m = machine();
        let long = m.op_by_name("long").expect("test setup");
        let mut g = DepGraph::new();
        g.add_node(long);
        // `long` uses alu at cycles 0 and 3: II=1 and II=3 collapse them;
        // II=2 is the smallest with 0 % ii != 3 % ii.
        assert_eq!(res_mii(&g, &m), 2);
    }

    #[test]
    fn rec_mii_of_simple_circuit() {
        let m = machine();
        let add = m.op_by_name("add").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(add);
        let b = g.add_node(add);
        g.add_edge(a, b, 3, 0, DepKind::Flow);
        g.add_edge(b, a, 2, 1, DepKind::Flow);
        // Circuit: delay 5, distance 1 -> RecMII 5.
        assert_eq!(rec_mii(&g), 5);
        assert_eq!(mii(&g, &m), 5);
    }

    #[test]
    fn rec_mii_takes_worst_circuit() {
        let m = machine();
        let add = m.op_by_name("add").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(add);
        let b = g.add_node(add);
        let c = g.add_node(add);
        g.add_edge(a, b, 1, 0, DepKind::Flow);
        g.add_edge(b, a, 1, 1, DepKind::Flow); // ratio 2
        g.add_edge(a, c, 4, 0, DepKind::Flow);
        g.add_edge(c, a, 4, 2, DepKind::Flow); // ratio 8/2 = 4
        assert_eq!(rec_mii(&g), 4);
    }

    #[test]
    fn mii_is_res_mii_when_rec_mii_clamps_below_it() {
        // The distance-0 self-loop is positive at every II, so RecMII
        // clamps to Σ positive delays (2), below ResMII (3).
        let m = machine();
        let add = m.op_by_name("add").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(add);
        let b = g.add_node(add);
        g.add_node(add);
        g.add_edge(a, a, 1, 0, DepKind::Flow);
        g.add_edge(a, b, 1, 1, DepKind::Flow);
        assert_eq!(rec_mii(&g), 2);
        assert_eq!(res_mii(&g, &m), 3);
        assert_eq!(mii(&g, &m), 3);
    }

    #[test]
    fn acyclic_graph_has_rec_mii_one() {
        let m = machine();
        let add = m.op_by_name("add").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(add);
        let b = g.add_node(add);
        g.add_edge(a, b, 10, 0, DepKind::Flow);
        assert_eq!(rec_mii(&g), 1);
        assert_eq!(mii(&g, &m), 2); // resource bound dominates
    }
}
