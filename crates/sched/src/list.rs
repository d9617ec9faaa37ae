//! Operation-driven list scheduling with boundary conditions.

use crate::graph::{DepGraph, NodeId};
use crate::ims::{heights, Representation};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{BitvecModule, ContentionQuery, DiscreteModule, OpInstance, WorkCounters};

/// A dangling resource requirement from a predecessor basic block: an
/// operation issued `issue_cycle` cycles relative to this block's entry
/// (negative = before the block starts) whose reservation table may still
/// occupy resources inside the block (paper §1: "the resource
/// requirements at the beginning of a basic block consist of the union of
/// all the resource requirements dangling from predecessor blocks").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoundaryOp {
    /// The operation issued in a predecessor block.
    pub op: OpId,
    /// Its issue cycle relative to block entry (usually negative).
    pub issue_cycle: i32,
}

/// The result of list scheduling.
#[derive(Clone, Debug)]
pub struct ListResult {
    /// Issue cycle per node, relative to block entry.
    pub times: Vec<i32>,
    /// Schedule length: one past the last issue cycle.
    pub length: i32,
    /// Query-module work counters.
    pub counters: WorkCounters,
    /// The boundary operations the schedule was built around.
    pub boundary: Vec<BoundaryOp>,
}

/// An operation-driven (critical-path-first) list scheduler for acyclic
/// dependence graphs, with precise handling of dangling resource
/// requirements from predecessor blocks.
///
/// Operations are placed in order of decreasing critical-path height —
/// not in cycle order — each at the earliest contention-free cycle at or
/// after its dependence-earliest start. This is the Cydra 5 compiler's
/// operation-driven scalar scheduling model the paper cites.
///
/// # Example
///
/// ```
/// use rmd_machine::models::mips_r3000;
/// use rmd_sched::{BoundaryOp, DepGraph, DepKind, ListScheduler, Representation};
///
/// let m = mips_r3000();
/// let div = m.op_by_name("div.s").expect("test setup");
/// let alu = m.op_by_name("alu").expect("test setup");
/// let mut g = DepGraph::new();
/// g.add_node(alu);
///
/// // A divide issued 3 cycles before block entry still holds the divider.
/// let sched = ListScheduler::with_boundary(vec![BoundaryOp { op: div, issue_cycle: -3 }]);
/// let r = sched.schedule(&g, &m, Representation::Discrete);
/// rmd_sched::validate_list(&g, &m, &r).expect("test setup");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ListScheduler {
    boundary: Vec<BoundaryOp>,
}

impl ListScheduler {
    /// A scheduler with no dangling predecessors.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler seeded with dangling resource requirements.
    pub fn with_boundary(boundary: Vec<BoundaryOp>) -> Self {
        ListScheduler { boundary }
    }

    /// Schedules the acyclic graph `g` over `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has loop-carried or cyclic intra-iteration
    /// dependences (list scheduling is for acyclic blocks).
    pub fn schedule(
        &self,
        g: &DepGraph,
        machine: &MachineDescription,
        repr: Representation,
    ) -> ListResult {
        assert!(
            g.intra_iteration_acyclic() && !g.has_recurrence(),
            "list scheduling requires an acyclic graph"
        );
        let n = g.num_nodes();
        // Shift so every boundary issue lands at a nonnegative cycle.
        let shift: i64 = -self
            .boundary
            .iter()
            .map(|b| i64::from(b.issue_cycle))
            .min()
            .unwrap_or(0)
            .min(0);

        let mut module: Box<dyn ContentionQuery> = match repr {
            Representation::Discrete => Box::new(DiscreteModule::new(machine)),
            Representation::Bitvec(layout) => Box::new(BitvecModule::new(machine, layout)),
        };
        for (i, b) in self.boundary.iter().enumerate() {
            let t = (i64::from(b.issue_cycle) + shift) as u32;
            module.assign(OpInstance((n + i) as u32), b.op, t);
        }

        // Priority: critical-path height; ties broken by topological rank
        // so predecessors always precede (0-delay edges included).
        let height = heights(g, 0);
        let topo = topo_ranks(g);
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.sort_by_key(|v| (-height[v.index()], topo[v.index()], v.0));

        let mut times = vec![0i64; n];
        for v in order {
            let mut estart = shift;
            for e in g.pred_edges(v) {
                estart = estart.max(times[e.from.index()] + i64::from(e.delay));
            }
            let op = g.op(v);
            let mut t = estart as u32;
            while !module.check(op, t) {
                t += 1;
            }
            module.assign(OpInstance(v.0), op, t);
            times[v.index()] = i64::from(t);
        }

        let rel: Vec<i32> = times.iter().map(|&t| (t - shift) as i32).collect();
        ListResult {
            length: rel.iter().map(|&t| t + 1).max().unwrap_or(0),
            times: rel,
            counters: *module.counters(),
            boundary: self.boundary.clone(),
        }
    }
}

/// The schedule of a trace (a sequence of basic blocks executed in
/// order), with dangling resource requirements carried precisely across
/// every boundary.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// Per-block list-scheduling results (times relative to each block's
    /// entry).
    pub blocks: Vec<ListResult>,
    /// Absolute entry cycle of each block.
    pub entries: Vec<i64>,
    /// Total trace length in cycles (one past the last reservation).
    pub total_cycles: i64,
}

/// Schedules a trace of acyclic blocks in order, carrying each block's
/// unfinished reservations into the next block as [`BoundaryOp`]s —
/// paper §1: "the resource requirements at the beginning of a basic
/// block consist of the union of all the resource requirements dangling
/// from predecessor basic blocks."
///
/// Block `i+1` begins issuing the cycle after block `i`'s last issue;
/// any reservation table still occupying resources at that point
/// becomes a dangling requirement with a negative issue cycle.
///
/// # Panics
///
/// Panics if any block is cyclic (see [`ListScheduler::schedule`]).
pub fn schedule_trace(
    blocks: &[DepGraph],
    machine: &MachineDescription,
    repr: Representation,
) -> TraceResult {
    let mut results = Vec::with_capacity(blocks.len());
    let mut entries = Vec::with_capacity(blocks.len());
    let mut entry: i64 = 0;
    let mut dangling: Vec<BoundaryOp> = Vec::new();
    let mut total: i64 = 0;

    for g in blocks {
        entries.push(entry);
        let r = ListScheduler::with_boundary(dangling.clone()).schedule(g, machine, repr);
        // Next block starts the cycle after this block's last issue.
        let block_len = i64::from(r.length.max(1));

        // Reservations still live past the boundary: this block's ops...
        let mut next_dangling = Vec::new();
        for v in g.nodes() {
            let t = i64::from(r.times[v.index()]);
            let len = i64::from(machine.operation(g.op(v)).table().length());
            total = total.max(entry + t + len);
            if t + len > block_len {
                next_dangling.push(BoundaryOp {
                    op: g.op(v),
                    issue_cycle: (t - block_len) as i32,
                });
            }
        }
        // ...plus inherited danglers that outlive this block too.
        for b in &dangling {
            let len = i64::from(machine.operation(b.op).table().length());
            if i64::from(b.issue_cycle) + len > block_len {
                next_dangling.push(BoundaryOp {
                    op: b.op,
                    issue_cycle: (i64::from(b.issue_cycle) - block_len) as i32,
                });
            }
        }
        dangling = next_dangling;
        entry += block_len;
        total = total.max(entry);
        results.push(r);
    }

    TraceResult {
        blocks: results,
        entries,
        total_cycles: total,
    }
}

fn topo_ranks(g: &DepGraph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in g.edges() {
        indeg[e.to.index()] += 1;
    }
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut rank = vec![0usize; n];
    let mut next = 0;
    while let Some(v) = queue.pop_front() {
        rank[v] = next;
        next += 1;
        for e in g.succ_edges(NodeId(v as u32)) {
            indeg[e.to.index()] -= 1;
            if indeg[e.to.index()] == 0 {
                queue.push_back(e.to.index());
            }
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DepKind;
    use crate::validate::validate_list;
    use rmd_machine::models::mips_r3000;
    use rmd_query::WordLayout;

    #[test]
    fn respects_dependences_and_resources() {
        let m = mips_r3000();
        let load = m.op_by_name("load").expect("test setup");
        let alu = m.op_by_name("alu").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(load);
        let b = g.add_node(alu);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        let r = ListScheduler::new().schedule(&g, &m, Representation::Discrete);
        assert!(r.times[b.index()] >= r.times[a.index()] + 2);
        validate_list(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn single_issue_machine_serializes() {
        let m = mips_r3000();
        let alu = m.op_by_name("alu").expect("test setup");
        let mut g = DepGraph::new();
        for _ in 0..4 {
            g.add_node(alu);
        }
        let r = ListScheduler::new().schedule(&g, &m, Representation::Discrete);
        let mut ts = r.times.clone();
        ts.sort_unstable();
        assert_eq!(ts, vec![0, 1, 2, 3]);
        validate_list(&g, &m, &r).expect("test setup");
    }

    #[test]
    fn dangling_divider_delays_the_block() {
        let m = mips_r3000();
        let div = m.op_by_name("div.s").expect("test setup");
        let mut g = DepGraph::new();
        let d = g.add_node(div);
        // A div.s issued 4 cycles before entry holds fp-div through
        // block-relative cycle 6; a new div.s can't start until its
        // usages clear.
        let sched = ListScheduler::with_boundary(vec![BoundaryOp {
            op: div,
            issue_cycle: -4,
        }]);
        let r = sched.schedule(&g, &m, Representation::Discrete);
        assert!(r.times[d.index()] > 0, "{:?}", r.times);
        validate_list(&g, &m, &r).expect("test setup");

        // Without the dangling op it starts at 0.
        let r0 = ListScheduler::new().schedule(&g, &m, Representation::Discrete);
        assert_eq!(r0.times[d.index()], 0);
    }

    #[test]
    fn representations_agree() {
        let m = mips_r3000();
        let names = ["load", "alu", "mul.s", "add.s", "store"];
        let mut g = DepGraph::new();
        let nodes: Vec<_> = names
            .iter()
            .map(|n| g.add_node(m.op_by_name(n).expect("test setup")))
            .collect();
        g.add_edge(nodes[0], nodes[1], 2, 0, DepKind::Flow);
        g.add_edge(nodes[1], nodes[3], 1, 0, DepKind::Flow);
        g.add_edge(nodes[2], nodes[3], 4, 0, DepKind::Flow);
        g.add_edge(nodes[3], nodes[4], 2, 0, DepKind::Flow);
        let d = ListScheduler::new().schedule(&g, &m, Representation::Discrete);
        let v = ListScheduler::new().schedule(
            &g,
            &m,
            Representation::Bitvec(WordLayout::widest(64, m.num_resources())),
        );
        assert_eq!(d.times, v.times);
        validate_list(&g, &m, &d).expect("test setup");
    }

    #[test]
    fn trace_carries_dangling_reservations() {
        let m = mips_r3000();
        let div = m.op_by_name("div.s").expect("test setup");
        let alu = m.op_by_name("alu").expect("test setup");
        // Block 1: a div.s issued near its end dangles into block 2.
        let mut b1 = DepGraph::new();
        let a = b1.add_node(alu);
        let d = b1.add_node(div);
        b1.add_edge(a, d, 1, 0, DepKind::Flow);
        // Block 2: another div.s, which must wait for the divider.
        let mut b2 = DepGraph::new();
        b2.add_node(div);

        let tr = schedule_trace(&[b1.clone(), b2.clone()], &m, Representation::Discrete);
        assert_eq!(tr.blocks.len(), 2);
        assert_eq!(tr.entries[0], 0);
        assert!(tr.entries[1] > 0);
        // The divider is busy across the boundary: block 2's div can't
        // start at its entry cycle.
        assert!(
            tr.blocks[1].times[0] > 0,
            "block-2 div at {}",
            tr.blocks[1].times[0]
        );
        // And each block validates with its inherited boundary.
        crate::validate_list(&b1, &m, &tr.blocks[0]).expect("test setup");
        crate::validate_list(&b2, &m, &tr.blocks[1]).expect("test setup");
        assert!(tr.total_cycles >= tr.entries[1]);
    }

    #[test]
    fn trace_reservations_never_collide_globally() {
        // Simulate all blocks' reservations on one absolute timeline and
        // assert exclusivity — the global form of boundary correctness.
        let m = mips_r3000();
        let names = ["load", "mul.s", "div.s", "alu", "store", "div.s"];
        let blocks: Vec<DepGraph> = names
            .chunks(2)
            .map(|pair| {
                let mut g = DepGraph::new();
                let x = g.add_node(m.op_by_name(pair[0]).expect("test setup"));
                let y = g.add_node(m.op_by_name(pair[1]).expect("test setup"));
                g.add_edge(x, y, 1, 0, DepKind::Flow);
                g
            })
            .collect();
        let tr = schedule_trace(&blocks, &m, Representation::Discrete);
        let mut taken = std::collections::HashMap::new();
        for (bi, (g, r)) in blocks.iter().zip(&tr.blocks).enumerate() {
            for v in g.nodes() {
                let abs = tr.entries[bi] + i64::from(r.times[v.index()]);
                for u in m.operation(g.op(v)).table().usages() {
                    let key = (u.resource.0, abs + i64::from(u.cycle));
                    let prev = taken.insert(key, (bi, v));
                    assert!(prev.is_none(), "{key:?} reserved twice: {prev:?}");
                }
            }
        }
    }

    #[test]
    fn zero_delay_ties_schedule_predecessor_first() {
        let m = mips_r3000();
        let alu = m.op_by_name("alu").expect("test setup");
        let mut g = DepGraph::new();
        let a = g.add_node(alu);
        let b = g.add_node(alu);
        g.add_edge(a, b, 0, 0, DepKind::Anti);
        let r = ListScheduler::new().schedule(&g, &m, Representation::Discrete);
        assert!(r.times[b.index()] >= r.times[a.index()]);
        validate_list(&g, &m, &r).expect("test setup");
    }
}
