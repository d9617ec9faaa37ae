//! Dependence graphs with loop-carried edges.

use core::fmt;
use rmd_machine::OpId;

/// Index of a node (operation instance) in a [`DepGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The dependence kind — informational; the scheduler only interprets
/// `(delay, distance)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// True (read-after-write) dependence.
    Flow,
    /// Anti (write-after-read) dependence.
    Anti,
    /// Output (write-after-write) dependence.
    Output,
    /// Memory (load/store ordering) dependence.
    Memory,
}

/// A dependence edge: in a modulo schedule with initiation interval II,
/// it imposes `t(to) ≥ t(from) + delay − II · distance`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Sink node.
    pub to: NodeId,
    /// Latency in cycles (may be 0 for anti dependences).
    pub delay: i32,
    /// Iteration distance: 0 for intra-iteration, ≥ 1 for loop-carried.
    pub distance: u32,
    /// Dependence kind.
    pub kind: DepKind,
}

/// A dependence graph over operations of some machine description.
///
/// Node ids are dense and double as the scheduler's
/// [`OpInstance`](rmd_query::OpInstance) ids.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    ops: Vec<OpId>,
    edges: Vec<Edge>,
    /// Adjacency arenas. May be longer than `ops` after
    /// [`clear`](Self::clear) — only the first `ops.len()` entries are
    /// live; [`add_node`](Self::add_node) re-clears slots lazily so
    /// their capacity is reused.
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
}

/// Equality is over the graph's content (nodes and edges); the
/// adjacency arenas are derived data and may hold extra retained
/// capacity after [`DepGraph::clear`].
impl PartialEq for DepGraph {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops && self.edges == other.edges
    }
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph while retaining every allocation — the node
    /// and edge vectors and the per-node adjacency arenas keep their
    /// capacity, so a long-running caller (the serve daemon rebuilds a
    /// graph per request) can reuse one `DepGraph` without churning
    /// the allocator. A cleared-and-refilled graph is indistinguishable
    /// from a freshly built one.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.edges.clear();
        // succs/preds entries are re-cleared lazily in add_node.
    }

    /// Adds a node executing operation `op`; returns its id.
    pub fn add_node(&mut self, op: OpId) -> NodeId {
        let i = self.ops.len();
        self.ops.push(op);
        if i < self.succs.len() {
            self.succs[i].clear();
            self.preds[i].clear();
        } else {
            self.succs.push(Vec::new());
            self.preds.push(Vec::new());
        }
        NodeId(i as u32)
    }

    /// Adds a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, delay: i32, distance: u32, kind: DepKind) {
        assert!(from.index() < self.ops.len() && to.index() < self.ops.len());
        let idx = self.edges.len() as u32;
        self.edges.push(Edge {
            from,
            to,
            delay,
            distance,
            kind,
        });
        self.succs[from.index()].push(idx);
        self.preds[to.index()].push(idx);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The operation of node `n`.
    #[inline]
    pub fn op(&self, n: NodeId) -> OpId {
        self.ops[n.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.ops.len() as u32).map(NodeId)
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edges of `n`.
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.succs[n.index()]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Incoming edges of `n`.
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.preds[n.index()]
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Whether the graph has any loop-carried edge.
    pub fn has_recurrence(&self) -> bool {
        self.edges.iter().any(|e| e.distance > 0)
    }

    /// Whether the intra-iteration subgraph (distance-0 edges) is acyclic
    /// — a structural sanity check for generated workloads.
    pub fn intra_iteration_acyclic(&self) -> bool {
        // Kahn's algorithm over distance-0 edges.
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.distance == 0 {
                indeg[e.to.index()] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &ei in &self.succs[v] {
                let e = &self.edges[ei as usize];
                if e.distance == 0 {
                    indeg[e.to.index()] -= 1;
                    if indeg[e.to.index()] == 0 {
                        queue.push(e.to.index());
                    }
                }
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u32) -> OpId {
        OpId(i)
    }

    #[test]
    fn build_and_query_adjacency() {
        let mut g = DepGraph::new();
        let a = g.add_node(op(0));
        let b = g.add_node(op(1));
        let c = g.add_node(op(0));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 1, 0, DepKind::Flow);
        g.add_edge(c, a, 1, 1, DepKind::Flow); // recurrence
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.succ_edges(a).count(), 1);
        assert_eq!(g.pred_edges(a).count(), 1);
        assert_eq!(g.op(c), op(0));
        assert!(g.has_recurrence());
    }

    #[test]
    fn clear_retains_capacity_and_behaves_like_fresh() {
        let mut g = DepGraph::new();
        let a = g.add_node(op(0));
        let b = g.add_node(op(1));
        let c = g.add_node(op(2));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(b, c, 1, 0, DepKind::Flow);
        g.clear();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        // Refill with a *smaller* graph: stale adjacency beyond the new
        // node count must not leak into queries or equality.
        let a = g.add_node(op(5));
        let b = g.add_node(op(6));
        g.add_edge(b, a, 3, 1, DepKind::Anti);
        let mut fresh = DepGraph::new();
        let fa = fresh.add_node(op(5));
        let fb = fresh.add_node(op(6));
        fresh.add_edge(fb, fa, 3, 1, DepKind::Anti);
        assert_eq!(g, fresh);
        assert_eq!(g.succ_edges(b).count(), 1);
        assert_eq!(g.pred_edges(a).count(), 1);
        assert_eq!(g.succ_edges(a).count(), 0, "stale adjacency cleared");
        assert!(g.has_recurrence());
    }

    #[test]
    fn acyclicity_check_ignores_carried_edges() {
        let mut g = DepGraph::new();
        let a = g.add_node(op(0));
        let b = g.add_node(op(1));
        g.add_edge(a, b, 1, 0, DepKind::Flow);
        g.add_edge(b, a, 1, 1, DepKind::Anti);
        assert!(g.intra_iteration_acyclic());
        g.add_edge(b, a, 0, 0, DepKind::Anti);
        assert!(!g.intra_iteration_acyclic());
    }
}
