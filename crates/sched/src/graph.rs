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

/// Ends an adjacency chain in [`DepGraph`]'s link arrays.
const END: u32 = u32::MAX;
/// Chain direction: index into a node's or an edge's link pair.
const OUT: usize = 0;
const IN: usize = 1;

/// A dependence graph over operations of some machine description.
///
/// Node ids are dense and double as the scheduler's
/// [`OpInstance`](rmd_query::OpInstance) ids.
///
/// Adjacency is forward-star, in flat arrays beside the nodes and
/// edges: each node holds the first and last edge of its outgoing
/// (`OUT`) and incoming (`IN`) chains, and each edge the next edge out
/// of its source and into its sink, with `END` closing a chain. A
/// graph owns five heap arrays whatever its size, and the chains keep
/// insertion order, so [`succ_edges`](Self::succ_edges) and
/// [`pred_edges`](Self::pred_edges) list edges in the order they were
/// added. The links are a function of the nodes and edges, so the
/// derived equality is over content.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DepGraph {
    ops: Vec<OpId>,
    edges: Vec<Edge>,
    /// Per node, the first and the last edge of each chain.
    first: Vec<[u32; 2]>,
    last: Vec<[u32; 2]>,
    /// Per edge, the next edge of each chain it is on.
    next: Vec<[u32; 2]>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph while retaining every allocation — all five
    /// arrays are truncated and keep their capacity, so a long-running
    /// caller (the serve daemon rebuilds a graph per request) can reuse
    /// one `DepGraph` without churning the allocator. A
    /// cleared-and-refilled graph is indistinguishable from a freshly
    /// built one.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.edges.clear();
        self.first.clear();
        self.last.clear();
        self.next.clear();
    }

    /// Adds a node executing operation `op`; returns its id.
    pub fn add_node(&mut self, op: OpId) -> NodeId {
        let i = self.ops.len();
        self.ops.push(op);
        self.first.push([END; 2]);
        self.last.push([END; 2]);
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
        self.next.push([END; 2]);
        for (dir, n) in [(OUT, from), (IN, to)] {
            let n = n.index();
            match self.last[n][dir] {
                END => self.first[n][dir] = idx,
                tail => self.next[tail as usize][dir] = idx,
            }
            self.last[n][dir] = idx;
        }
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

    /// Outgoing edges of `n`, in insertion order.
    pub fn succ_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.chain(n, OUT)
    }

    /// Incoming edges of `n`, in insertion order.
    pub fn pred_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.chain(n, IN)
    }

    /// Walks `n`'s chain in direction `dir`.
    fn chain(&self, n: NodeId, dir: usize) -> impl Iterator<Item = &Edge> {
        let mut cur = self.first[n.index()][dir];
        std::iter::from_fn(move || {
            // `END` indexes past every edge, which closes the chain.
            let e = self.edges.get(cur as usize)?;
            cur = self.next[cur as usize][dir];
            Some(e)
        })
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
            for e in self.succ_edges(NodeId(v as u32)) {
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

    /// Asserts that every node's `succ_edges` and `pred_edges` are the
    /// edges that leave and enter it, in the order `edges()` holds them.
    /// A macro so that it also runs on `rmd_loops` graphs, whose
    /// `DepGraph` comes from that crate's own build of this one.
    macro_rules! assert_chains_follow_edges {
        ($g:expr) => {{
            let g = &$g;
            for v in g.nodes() {
                let succs: Vec<_> = g.succ_edges(v).collect();
                let want: Vec<_> = g.edges().iter().filter(|e| e.from == v).collect();
                assert_eq!(succs, want, "succ_edges({v:?})");
                let preds: Vec<_> = g.pred_edges(v).collect();
                let want: Vec<_> = g.edges().iter().filter(|e| e.to == v).collect();
                assert_eq!(preds, want, "pred_edges({v:?})");
            }
        }};
    }

    /// `(endpoint, delay)` of each edge in a chain, for exact sequences.
    fn hops<'a>(
        chain: impl Iterator<Item = &'a Edge>,
        far: fn(&Edge) -> NodeId,
    ) -> Vec<(NodeId, i32)> {
        chain.map(|e| (far(e), e.delay)).collect()
    }

    #[test]
    fn chains_keep_insertion_order() {
        // Self-edges, parallel edges (one an exact repeat), an edgeless
        // node, and edges added between node additions.
        let mut g = DepGraph::new();
        let a = g.add_node(op(0));
        g.add_edge(a, a, 1, 1, DepKind::Output);
        let b = g.add_node(op(1));
        let lonely = g.add_node(op(2));
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(a, b, 3, 0, DepKind::Anti);
        let c = g.add_node(op(3));
        g.add_edge(c, b, 4, 0, DepKind::Memory);
        g.add_edge(b, a, 5, 1, DepKind::Flow);
        g.add_edge(a, b, 2, 0, DepKind::Flow);
        g.add_edge(c, c, 6, 2, DepKind::Output);
        assert_chains_follow_edges!(g);
        let to = |e: &Edge| e.to;
        let from = |e: &Edge| e.from;
        assert_eq!(hops(g.succ_edges(a), to), [(a, 1), (b, 2), (b, 3), (b, 2)]);
        assert_eq!(hops(g.pred_edges(a), from), [(a, 1), (b, 5)]);
        assert_eq!(
            hops(g.pred_edges(b), from),
            [(a, 2), (a, 3), (c, 4), (a, 2)]
        );
        assert_eq!(hops(g.succ_edges(c), to), [(b, 4), (c, 6)]);
        assert_eq!(hops(g.pred_edges(c), from), [(c, 6)]);
        assert_eq!(
            g.succ_edges(lonely).count() + g.pred_edges(lonely).count(),
            0
        );
    }

    #[test]
    fn chains_follow_edges_on_seeded_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rmd_loops::random::{random_loop, RandomLoopParams};

        let m = rmd_machine::models::cydra5_subset();
        let ops = rmd_loops::OpSet::for_cydra_subset(&m);
        let mut rng = StdRng::seed_from_u64(0x0F5A);
        for size in 1..=160 {
            assert_chains_follow_edges!(random_loop(&ops, &mut rng, RandomLoopParams { size }));
        }
        // Node and edge additions interleaved at random, self and
        // parallel edges included.
        for _ in 0..200 {
            let mut g = DepGraph::new();
            g.add_node(op(0));
            for step in 0..rng.gen_range(0..120u32) {
                if rng.gen_bool(0.25) {
                    g.add_node(op(step));
                } else {
                    let n = g.num_nodes() as u32;
                    let from = NodeId(rng.gen_range(0..n));
                    let to = NodeId(rng.gen_range(0..n));
                    g.add_edge(from, to, step as i32, step % 3, DepKind::Flow);
                }
            }
            assert_chains_follow_edges!(g);
        }
    }

    #[test]
    fn clear_retains_capacity_and_behaves_like_fresh() {
        // Node i feeds (3i + 1) mod n, itself, and twice (i + 1) mod n.
        fn fill(g: &mut DepGraph, n: u32, base: u32) {
            for i in 0..n {
                g.add_node(op(base + i));
            }
            for i in 0..n {
                let (v, d) = (NodeId(i), i as i32);
                g.add_edge(v, NodeId((3 * i + 1) % n), d, 0, DepKind::Flow);
                g.add_edge(v, v, d, 1, DepKind::Output);
                g.add_edge(v, NodeId((i + 1) % n), d, 1, DepKind::Anti);
                g.add_edge(v, NodeId((i + 1) % n), d + 1, 2, DepKind::Memory);
            }
        }
        let mut g = DepGraph::new();
        fill(&mut g, 8, 0);
        let caps = |g: &DepGraph| {
            [
                g.ops.capacity(),
                g.edges.capacity(),
                g.first.capacity(),
                g.last.capacity(),
                g.next.capacity(),
            ]
        };
        let before = caps(&g);
        g.clear();
        assert_eq!((g.num_nodes(), g.num_edges()), (0, 0));
        assert_eq!(caps(&g), before, "clear keeps every allocation");
        // Refill smaller, then larger than the first fill: the refilled
        // graph equals a fresh one node for node and edge for edge.
        for (n, base) in [(3, 5), (13, 7)] {
            g.clear();
            fill(&mut g, n, base);
            let mut fresh = DepGraph::new();
            fill(&mut fresh, n, base);
            assert_eq!(g, fresh);
            assert_eq!(g.edges(), fresh.edges());
            for v in fresh.nodes() {
                assert_eq!(g.op(v), fresh.op(v));
                let got: Vec<_> = g.succ_edges(v).collect();
                assert_eq!(got, fresh.succ_edges(v).collect::<Vec<_>>(), "succ {v:?}");
                let got: Vec<_> = g.pred_edges(v).collect();
                assert_eq!(got, fresh.pred_edges(v).collect::<Vec<_>>(), "pred {v:?}");
            }
            assert_chains_follow_edges!(g);
            assert!(g.has_recurrence());
        }
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
