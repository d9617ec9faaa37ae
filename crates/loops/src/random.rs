//! Seeded random loop-body generation.

use crate::opset::OpSet;
use rand::rngs::StdRng;
use rand::Rng;
use rmd_machine::OpId;
use rmd_sched::{DepGraph, DepKind, NodeId};

/// Probability that a loop carries a data recurrence.
const RECURRENCE_PROB: f64 = 0.35;
/// Probability that a value op takes a second operand edge.
const SECOND_OPERAND_PROB: f64 = 0.6;

/// Parameters of the random generator.
#[derive(Clone, Copy, Debug)]
pub struct RandomLoopParams {
    /// Number of operations (excluding the implicit `brtop`).
    pub size: usize,
}

impl Default for RandomLoopParams {
    fn default() -> Self {
        RandomLoopParams { size: 16 }
    }
}

/// Generates a random, schedulable loop body: a layered DAG of loads,
/// FP arithmetic, integer bookkeeping, and stores, with optional
/// loop-carried recurrences, plus the loop-control branch.
///
/// The distribution imitates numeric Fortran bodies: roughly 30% loads,
/// 15% stores, 35% FP arithmetic, 15% address/integer ops, 5% divide
/// steps. The intra-iteration graph is acyclic by construction (edges
/// point from earlier to later nodes).
pub fn random_loop(ops: &OpSet, rng: &mut StdRng, params: RandomLoopParams) -> DepGraph {
    let n = params.size.max(1);
    let mut g = DepGraph::new();

    // brtop with its trivial self-recurrence.
    let b = g.add_node(ops.brtop);
    g.add_edge(b, b, 1, 1, DepKind::Output);

    // Choose op kinds: nodes are created in order, so "producers" for
    // data edges are simply earlier value-producing nodes.
    let mut producers: Vec<NodeId> = Vec::new();
    let mut value_nodes: Vec<NodeId> = Vec::new();
    let mut last_store: Option<NodeId> = None;

    for i in 0..n {
        let roll: f64 = rng.gen();
        let op: OpId = if i < 2 || roll < 0.30 {
            ops.load[rng.gen_range(0..2)]
        } else if roll < 0.45 && !producers.is_empty() {
            ops.store[rng.gen_range(0..2)]
        } else if roll < 0.67 {
            ops.fadd
        } else if roll < 0.77 {
            ops.fmul
        } else if roll < 0.80 {
            ops.fmuld
        } else if roll < 0.92 {
            ops.iadd
        } else if roll < 0.98 {
            ops.aadd[rng.gen_range(0..2)]
        } else {
            ops.recip
        };
        let v = g.add_node(op);

        let is_store = op == ops.store[0] || op == ops.store[1];
        let is_load = op == ops.load[0] || op == ops.load[1];
        let is_addr = op == ops.aadd[0] || op == ops.aadd[1];

        if is_addr {
            // Address increments recur with themselves.
            g.add_edge(v, v, ops.latency(op), 1, DepKind::Flow);
        }
        if !is_load && !is_addr {
            // Consume one or two earlier values.
            if let Some(&p) = pick(rng, &producers) {
                g.add_edge(p, v, ops.latency(g.op(p)), 0, DepKind::Flow);
                if rng.gen_bool(SECOND_OPERAND_PROB) {
                    if let Some(&p2) = pick(rng, &producers) {
                        if p2 != p {
                            g.add_edge(p2, v, ops.latency(g.op(p2)), 0, DepKind::Flow);
                        }
                    }
                }
            }
        }
        if is_store {
            // Keep stores to the same region ordered.
            if let Some(p) = last_store {
                if rng.gen_bool(0.5) {
                    g.add_edge(p, v, 1, 0, DepKind::Memory);
                }
            }
            last_store = Some(v);
        } else {
            producers.push(v);
            if !is_addr {
                value_nodes.push(v);
            }
        }
    }

    // Optional loop-carried recurrence: scalar recurrences in numeric
    // code stay in registers, so close the cycle through arithmetic
    // nodes only (never loads) and keep it short — from a node back to a
    // *nearby* earlier node with distance 1..=2. The backward direction
    // keeps the intra-iteration graph acyclic.
    let arith: Vec<NodeId> = value_nodes
        .iter()
        .copied()
        .filter(|&v| {
            let op = g.op(v);
            op == ops.fadd || op == ops.fmul || op == ops.fmuld || op == ops.iadd
        })
        .collect();
    if rng.gen_bool(RECURRENCE_PROB) && arith.len() >= 2 {
        let i = rng.gen_range(1..arith.len());
        let j = i.saturating_sub(rng.gen_range(1..=2)).min(i - 1);
        let (from, to) = (arith[i], arith[j]);
        let distance = rng.gen_range(1..=2);
        g.add_edge(from, to, ops.latency(g.op(from)), distance, DepKind::Flow);
    }

    debug_assert!(g.intra_iteration_acyclic());
    g
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmd_machine::models::cydra5_subset;

    #[test]
    fn generated_loops_are_structurally_valid() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        let mut rng = StdRng::seed_from_u64(7);
        for size in [1usize, 4, 16, 64, 160] {
            let g = random_loop(&ops, &mut rng, RandomLoopParams { size });
            assert_eq!(g.num_nodes(), size + 1); // + brtop
            assert!(g.intra_iteration_acyclic());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        let g1 = random_loop(&ops, &mut StdRng::seed_from_u64(42), Default::default());
        let g2 = random_loop(&ops, &mut StdRng::seed_from_u64(42), Default::default());
        assert_eq!(g1, g2);
        let g3 = random_loop(&ops, &mut StdRng::seed_from_u64(43), Default::default());
        assert_ne!(g1, g3);
    }
}
