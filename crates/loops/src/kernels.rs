//! Livermore-style kernel dependence-graph templates.
//!
//! Each template builds the dependence graph of one classic numeric
//! inner loop, parameterized by an unroll factor so the suite covers the
//! paper's size range. Memory ports and address units alternate between
//! unrolled copies the way a VLIW compiler would balance them.

use crate::opset::OpSet;
use rmd_sched::{DepGraph, DepKind, NodeId};

/// Adds the loop-control branch (every Cydra modulo loop has one
/// `brtop`).
fn add_brtop(g: &mut DepGraph, ops: &OpSet) -> NodeId {
    let b = g.add_node(ops.brtop);
    // brtop recurs with itself: one branch per iteration.
    g.add_edge(b, b, 1, 1, DepKind::Output);
    b
}

/// An address-increment chain feeding a memory op: `a += stride` each
/// iteration (a distance-1 recurrence on the address unit).
fn add_addr(g: &mut DepGraph, ops: &OpSet, unit: usize) -> NodeId {
    let a = g.add_node(ops.aadd[unit % 2]);
    g.add_edge(a, a, ops.latency(ops.aadd[unit % 2]), 1, DepKind::Flow);
    a
}

fn flow(g: &mut DepGraph, ops: &OpSet, from: NodeId, to: NodeId) {
    let d = ops.latency(g.op(from));
    g.add_edge(from, to, d, 0, DepKind::Flow);
}

/// LFK 1 (hydro fragment): `x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])`.
pub fn hydro(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let ay = add_addr(&mut g, ops, u);
        let az = add_addr(&mut g, ops, u + 1);
        let ly = g.add_node(ops.load[u % 2]);
        let lz0 = g.add_node(ops.load[(u + 1) % 2]);
        let lz1 = g.add_node(ops.load[u % 2]);
        flow(&mut g, ops, ay, ly);
        flow(&mut g, ops, az, lz0);
        flow(&mut g, ops, az, lz1);
        let m0 = g.add_node(ops.fmul); // r*z[k+10]
        let m1 = g.add_node(ops.fmul); // t*z[k+11]
        flow(&mut g, ops, lz0, m0);
        flow(&mut g, ops, lz1, m1);
        let s0 = g.add_node(ops.fadd);
        flow(&mut g, ops, m0, s0);
        flow(&mut g, ops, m1, s0);
        let m2 = g.add_node(ops.fmul); // y[k]*(...)
        flow(&mut g, ops, ly, m2);
        flow(&mut g, ops, s0, m2);
        let s1 = g.add_node(ops.fadd); // q + ...
        flow(&mut g, ops, m2, s1);
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, s1, st);
        flow(&mut g, ops, ay, st);
    }
    g
}

/// LFK 3 (inner product): `q += z[k] * x[k]` — a reduction recurrence.
/// Unrolled copies use independent partial-sum accumulators (the modulo
/// scheduling idiom), so the recurrence stays one fadd deep.
pub fn inner_product(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let lx = g.add_node(ops.load[u % 2]);
        let lz = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, lx);
        flow(&mut g, ops, a, lz);
        let m = g.add_node(ops.fmul);
        flow(&mut g, ops, lx, m);
        flow(&mut g, ops, lz, m);
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, m, s);
        // Each partial sum carries across iterations independently.
        g.add_edge(s, s, ops.latency(ops.fadd), 1, DepKind::Flow);
    }
    g
}

/// LFK 5 (tri-diagonal elimination): `x[i] = z[i] * (y[i] - x[i-1])` — a
/// tight first-order recurrence through an add and a multiply.
pub fn tridiag(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    let mut carried: Option<NodeId> = None;
    let mut first_sub: Option<NodeId> = None;
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let ly = g.add_node(ops.load[u % 2]);
        let lz = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, ly);
        flow(&mut g, ops, a, lz);
        let sub = g.add_node(ops.fadd); // y[i] - x[i-1]
        flow(&mut g, ops, ly, sub);
        if let Some(prev) = carried {
            flow(&mut g, ops, prev, sub);
        }
        let mul = g.add_node(ops.fmul);
        flow(&mut g, ops, lz, mul);
        flow(&mut g, ops, sub, mul);
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, mul, st);
        if first_sub.is_none() {
            first_sub = Some(sub);
        }
        carried = Some(mul);
    }
    // x[i-1] crosses the iteration boundary.
    g.add_edge(
        carried.expect("set"),
        first_sub.expect("set"),
        ops.latency(ops.fmul),
        1,
        DepKind::Flow,
    );
    g
}

/// LFK 7 (equation of state): a wide expression tree, no recurrence —
/// high ILP, resource-bound.
pub fn state_eq(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let mut terms = Vec::new();
        for i in 0..4 {
            let l = g.add_node(ops.load[(u + i) % 2]);
            flow(&mut g, ops, a, l);
            let m = g.add_node(ops.fmul);
            flow(&mut g, ops, l, m);
            terms.push(m);
        }
        // Balanced reduction tree of fadds.
        while terms.len() > 1 {
            let mut next = Vec::new();
            for pair in terms.chunks(2) {
                if pair.len() == 2 {
                    let s = g.add_node(ops.fadd);
                    flow(&mut g, ops, pair[0], s);
                    flow(&mut g, ops, pair[1], s);
                    next.push(s);
                } else {
                    next.push(pair[0]);
                }
            }
            terms = next;
        }
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, terms[0], st);
    }
    g
}

/// LFK 11 (first sum): `x[k] = x[k-1] + y[k]` — the tightest possible
/// recurrence.
pub fn first_sum(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    let mut carried: Option<NodeId> = None;
    let mut first: Option<NodeId> = None;
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let ly = g.add_node(ops.load[u % 2]);
        flow(&mut g, ops, a, ly);
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, ly, s);
        if let Some(prev) = carried {
            flow(&mut g, ops, prev, s);
        }
        let st = g.add_node(ops.store[(u + 1) % 2]);
        flow(&mut g, ops, s, st);
        if first.is_none() {
            first = Some(s);
        }
        carried = Some(s);
    }
    g.add_edge(
        carried.expect("set"),
        first.expect("set"),
        ops.latency(ops.fadd),
        1,
        DepKind::Flow,
    );
    g
}

/// LFK 12 (first difference): `x[k] = y[k+1] - y[k]` — no recurrence,
/// loads dominate.
pub fn first_diff(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let l0 = g.add_node(ops.load[u % 2]);
        let l1 = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, l0);
        flow(&mut g, ops, a, l1);
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, l0, s);
        flow(&mut g, ops, l1, s);
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, s, st);
    }
    g
}

/// A divide-heavy kernel (`w[i] = u[i] / v[i]` via reciprocal Newton
/// iteration, the Cydra's idiom).
pub fn divide_kernel(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let lu = g.add_node(ops.load[u % 2]);
        let lv = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, lu);
        flow(&mut g, ops, a, lv);
        let r0 = g.add_node(ops.recip); // seed
        flow(&mut g, ops, lv, r0);
        // One Newton step: r1 = r0 * (2 - v * r0)
        let m0 = g.add_node(ops.fmul);
        flow(&mut g, ops, lv, m0);
        flow(&mut g, ops, r0, m0);
        let s0 = g.add_node(ops.fadd);
        flow(&mut g, ops, m0, s0);
        let m1 = g.add_node(ops.fmul);
        flow(&mut g, ops, r0, m1);
        flow(&mut g, ops, s0, m1);
        // w = u * r1
        let m2 = g.add_node(ops.fmul);
        flow(&mut g, ops, lu, m2);
        flow(&mut g, ops, m1, m2);
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, m2, st);
    }
    g
}

/// Double-precision matrix-multiply inner loop fragment:
/// `c += a[i] * b[i]` in double precision, with independent partial-sum
/// accumulators per unrolled copy.
pub fn dmatmul(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let la = g.add_node(ops.load[u % 2]);
        let lb = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, la);
        flow(&mut g, ops, a, lb);
        let m = g.add_node(ops.fmuld);
        flow(&mut g, ops, la, m);
        flow(&mut g, ops, lb, m);
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, m, s);
        g.add_edge(s, s, ops.latency(ops.fadd), 1, DepKind::Flow);
    }
    g
}

/// A copy loop with integer bookkeeping: `b[i] = a[i]; n += 1` — the
/// smallest realistic bodies (2–5 ops at unroll 1).
pub fn copy_loop(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    let mut prev_store: Option<NodeId> = None;
    for u in 0..unroll.max(1) {
        let l = g.add_node(ops.load[u % 2]);
        let st = g.add_node(ops.store[(u + 1) % 2]);
        flow(&mut g, ops, l, st);
        if let Some(p) = prev_store {
            // Keep stores ordered (same array).
            g.add_edge(p, st, 1, 0, DepKind::Memory);
        }
        prev_store = Some(st);
    }
    g
}

/// LFK 2 (ICCG, incomplete Cholesky conjugate gradient): a log-depth
/// gather-and-combine — deep dependence chains, no recurrence.
pub fn iccg(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        // Gather 4 pairs, combine pairwise, then once more.
        let mut level: Vec<NodeId> = Vec::new();
        for i in 0..4 {
            let lx = g.add_node(ops.load[(u + i) % 2]);
            let lv = g.add_node(ops.load[(u + i + 1) % 2]);
            flow(&mut g, ops, a, lx);
            flow(&mut g, ops, a, lv);
            let m = g.add_node(ops.fmul);
            flow(&mut g, ops, lx, m);
            flow(&mut g, ops, lv, m);
            level.push(m);
        }
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let s = g.add_node(ops.fadd);
                flow(&mut g, ops, pair[0], s);
                if pair.len() == 2 {
                    flow(&mut g, ops, pair[1], s);
                }
                next.push(s);
            }
            level = next;
        }
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, level[0], st);
    }
    g
}

/// LFK 19 (general linear recurrence equations): a *two-deep* carried
/// recurrence — stiffer than first_sum, II is recurrence-bound.
pub fn linear_recurrence(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    let mut carried: Option<NodeId> = None;
    let mut first_mul: Option<NodeId> = None;
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let lb = g.add_node(ops.load[u % 2]);
        let lc = g.add_node(ops.load[(u + 1) % 2]);
        flow(&mut g, ops, a, lb);
        flow(&mut g, ops, a, lc);
        // stb = sb[k] - stb_prev * sa[k]: multiply then subtract, both on
        // the carried value.
        let m = g.add_node(ops.fmul);
        flow(&mut g, ops, lb, m);
        if let Some(prev) = carried {
            flow(&mut g, ops, prev, m);
        }
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, lc, s);
        flow(&mut g, ops, m, s);
        let st = g.add_node(ops.store[u % 2]);
        flow(&mut g, ops, s, st);
        if first_mul.is_none() {
            first_mul = Some(m);
        }
        carried = Some(s);
    }
    // The carried value crosses the iteration into the first multiply:
    // RecMII = fmul + fadd latency.
    g.add_edge(
        carried.expect("set"),
        first_mul.expect("set"),
        ops.latency(ops.fadd),
        1,
        DepKind::Flow,
    );
    g
}

/// LFK 23 (2-D implicit hydrodynamics fragment): a wide body with a
/// carried recurrence through several arithmetic stages.
pub fn hydro2d(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    let mut carried: Option<NodeId> = None;
    let mut first: Option<NodeId> = None;
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let mut terms = Vec::new();
        for i in 0..3 {
            let l = g.add_node(ops.load[(u + i) % 2]);
            flow(&mut g, ops, a, l);
            let m = g.add_node(ops.fmul);
            flow(&mut g, ops, l, m);
            terms.push(m);
        }
        let s0 = g.add_node(ops.fadd);
        flow(&mut g, ops, terms[0], s0);
        flow(&mut g, ops, terms[1], s0);
        let s1 = g.add_node(ops.fadd);
        flow(&mut g, ops, s0, s1);
        flow(&mut g, ops, terms[2], s1);
        // qa depends on the previous iteration's za through a multiply.
        let m2 = g.add_node(ops.fmul);
        flow(&mut g, ops, s1, m2);
        if let Some(prev) = carried {
            flow(&mut g, ops, prev, m2);
        }
        let st = g.add_node(ops.store[(u + 1) % 2]);
        flow(&mut g, ops, m2, st);
        if first.is_none() {
            first = Some(m2);
        }
        carried = Some(m2);
    }
    g.add_edge(
        carried.expect("set"),
        first.expect("set"),
        ops.latency(ops.fmul),
        1,
        DepKind::Flow,
    );
    g
}

/// A Newton-iteration square-root loop (`y += sqrt-step`): recip-bound,
/// exercising the iterative datapath class.
pub fn sqrt_newton(ops: &OpSet, unroll: usize) -> DepGraph {
    let mut g = DepGraph::new();
    add_brtop(&mut g, ops);
    for u in 0..unroll.max(1) {
        let a = add_addr(&mut g, ops, u);
        let l = g.add_node(ops.load[u % 2]);
        flow(&mut g, ops, a, l);
        let r0 = g.add_node(ops.recip);
        flow(&mut g, ops, l, r0);
        let m0 = g.add_node(ops.fmul);
        flow(&mut g, ops, l, m0);
        flow(&mut g, ops, r0, m0);
        let s = g.add_node(ops.fadd);
        flow(&mut g, ops, m0, s);
        let st = g.add_node(ops.store[(u + 1) % 2]);
        flow(&mut g, ops, s, st);
    }
    g
}

/// A kernel constructor: builds a dependence graph of roughly the given
/// size over the machine's operation set.
pub type KernelFn = fn(&OpSet, usize) -> DepGraph;

/// All kernel templates as `(name, constructor)` pairs.
pub fn all() -> Vec<(&'static str, KernelFn)> {
    vec![
        ("hydro", hydro as fn(&OpSet, usize) -> DepGraph),
        ("inner_product", inner_product),
        ("tridiag", tridiag),
        ("state_eq", state_eq),
        ("first_sum", first_sum),
        ("first_diff", first_diff),
        ("divide", divide_kernel),
        ("dmatmul", dmatmul),
        ("copy", copy_loop),
        ("iccg", iccg),
        ("linear_rec", linear_recurrence),
        ("hydro2d", hydro2d),
        ("sqrt_newton", sqrt_newton),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::cydra5_subset;

    #[test]
    fn all_kernels_build_valid_graphs() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        for (name, f) in all() {
            for unroll in [1usize, 2, 4] {
                let g = f(&ops, unroll);
                assert!(g.num_nodes() >= 2, "{name}@{unroll}");
                assert!(
                    g.intra_iteration_acyclic(),
                    "{name}@{unroll} must be acyclic within an iteration"
                );
            }
        }
    }

    #[test]
    fn recurrences_where_expected() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        assert!(inner_product(&ops, 1).has_recurrence());
        assert!(tridiag(&ops, 2).has_recurrence());
        assert!(first_sum(&ops, 1).has_recurrence());
        assert!(linear_recurrence(&ops, 2).has_recurrence());
        assert!(hydro2d(&ops, 1).has_recurrence());
        assert!(!copy_loop(&ops, 2).has_recurrence());
    }

    #[test]
    fn unrolling_scales_size() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        let s1 = hydro(&ops, 1).num_nodes();
        let s4 = hydro(&ops, 4).num_nodes();
        assert!(s4 > 3 * s1, "unroll 4 ({s4}) vs 1 ({s1})");
    }
}
