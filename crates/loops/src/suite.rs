//! The deterministic 1327-loop benchmark suite.

use crate::kernels;
use crate::opset::OpSet;
use crate::random::{random_loop, RandomLoopParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmd_sched::DepGraph;

/// One benchmark loop: a named dependence graph.
#[derive(Clone, Debug)]
pub struct Loop {
    /// A human-readable identifier (template name + parameters, or the
    /// random seed index).
    pub name: String,
    /// The dependence graph (ops of the Cydra 5 benchmark subset).
    pub graph: DepGraph,
}

/// Builds a deterministic suite of `count` loops (the paper uses 1327)
/// from kernel templates at varying unroll factors plus random bodies.
/// The first two loops are always the pinned extremes, `copy@1` and
/// `state_eq@12`, so a suite of fewer than two loops is a prefix of them.
///
/// The size distribution is tuned to the paper's Table 5: smallest loop
/// 2 operations, mean ≈ 17.5, largest capped at 161.
pub fn suite(ops: &OpSet, count: usize, seed: u64) -> Vec<Loop> {
    let mut rng = StdRng::seed_from_u64(seed);
    let templates = kernels::all();
    // Each template's size at unroll 1 picks its unroll factor below;
    // probing it draws no random numbers, so once per template will do.
    let bases: Vec<usize> = templates
        .iter()
        .map(|(_, f)| f(ops, 1).num_nodes().max(2))
        .collect();
    let mut loops = Vec::with_capacity(count);

    // Pin the extremes so every suite spans the paper's range:
    // a 2-op copy loop and one near-161-op unrolled kernel.
    let pinned = [
        Loop {
            name: "copy@1".into(),
            graph: minimal_copy(ops),
        },
        Loop {
            name: "state_eq@12".into(),
            graph: kernels::state_eq(ops, 12), // 157 ops, near the 161 cap
        },
    ];
    loops.extend(pinned.into_iter().take(count));

    while loops.len() < count {
        let i = loops.len();
        if rng.gen_bool(0.45) {
            // Kernel template at a size-targeted unroll factor.
            let k = rng.gen_range(0..templates.len());
            let (name, f) = templates[k];
            let target = sample_size(&mut rng);
            let unroll = (target / bases[k]).clamp(1, 24);
            let g = f(ops, unroll);
            if g.num_nodes() <= 161 {
                loops.push(Loop {
                    name: format!("{name}@{unroll}"),
                    graph: g,
                });
            }
        } else {
            let size = sample_size(&mut rng).clamp(1, 160);
            let g = random_loop(ops, &mut rng, RandomLoopParams { size });
            loops.push(Loop {
                name: format!("rand#{i}"),
                graph: g,
            });
        }
    }
    loops
}

/// A 2-operation loop body (the paper's Table 5 minimum).
fn minimal_copy(ops: &OpSet) -> DepGraph {
    use rmd_sched::DepKind;
    let mut g = DepGraph::new();
    let l = g.add_node(ops.load[0]);
    let s = g.add_node(ops.store[1]);
    g.add_edge(l, s, ops.latency(ops.load[0]), 0, DepKind::Flow);
    g
}

/// Log-normal-ish size sample matching Table 5 (mean ≈ 17.5, long tail).
fn sample_size(rng: &mut StdRng) -> usize {
    // Box-Muller normal from two uniforms.
    let u1: f64 = rng.gen_range(1e-9..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let x = (2.35 + 0.75 * z).exp(); // median ≈ 10.5, mean ≈ 14
    (x.round() as usize).clamp(2, 161)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::cydra5_subset;

    fn the_suite() -> Vec<Loop> {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        suite(&ops, 1327, 0xC5)
    }

    #[test]
    fn suite_matches_table_5_shape() {
        let loops = the_suite();
        assert_eq!(loops.len(), 1327);
        let sizes: Vec<usize> = loops.iter().map(|l| l.graph.num_nodes()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert_eq!(min, 2, "paper: smallest loop has 2 ops");
        assert!(max <= 161, "paper: largest loop has 161 ops");
        assert!(max > 100, "suite should include large loops, max={max}");
        assert!(
            (10.0..=25.0).contains(&avg),
            "paper mean is 17.54, got {avg:.2}"
        );
    }

    #[test]
    fn suite_is_deterministic() {
        let m = cydra5_subset();
        let ops = OpSet::for_cydra_subset(&m);
        let a = suite(&ops, 50, 1);
        let b = suite(&ops, 50, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph, y.graph);
        }
    }

    /// FNV-1a over every loop's name, node ops and edges.
    fn digest(loops: &[Loop]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for l in loops {
            eat(&(l.name.len() as u32).to_le_bytes());
            eat(l.name.as_bytes());
            eat(&(l.graph.num_nodes() as u32).to_le_bytes());
            for v in l.graph.nodes() {
                eat(&l.graph.op(v).0.to_le_bytes());
            }
            eat(&(l.graph.num_edges() as u32).to_le_bytes());
            for e in l.graph.edges() {
                eat(&e.from.0.to_le_bytes());
                eat(&e.to.0.to_le_bytes());
                eat(&e.delay.to_le_bytes());
                eat(&e.distance.to_le_bytes());
                eat(&[e.kind as u8]);
            }
        }
        h
    }

    #[test]
    fn suite_content_is_pinned() {
        // Captured from the generator before the template probe moved
        // out of the loop: the same seed must keep building these loops.
        assert_eq!(digest(&the_suite()), 16_018_146_146_903_385_404);
    }

    #[test]
    fn all_loops_are_schedulable_structures() {
        for l in the_suite().iter().take(200) {
            assert!(l.graph.intra_iteration_acyclic(), "{}", l.name);
            assert!(l.graph.num_nodes() >= 2);
        }
    }

    #[test]
    fn suite_mixes_kernels_and_random() {
        let loops = the_suite();
        let kernels = loops
            .iter()
            .filter(|l| !l.name.starts_with("rand#"))
            .count();
        let random = loops.len() - kernels;
        assert!(kernels > 200, "kernels: {kernels}");
        assert!(random > 200, "random: {random}");
    }
}
