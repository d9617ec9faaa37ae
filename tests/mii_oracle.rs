//! The MII bounds against a reference oracle.
//!
//! `rmd_sched::mii` computes ResMII from each operation's sorted usage
//! slice and probes for a positive circuit once, at II = ResMII, before
//! it searches for RecMII. The oracle below is the straightforward
//! version it replaced: a `usage_set` per resource on every II step, and
//! a binary search for RecMII from II = 1. All three functions must
//! agree with it on the paper suite, on seeded loops shaped like the
//! benchmark's, and on random graphs over generated machines. The
//! modulo-fit rule behind the self-overlap bound must agree with the
//! certifier's derivation of it on shipped and generated machines.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmd_certify::ConflictVectors;
use rmd_fault::{generate, GenConfig};
use rmd_loops::random::{random_loop, RandomLoopParams};
use rmd_loops::OpSet;
use rmd_machine::{mdl, models, MachineBuilder, MachineDescription, OpId};
use rmd_sched::{mii, DepGraph, DepKind, NodeId};
use std::path::Path;

/// `res_mii`, `rec_mii` and `mii` as they were before the cheap MII.
mod oracle {
    use rmd_machine::MachineDescription;
    use rmd_sched::DepGraph;

    /// Resource-constrained MII: each resource has II modulo slots per
    /// iteration and every usage claims one, so
    /// `ResMII = max_r Σ_nodes usages_r(op(node))`.
    ///
    /// Additionally, one operation's own table must not self-overlap
    /// (two usages of a resource in cycles `c ≡ c' (mod II)`), which imposes
    /// a per-operation lower bound folded in here as well.
    pub fn res_mii(g: &DepGraph, m: &MachineDescription) -> u32 {
        let mut per_resource = vec![0u32; m.num_resources()];
        for n in g.nodes() {
            let op = m.operation(g.op(n));
            for u in op.table().usages() {
                per_resource[u.resource.index()] += 1;
            }
        }
        let pressure = per_resource.into_iter().max().unwrap_or(1).max(1);

        // Self-overlap bound: find the smallest II at which every op fits.
        let mut ii = pressure;
        'outer: loop {
            for n in g.nodes() {
                let t = m.operation(g.op(n)).table();
                for r in t.resources() {
                    let cycles = t.usage_set(r);
                    for (i, &c) in cycles.iter().enumerate() {
                        for &c2 in &cycles[i + 1..] {
                            if c % ii == c2 % ii {
                                ii += 1;
                                continue 'outer;
                            }
                        }
                    }
                }
            }
            return ii;
        }
    }

    /// Recurrence-constrained MII: the smallest II such that no dependence
    /// circuit has positive slack `Σ delay − II · Σ distance > 0`; i.e.
    /// `RecMII = max over circuits ⌈Σ delay / Σ distance⌉`.
    ///
    /// Computed by binary search on II with a Bellman-Ford-style positive-
    /// cycle detection on edge weights `delay − II · distance`. Returns 1
    /// for recurrence-free graphs.
    pub fn rec_mii(g: &DepGraph) -> u32 {
        if !g.has_recurrence() {
            return 1;
        }
        // Upper bound: sum of positive delays is always feasible.
        let hi: i64 = g
            .edges()
            .iter()
            .map(|e| i64::from(e.delay.max(0)))
            .sum::<i64>()
            .max(1);
        let mut lo = 1i64;
        let mut hi = hi;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if has_positive_cycle(g, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u32
    }

    /// Longest-path relaxation: true iff some circuit has positive weight
    /// under `w(e) = delay − ii · distance`.
    fn has_positive_cycle(g: &DepGraph, ii: i64) -> bool {
        let n = g.num_nodes();
        let mut dist = vec![0i64; n];
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

    /// The minimum initiation interval: `max(ResMII, RecMII)`.
    pub fn mii(g: &DepGraph, m: &MachineDescription) -> u32 {
        res_mii(g, m).max(rec_mii(g))
    }
}

/// The first of the three bounds that disagrees with the oracle, if any.
fn mismatch(g: &DepGraph, m: &MachineDescription) -> Option<String> {
    let pairs = [
        ("res_mii", mii::res_mii(g, m), oracle::res_mii(g, m)),
        ("rec_mii", mii::rec_mii(g), oracle::rec_mii(g)),
        ("mii", mii::mii(g, m), oracle::mii(g, m)),
    ];
    pairs
        .into_iter()
        .find(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got}, oracle {want}"))
}

fn cydra_machines() -> [MachineDescription; 2] {
    [models::cydra5_subset(), models::cydra5()]
}

#[test]
fn paper_suite_matches_oracle_on_both_cydra_descriptions() {
    for m in cydra_machines() {
        let ops = OpSet::for_cydra_subset(&m);
        for l in rmd_loops::suite(&ops, 1327, 0xC5) {
            if let Some(why) = mismatch(&l.graph, &m) {
                panic!("{} on {}: {why}", l.name, m.name());
            }
        }
    }
}

#[test]
fn seeded_loops_match_oracle_on_both_cydra_descriptions() {
    // The benchmark's seeded loops: 64 per seed, 2 to 24 operations.
    for m in cydra_machines() {
        let ops = OpSet::for_cydra_subset(&m);
        for seed in 1..=12 {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..64 {
                let params = RandomLoopParams {
                    size: rng.gen_range(2..25),
                };
                let g = random_loop(&ops, &mut rng, params);
                if let Some(why) = mismatch(&g, &m) {
                    panic!("seed {seed} loop {i} on {}: {why}", m.name());
                }
            }
        }
    }
}

/// One random case before it is built: a machine seed and shape (0, 1
/// and 2 are the generator's small, medium and large presets; 3 is
/// [`scattered`]), node operations (wrapped onto the machine's), and
/// edges `(from, to, delay, distance)` with endpoints wrapped onto the
/// nodes. A delay is drawn as `(pick, small, large)`: one edge in four
/// takes the large delay, in the hundreds.
type RawCase = (
    (u64, usize),
    Vec<usize>,
    Vec<(usize, usize, (u8, i32, i32), u32)>,
);

fn raw_case() -> impl Strategy<Value = RawCase> {
    (
        (any::<u64>(), 0usize..4),
        prop::collection::vec(0usize..64, 1..16),
        prop::collection::vec(
            (
                0usize..16,
                0usize..16,
                (0u8..4, -8i32..24, 100i32..500),
                0u32..4,
            ),
            0..40,
        ),
    )
}

/// A machine of one to three resources whose operations reserve them at
/// up to six scattered cycles below 40. Unlike the generator's
/// pipelines, such tables self-overlap at IIs above their usage counts,
/// which lifts ResMII above the pressure bound.
fn scattered(seed: u64) -> MachineDescription {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = MachineBuilder::new("scattered");
    let res: Vec<_> = (0..1 + rng.below(3))
        .map(|i| b.resource(format!("r{i}")))
        .collect();
    for o in 0..1 + rng.below(4) {
        let mut op = b.operation(format!("op{o}"));
        for _ in 0..1 + rng.below(6) {
            op = op.usage(res[rng.index(res.len())], rng.below(40) as u32);
        }
        op.finish();
    }
    b.build().expect("every operation reserves a resource")
}

fn build(((seed, shape), nodes, edges): &RawCase) -> (MachineDescription, DepGraph) {
    let m = match shape {
        0 => generate(*seed, &GenConfig::small()),
        1 => generate(*seed, &GenConfig::medium()),
        2 => generate(*seed, &GenConfig::large()),
        _ => scattered(*seed),
    };
    let mut g = DepGraph::new();
    for &op in nodes {
        g.add_node(OpId((op % m.num_operations()) as u32));
    }
    let n = nodes.len();
    for &(from, to, (pick, small, large), distance) in edges {
        let delay = if pick == 0 { large } else { small };
        let (from, to) = (NodeId((from % n) as u32), NodeId((to % n) as u32));
        g.add_edge(from, to, delay, distance, DepKind::Flow);
    }
    (m, g)
}

/// A random case reshaped so that its only edges that do not go
/// forward in node order are its family's: carried self-loops `(node,
/// delay, distance)` (family 0, where RecMII has a closed form), those
/// plus one distance-0 back edge or self-loop (family 1), or plus one
/// carried back edge `(a, b, delay, distance)` (family 2), both of which
/// send `mii` to the search.
type ShapedCase = (
    RawCase,
    u8,
    Vec<(usize, (u8, i32, i32), u32)>,
    (usize, usize, i32, u32),
);

fn shaped_case() -> impl Strategy<Value = ShapedCase> {
    (
        raw_case(),
        0u8..3,
        prop::collection::vec(
            (0usize..16, (0u8..4, -8i32..24, 100i32..500), 1u32..5),
            1..6,
        ),
        (0usize..16, 0usize..16, -8i32..40, 0u32..5),
    )
}

fn build_shaped(
    (raw, family, loops, (a, b, delay, distance)): &ShapedCase,
) -> (MachineDescription, DepGraph) {
    let (m, g) = build(raw);
    let n = g.num_nodes();
    let mut shaped = DepGraph::new();
    for v in g.nodes() {
        shaped.add_node(g.op(v));
    }
    for e in g.edges().iter().filter(|e| e.from != e.to) {
        let (from, to) = (e.from.min(e.to), e.from.max(e.to));
        shaped.add_edge(from, to, e.delay, e.distance, e.kind);
    }
    for &(v, (pick, small, large), distance) in loops {
        let v = NodeId((v % n) as u32);
        let delay = if pick == 0 { large } else { small };
        shaped.add_edge(v, v, delay, distance, DepKind::Flow);
    }
    let (lo, hi) = (NodeId((a.min(b) % n) as u32), NodeId((a.max(b) % n) as u32));
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    match family {
        0 => {}
        1 => shaped.add_edge(hi, lo, *delay, 0, DepKind::Flow),
        _ => shaped.add_edge(hi, lo, *delay, (*distance).max(1), DepKind::Flow),
    }
    (m, shaped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn random_graphs_on_generated_machines_match_oracle(raw in raw_case()) {
        let (m, g) = build(&raw);
        prop_assert_eq!(mismatch(&g, &m), None);
    }

    #[test]
    fn self_loop_and_back_edge_families_match_oracle(case in shaped_case()) {
        let (m, g) = build_shaped(&case);
        prop_assert_eq!(mismatch(&g, &m), None);
    }
}

#[test]
fn shaped_cases_reach_both_recurrence_paths() {
    // Each family must bind the MII by its recurrences in some cases:
    // the closed form (family 0) and the search (families 1 and 2).
    let mut rng = TestRng::new(0x5E1F);
    let mut bound = [0usize; 3];
    for _ in 0..768 {
        let case = shaped_case().generate(&mut rng);
        let (m, g) = build_shaped(&case);
        if oracle::rec_mii(&g) > oracle::res_mii(&g, &m) {
            bound[usize::from(case.1)] += 1;
        }
    }
    assert!(
        bound.iter().all(|&b| b >= 8),
        "recurrence-bound per family: {bound:?}"
    );
}

#[test]
fn fit_rule_matches_the_certifiers_derivation() {
    // `ReservationTable::fits_modulo` decides ResMII's self-overlap
    // bound, the modulo tables' fit tables and the IMS II search. The
    // certifier derives fit on its own, from each op's self-conflict
    // vector. Scattered tables are the ones whose fit is not monotone.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../machines");
    let mut machines: Vec<MachineDescription> = std::fs::read_dir(&dir)
        .expect("machines/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mdl"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable");
            mdl::parse_machine(&text).expect("shipped MDL parses").0
        })
        .collect();
    assert_eq!(machines.len(), 9);
    for seed in 0..100 {
        machines.push(generate(seed, &GenConfig::small()));
        machines.push(generate(seed, &GenConfig::medium()));
        machines.push(scattered(seed));
    }
    for m in &machines {
        let cv = ConflictVectors::compute(m).expect("span fits");
        for (i, op) in m.operations().iter().enumerate() {
            for ii in 1..=cv.span() + 1 {
                assert_eq!(
                    op.table().fits_modulo(ii),
                    cv.fits(i, ii),
                    "{} {} ii {ii}",
                    m.name(),
                    op.name()
                );
            }
        }
    }
}

/// The usage count of the busiest resource: ResMII before self-overlap.
fn pressure(g: &DepGraph, m: &MachineDescription) -> u32 {
    let mut count = vec![0u32; m.num_resources()];
    for n in g.nodes() {
        for u in m.operation(g.op(n)).table().usages() {
            count[u.resource.index()] += 1;
        }
    }
    count.into_iter().max().unwrap_or(0).max(1)
}

#[test]
fn random_cases_cover_the_hard_shapes() {
    // The property above is only as good as its inputs: they must reach
    // ResMII above the pressure bound, recurrence-bound loops, MIIs of
    // 64 and more, negative delays, self-loops, distance-0 circuits, and
    // every distance 0–3.
    let mut rng = TestRng::new(0xC5);
    let cases: Vec<_> = (0..512)
        .map(|_| build(&raw_case().generate(&mut rng)))
        .collect();
    let common = |what: &str, has: &dyn Fn(&MachineDescription, &DepGraph) -> bool| {
        let count = cases.iter().filter(|(m, g)| has(m, g)).count();
        assert!(
            count >= cases.len() / 32,
            "{what}: {count} of {} cases",
            cases.len()
        );
    };
    common("self-overlap", &|m, g| {
        oracle::res_mii(g, m) > pressure(g, m)
    });
    common("recurrence-bound", &|m, g| {
        oracle::rec_mii(g) > oracle::res_mii(g, m)
    });
    common("MII >= 64", &|m, g| oracle::mii(g, m) >= 64);
    common("negative delay", &|_, g| {
        g.edges().iter().any(|e| e.delay < 0)
    });
    common("self-loop", &|_, g| {
        g.edges().iter().any(|e| e.from == e.to)
    });
    common("distance-0 circuit", &|_, g| !g.intra_iteration_acyclic());
    for d in 0..4 {
        common(&format!("distance {d}"), &|_, g| {
            g.edges().iter().any(|e| e.distance == d)
        });
    }
}
