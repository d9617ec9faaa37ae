//! Alternative operations in the modulo scheduler: generic loads spread
//! across the Cydra 5's two memory ports automatically via
//! `check_with_alt` (paper §7; 21% of the paper's benchmark operations
//! had exactly one alternative).
//!
//! ```text
//! cargo run -p rmd-examples --bin alternative_scheduling
//! ```

use rmd_examples::section;
use rmd_machine::models::{cydra5_alt_groups, cydra5_subset};
use rmd_sched::{mii, DepGraph, DepKind, ImsConfig, IterativeModuloScheduler, Representation};

fn main() {
    let m = cydra5_subset();
    let groups = cydra5_alt_groups(&m);

    section("1. A load-heavy loop written against port 0 only");
    // Six independent load→fadd→store strands, all naming port 0: the
    // front end didn't balance ports; the scheduler should.
    let load0 = m.op_by_name("load.w.0").unwrap();
    let store0 = m.op_by_name("store.w.0").unwrap();
    let fadd = m.op_by_name("fadd").unwrap();
    let mut g = DepGraph::new();
    for _ in 0..6 {
        let l = g.add_node(load0);
        let a = g.add_node(fadd);
        let s = g.add_node(store0);
        g.add_edge(l, a, 21, 0, DepKind::Flow);
        g.add_edge(a, s, 7, 0, DepKind::Flow);
    }
    println!("{} ops: 6x load.w.0, 6x fadd, 6x store.w.0", g.num_nodes());

    let ims = IterativeModuloScheduler::new(ImsConfig::default());

    section("2. Without alternatives: port 0 is the bottleneck");
    let fixed = ims.schedule(&g, &m, Representation::Discrete).unwrap();
    println!(
        "II = {} (MII {} — mem0_in takes 12 reservations per iteration)",
        fixed.ii, fixed.mii
    );

    section("3. With check_with_alt: loads and stores spread over both ports");
    // MII under alternatives: balanced port pressure halves the bound;
    // start the search there and let the scheduler escalate if needed.
    let balanced_mii = mii::mii(&g, &m).div_ceil(2);
    let alt = ims
        .schedule_with_alternatives(&g, &m, &groups, Representation::Discrete, balanced_mii)
        .unwrap();
    println!("II = {}", alt.ii);
    let mut port_counts = [0usize; 2];
    for v in g.nodes() {
        let name = m.operation(alt.chosen[v.index()]).name();
        if name.starts_with("load") || name.starts_with("store") {
            if name.ends_with(".0") {
                port_counts[0] += 1;
            } else {
                port_counts[1] += 1;
            }
        }
    }
    println!(
        "memory ops per port: {} on port 0, {} on port 1",
        port_counts[0], port_counts[1]
    );
    rmd_sched::validate(&g, &m, &alt).expect("valid against the machine");
    assert!(
        alt.ii < fixed.ii,
        "alternatives must relieve the bottleneck"
    );
    println!(
        "\nthe alternative-aware schedule is {:.1}x denser ({} -> {} cycles/iteration)",
        f64::from(fixed.ii) / f64::from(alt.ii),
        fixed.ii,
        alt.ii
    );
}
