//! Basic-block boundary conditions: dangling resource requirements from
//! predecessor blocks constrain where operations may be placed — the
//! paper's §1 motivation for precise reserved-table state.
//!
//! ```text
//! cargo run -p rmd-examples --bin boundary_conditions
//! ```

use rmd_core::{reduce, Objective};
use rmd_examples::section;
use rmd_machine::models::mips_r3000;
use rmd_sched::{BoundaryOp, DepGraph, DepKind, ListScheduler, Representation};

fn main() {
    let machine = mips_r3000();
    let get = |n: &str| machine.op_by_name(n).unwrap();

    // The block: a float pipeline burst that needs the FPA.
    let mut g = DepGraph::new();
    let l0 = g.add_node(get("load"));
    let m0 = g.add_node(get("mul.s"));
    let d0 = g.add_node(get("div.s"));
    let a0 = g.add_node(get("add.s"));
    let s0 = g.add_node(get("store"));
    g.add_edge(l0, m0, 2, 0, DepKind::Flow);
    g.add_edge(m0, d0, 4, 0, DepKind::Flow);
    g.add_edge(d0, a0, 12, 0, DepKind::Flow);
    g.add_edge(a0, s0, 2, 0, DepKind::Flow);

    section("1. No dangling predecessors: the block starts immediately");
    let free = ListScheduler::new().schedule(&g, &machine, Representation::Discrete);
    print_schedule(&machine, &g, &free.times);
    rmd_sched::validate_list(&g, &machine, &free).unwrap();

    section("2. A div.s issued 2 cycles before entry still owns the divider");
    let sched = ListScheduler::with_boundary(vec![BoundaryOp {
        op: get("div.s"),
        issue_cycle: -2,
    }]);
    let tight = sched.schedule(&g, &machine, Representation::Discrete);
    print_schedule(&machine, &g, &tight.times);
    rmd_sched::validate_list(&g, &machine, &tight).unwrap();
    println!(
        "\nthe block's own div.s moved {} -> {} (divider busy through cycle {})",
        free.times[d0.index()],
        tight.times[d0.index()],
        -2 + 10
    );

    section("3. Boundary handling works identically on the reduced machine");
    let red = reduce(&machine, Objective::ResUses);
    let sched = ListScheduler::with_boundary(vec![BoundaryOp {
        op: get("div.s"),
        issue_cycle: -2,
    }]);
    let reduced = sched.schedule(&g, &red.reduced, Representation::Discrete);
    assert_eq!(reduced.times, tight.times, "identical schedule");
    println!(
        "identical placement; query work {} vs {} units",
        tight.counters.total_units(),
        reduced.counters.total_units()
    );
}

fn print_schedule(machine: &rmd_machine::MachineDescription, g: &DepGraph, times: &[i32]) {
    for n in g.nodes() {
        println!(
            "  {:8} @ {:3}",
            machine.operation(g.op(n)).name(),
            times[n.index()]
        );
    }
}
