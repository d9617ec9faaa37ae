//! Quickstart: describe a machine, reduce it, and answer contention
//! queries against the reduced description.
//!
//! ```text
//! cargo run -p rmd-examples --bin quickstart
//! ```

use rmd_core::{reduce, Objective};
use rmd_examples::section;
use rmd_machine::MachineBuilder;
use rmd_query::{ContentionQuery, DiscreteModule, OpInstance};

fn main() {
    section("1. Describe a machine, close to the hardware");
    // A toy two-unit machine: a pipelined ALU and a non-pipelined
    // divider, sharing one result bus.
    let mut b = MachineBuilder::new("quickstart");
    let issue = b.resource("issue");
    let alu = b.resource("alu");
    let div = b.resource("divider");
    let bus = b.resource("result-bus");
    b.operation("add")
        .usage(issue, 0)
        .usage(alu, 0)
        .usage(bus, 1)
        .finish();
    b.operation("div")
        .usage(issue, 0)
        .span(div, 0, 8)
        .usage(bus, 8)
        .finish();
    let machine = b.build().expect("valid description");
    println!("{machine}");

    section("2. Reduce it (exactly preserving scheduling constraints)");
    let red = reduce(&machine, Objective::ResUses);
    println!("{}", red.reduced);
    println!(
        "resources {} -> {}, usages {} -> {}",
        machine.num_resources(),
        red.reduced.num_resources(),
        machine.total_usages(),
        red.reduced.total_usages()
    );
    // `reduce` ends by checking exactly this; a mismatch would panic.
    println!("equivalence verified: identical forbidden-latency matrices");

    section("3. Answer contention queries with the reduced tables");
    let add = red.reduced.op_by_name("add").unwrap();
    let dv = red.reduced.op_by_name("div").unwrap();
    let mut q = DiscreteModule::new(&red.reduced);
    q.assign(OpInstance(0), dv, 0);
    println!("div scheduled at cycle 0");
    for cycle in [0, 3, 7, 8, 9] {
        for (name, op) in [("add", add), ("div", dv)] {
            println!(
                "  check({name:3} @ {cycle}): {}",
                if q.check(op, cycle) {
                    "free"
                } else {
                    "conflict"
                }
            );
        }
    }
    println!(
        "\nwork performed: {} (one unit per reserved-table entry touched)",
        q.counters()
    );
}
