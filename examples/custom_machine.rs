//! Load a textual MDL machine description with alternatives, expand and
//! reduce it, and use `check_with_alt` to steer placements to free
//! resources.
//!
//! ```text
//! cargo run -p rmd-examples --bin custom_machine
//! ```

use rmd_core::{reduce, Objective};
use rmd_examples::section;
use rmd_query::{check_with_alt, ContentionQuery, DiscreteModule, OpInstance};

const MDL: &str = r#"
// A dual-ported vector unit: loads may use either port; the MAC unit is
// partially pipelined.
machine "dual-port-vector" {
    resources {
        port[2];        // two memory ports
        agen;           // address generator
        mac_stage[3];   // multiply-accumulate pipeline
        acc_bus;        // accumulator write bus
    }

    op load alt {
        { use port0 @ 1; }
        { use port1 @ 1; }
    }

    op mac weight 2.0 {
        use mac_stage0 @ 0;
        use mac_stage1 @ 1, 2;     // recirculates one stage
        use mac_stage2 @ 3;
        use acc_bus @ 4;
    }

    op accstore {
        use acc_bus @ 0;
        use agen @ 0;
        use port0 @ 1;
    }

    op index {
        use agen @ 0;
    }
}
"#;

fn main() {
    section("1. Parse MDL and expand alternatives");
    let (machine, groups) = rmd_machine::mdl::parse_machine(MDL).expect("valid MDL");
    println!("{machine}");
    for (base, members) in groups.iter() {
        if members.len() > 1 {
            println!(
                "  `{base}` expanded into {} alternative operations",
                members.len()
            );
        }
    }

    section("2. Reduce for the discrete representation");
    let red = reduce(&machine, Objective::ResUses);
    println!(
        "resources {} -> {}, usages {} -> {}",
        machine.num_resources(),
        red.reduced.num_resources(),
        machine.total_usages(),
        red.reduced.total_usages()
    );
    println!("\nreduced MDL:\n{}", rmd_machine::mdl::print(&red.reduced));

    section("3. check_with_alt picks whichever port is free");
    let mut q = DiscreteModule::new(&red.reduced);
    let load0 = red.reduced.op_by_name("load#0").unwrap();
    for i in 0..3 {
        match check_with_alt(&mut q, &groups, load0, 0) {
            Some(op) => {
                q.assign(OpInstance(i), op, 0);
                println!(
                    "load {i} placed in cycle 0 as `{}`",
                    red.reduced.operation(op).name()
                );
            }
            None => println!("load {i}: no alternative fits in cycle 0 (both ports busy)"),
        }
    }
}
