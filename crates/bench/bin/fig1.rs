//! Figure 1: reducing the paper's example machine description.
//!
//! Reproduces all four panes: (a) the original reservation tables,
//! (b) the forbidden-latency matrix, (c) the generating set of maximal
//! resources, and (d) the reduced machine description.

use rmd_core::{generating_set, prune_dominated, reduce, Objective};
use rmd_latency::ForbiddenMatrix;
use rmd_machine::{models::example_machine, render};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    original_resources: usize,
    original_usages: Vec<(String, usize)>,
    maximal_resources: usize,
    reduced_resources: usize,
    reduced_usages: Vec<(String, usize)>,
}

fn main() {
    let m = example_machine();

    println!("(a) Machine description (reservation tables)\n");
    print!("{}", render::machine(&m));

    println!("\n(b) Forbidden latency set matrix\n");
    let f = ForbiddenMatrix::compute(&m);
    for (x, xop) in m.ops() {
        for (y, yop) in m.ops() {
            println!("    F[{}][{}] = {}", xop.name(), yop.name(), f.get(x, y));
        }
    }

    println!("\n(c) Generating set of maximal resources\n");
    let pruned = prune_dominated(&generating_set(&f));
    for (i, r) in pruned.iter().enumerate() {
        let pretty: Vec<String> = r
            .usages()
            .iter()
            .map(|u| format!("{}@{}", m.operations()[u.class as usize].name(), u.cycle))
            .collect();
        println!("    resource {i}': {}", pretty.join(" "));
    }

    println!("\n(d) Reduced machine description (res-uses objective)\n");
    let red = reduce(&m, Objective::ResUses);
    print!("{}", render::machine(&red.reduced));

    let usages = |mm: &rmd_machine::MachineDescription| {
        mm.operations()
            .iter()
            .map(|o| (o.name().to_owned(), o.table().num_usages()))
            .collect::<Vec<_>>()
    };
    println!("\nPaper: 5 resources -> 2; usages A: 3 -> 1, B: 8 -> 4 (Figure 1d).");
    println!(
        "Here:  {} resources -> {}; usages {:?} -> {:?}",
        m.num_resources(),
        red.reduced.num_resources(),
        usages(&m),
        usages(&red.reduced),
    );

    rmd_bench::write_record(
        "fig1",
        &Record {
            original_resources: m.num_resources(),
            original_usages: usages(&m),
            maximal_resources: pruned.len(),
            reduced_resources: red.reduced.num_resources(),
            reduced_usages: usages(&red.reduced),
        },
    );
}
