//! Figure 4: reservation tables for the Cydra 5 benchmark subset —
//! (a) the original description, (b) the discrete (res-uses) reduction,
//! and (c) the 64-bit-word bitvector reduction.

use rmd_core::{reduce, Objective};
use rmd_machine::{models::cydra5_subset, render, MachineDescription};
use serde::Serialize;

#[derive(Serialize)]
struct Pane {
    label: String,
    resources: usize,
    usages: usize,
}

fn pane(label: &str, m: &MachineDescription) -> Pane {
    Pane {
        label: label.to_owned(),
        resources: m.num_resources(),
        usages: m.total_usages(),
    }
}

fn main() {
    let m = cydra5_subset();

    println!(
        "(a) Original machine description ({} resources, {} resource usages)\n",
        m.num_resources(),
        m.total_usages()
    );
    print!("{}", render::overview(&m));

    let discrete = reduce(&m, Objective::ResUses);
    println!(
        "\n(b) Discrete-representation reduction ({} resources, {} resource usages)\n",
        discrete.reduced_classes.num_resources(),
        discrete.reduced_classes.total_usages()
    );
    print!("{}", render::overview(&discrete.reduced_classes));

    let k = (64 / discrete.reduced_classes.num_resources().max(1) as u32).max(1);
    let bitvec = reduce(&m, Objective::KCycleWord { k });
    println!(
        "\n(c) Bitvector-representation reduction, 64-bit word, k={k} \
         ({} resources, {} resource usages)\n",
        bitvec.reduced_classes.num_resources(),
        bitvec.reduced_classes.total_usages()
    );
    print!("{}", render::overview(&bitvec.reduced_classes));

    println!("\nPer-operation reduced tables (pane b):\n");
    print!("{}", render::machine(&discrete.reduced_classes));

    println!(
        "\nPaper (Figure 4): original 39 resources / 132 usages; discrete \
         reduction 9 / 43; 64-bit bitvector reduction 9 / 63 — the bitvector \
         reduction deliberately keeps *more* usages packed into fewer words."
    );

    rmd_bench::write_record(
        "fig4",
        &vec![
            pane("original", &m),
            pane("discrete", &discrete.reduced_classes),
            pane(&format!("bitvec-64bit-k{k}"), &bitvec.reduced_classes),
        ],
    );
}
