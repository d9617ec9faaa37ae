//! Figure 3 (and Figure 2's rule situations): a step-by-step trace of
//! Algorithm 1 building the generating set for the example machine.

use rmd_core::{generating_set_traced, GenSetEvent};
use rmd_latency::ForbiddenMatrix;
use rmd_machine::models::example_machine;
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    pairs_processed: usize,
    rule1: usize,
    rule2_created: usize,
    rule2_discarded: usize,
    rule3: usize,
    rule4: usize,
    final_resources: usize,
}

fn main() {
    let m = example_machine();
    let f = ForbiddenMatrix::compute(&m);
    let (set, trace) = generating_set_traced(&f);
    let name = |c: u32| m.operations()[c as usize].name().to_owned();

    let mut rec = Record {
        pairs_processed: 0,
        rule1: 0,
        rule2_created: 0,
        rule2_discarded: 0,
        rule3: 0,
        rule4: 0,
        final_resources: set.len(),
    };

    println!("Building the generating set for `{}`:\n", m.name());
    for e in &trace.events {
        match e {
            GenSetEvent::ProcessPair { x, y, latency } => {
                rec.pairs_processed += 1;
                println!(
                    "process elementary pair for {latency} ∈ F[{}][{}]  ({}@0, {}@{latency})",
                    name(*x),
                    name(*y),
                    name(*x),
                    name(*y)
                );
            }
            GenSetEvent::Rule1 { resource } => {
                rec.rule1 += 1;
                println!("    rule 1: fully compatible -> merged into resource {resource}");
            }
            GenSetEvent::Rule2 { from, new } => {
                rec.rule2_created += 1;
                println!(
                    "    rule 2: partially compatible with resource {from} -> new resource {new}"
                );
            }
            GenSetEvent::Rule2Discarded { from } => {
                rec.rule2_discarded += 1;
                println!("    rule 2: vs resource {from} -> combination discarded");
            }
            GenSetEvent::Rule3 { new } => {
                rec.rule3 += 1;
                println!("    rule 3: not co-resident anywhere -> pair becomes resource {new}");
            }
            GenSetEvent::Rule4 { class, new } => {
                rec.rule4 += 1;
                println!(
                    "rule 4: {} forbids only its 0 self-latency -> single-usage resource {new}",
                    name(*class)
                );
            }
        }
    }

    println!("\nFinal generating set ({} resources):", set.len());
    for (i, r) in set.iter().enumerate() {
        let pretty: Vec<String> = r
            .usages()
            .iter()
            .map(|u| format!("{}@{}", name(u.class), u.cycle))
            .collect();
        println!("    resource {i}: {}", pretty.join(" "));
    }
    println!(
        "\nPaper (Figure 3): pairs 1∈F[B][A], 1∈F[B][B], 2∈F[B][B], 3∈F[B][B] \
         yield {{[B@0 A@1], [B@0 B@1 B@2 B@3]}}."
    );

    rmd_bench::write_record("fig3", &rec);
}
