//! The paper's headline numbers (§1/§6): reduced descriptions give
//! "4 to 7 times faster detection of resource contentions and require 22
//! to 90% of the memory storage used by the original machine
//! descriptions".
//!
//! Contention-detection speed is measured here the way the paper models
//! it — work units (usages or nonempty words) per query — plus measured
//! wall-clock over a fixed random query mix. Memory storage compares
//! reserved-table bits per schedule cycle.

use rmd_bench::write_record;
use rmd_core::{avg_word_usages, reduce, Objective};
use rmd_machine::models::{alpha21064, cydra5, cydra5_subset, mips_r3000};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{BitvecModule, ContentionQuery, DiscreteModule, OpInstance, WordLayout};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct MachineHeadline {
    machine: String,
    work_unit_speedup: f64,
    wallclock_speedup: f64,
    storage_percent: f64,
}

/// A deterministic pseudo-random query mix: interleaved check/assign/free
/// over a sliding window of cycles.
fn drive(q: &mut dyn ContentionQuery, num_ops: usize, iters: u32) -> std::time::Duration {
    let t0 = Instant::now();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
    let mut inst = 0u32;
    for i in 0..iters {
        let op = OpId((next() % num_ops as u64) as u32);
        let cycle = (i / 4) + (next() % 8) as u32;
        if q.check(op, cycle) {
            q.assign(OpInstance(inst), op, cycle);
            live.push((OpInstance(inst), op, cycle));
            inst += 1;
        }
        if live.len() > 24 {
            let (li, lop, lc) = live.remove((next() % live.len() as u64) as usize);
            q.free(li, lop, lc);
        }
    }
    t0.elapsed()
}

fn headline(m: &MachineDescription) -> MachineHeadline {
    let red_discrete = reduce(m, Objective::ResUses);
    let n_red = red_discrete.reduced_classes.num_resources().max(1);
    let k = (64 / n_red as u32).max(1);
    let red_bitvec = reduce(m, Objective::KCycleWord { k });
    let k_fit = k.min((64 / red_bitvec.reduced.num_resources() as u32).max(1));

    // Work-unit model: original word usages at k=1 vs reduced at k.
    let f_classes = &red_bitvec.class_machine;
    let original_units = avg_word_usages(f_classes, 1);
    let reduced_units = avg_word_usages(&red_bitvec.reduced_classes, k_fit);
    let work_unit_speedup = original_units / reduced_units;

    // Wall clock: identical query streams against both descriptions.
    let iters = 400_000;
    let mut orig_q = DiscreteModule::new(m);
    let t_orig = drive(&mut orig_q, m.num_operations(), iters);
    let mut red_q = BitvecModule::new(&red_bitvec.reduced, WordLayout::with_k(64, k_fit));
    let t_red = drive(&mut red_q, m.num_operations(), iters);
    let wallclock_speedup = t_orig.as_secs_f64() / t_red.as_secs_f64();

    // Memory: reserved-table bits per schedule cycle.
    let storage_percent =
        100.0 * n_red.min(red_bitvec.reduced.num_resources()) as f64 / m.num_resources() as f64;

    MachineHeadline {
        machine: m.name().to_owned(),
        work_unit_speedup,
        wallclock_speedup,
        storage_percent,
    }
}

fn main() {
    println!(
        "{:20} {:>18} {:>18} {:>12}",
        "machine", "work-unit speedup", "wall-clock speedup", "storage %"
    );
    let mut records = Vec::new();
    for m in [mips_r3000(), alpha21064(), cydra5_subset(), cydra5()] {
        let h = headline(&m);
        println!(
            "{:20} {:>17.1}x {:>17.1}x {:>11.0}%",
            h.machine, h.work_unit_speedup, h.wallclock_speedup, h.storage_percent
        );
        records.push(h);
    }
    println!(
        "\nPaper: 4-7x faster contention detection; reduced descriptions need \
         22-90% of the original storage."
    );
    write_record("headline", &records);
}
