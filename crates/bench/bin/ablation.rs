//! Ablation studies for the design choices the paper discusses in
//! passing:
//!
//! 1. **Scheduling-budget sweep** — Table 5 contrasts 6N and 2N budgets;
//!    here the full curve (1N..8N) shows where schedule quality
//!    saturates and what each extra unit of budget costs.
//! 2. **Cycles-per-word sweep** — Table 6 shows three k values; here
//!    every feasible k for the reduced Cydra 5 subset, isolating how
//!    much of the query speedup comes from packing versus from the
//!    reduction itself.

use rmd_bench::{aggregate, run_suite_runs, write_record, SuiteStats};
use rmd_core::{reduce, Objective};
use rmd_loops::{suite, OpSet};
use rmd_machine::models::cydra5_subset;
use rmd_query::WordLayout;
use rmd_sched::Representation;
use serde::Serialize;

#[derive(Serialize)]
struct BudgetRow {
    budget_ratio: f64,
    at_mii: f64,
    decisions_per_op: f64,
    ii_mean: f64,
    budget_exceeded: f64,
}

#[derive(Serialize)]
struct KRow {
    k: u32,
    resources: usize,
    weighted_units: f64,
    check_units: f64,
}

#[derive(Serialize)]
struct Record {
    budget_sweep: Vec<BudgetRow>,
    k_sweep: Vec<KRow>,
}

fn main() {
    let m = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&m);
    let loops = suite(&ops, 300, 0xC5);

    println!("--- scheduling-budget sweep (300 loops, discrete) ---");
    println!(
        "{:>8} {:>10} {:>14} {:>10} {:>14}",
        "budget", "at-MII", "decisions/op", "II mean", "over-budget"
    );
    let mut budget_sweep = Vec::new();
    for budget in [1.0f64, 2.0, 4.0, 6.0, 8.0] {
        let runs = run_suite_runs(&m, &m, &loops, Representation::Discrete, budget);
        let s: SuiteStats = aggregate(&runs, budget);
        println!(
            "{:>7}N {:>9.1}% {:>14.2} {:>10.2} {:>13.1}%",
            budget,
            s.at_mii * 100.0,
            s.decisions_per_op.mean,
            s.ii.mean,
            s.budget_exceeded * 100.0
        );
        budget_sweep.push(BudgetRow {
            budget_ratio: budget,
            at_mii: s.at_mii,
            decisions_per_op: s.decisions_per_op.mean,
            ii_mean: s.ii.mean,
            budget_exceeded: s.budget_exceeded,
        });
    }
    println!(
        "(paper: decisions/op 1.52 @6N vs 1.14 @2N; quality saturates early \
         while decisions keep growing)"
    );

    println!("\n--- cycles-per-word sweep (reduced Cydra 5 subset) ---");
    println!(
        "{:>4} {:>10} {:>16} {:>12}",
        "k", "resources", "weighted units", "check units"
    );
    let mut k_sweep = Vec::new();
    let mut k = 1u32;
    loop {
        let red = reduce(&m, Objective::KCycleWord { k });
        let nres = red.reduced.num_resources();
        if k * nres as u32 > 64 {
            break;
        }
        let repr = Representation::Bitvec(WordLayout::with_k(64, k));
        let s = aggregate(&run_suite_runs(&red.reduced, &m, &loops, repr, 6.0), 6.0);
        println!(
            "{:>4} {:>10} {:>16.2} {:>12.2}",
            k, nres, s.counters.weighted_avg, s.counters.check_avg
        );
        k_sweep.push(KRow {
            k,
            resources: nres,
            weighted_units: s.counters.weighted_avg,
            check_units: s.counters.check_avg,
        });
        k += 1;
    }
    println!("(each extra cycle per word shaves check work; paper Table 6's ladder)");

    write_record(
        "ablation",
        &Record {
            budget_sweep,
            k_sweep,
        },
    );
}
