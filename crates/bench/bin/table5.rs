//! Table 5: characteristics of the 1327-loop benchmark under the
//! Iterative Modulo Scheduler.
//!
//! Paper reference (per row: min / % at min / avg / max):
//!   number of operations   2.00 /  0.4% / 17.54 / 161.00
//!   initiation interval    1.00 / 28.7% / 11.52 / 165.00
//!   II / MII               1.00 / 95.6% /  1.01 /   1.50
//!   sched. decisions / op  1.00 / 78.7% /  1.52 /   6.00   (budget 6N)
//! With a 2N budget the decisions/op average drops to 1.14.

use rmd_bench::{aggregate, run_suite_runs, write_record, Distribution, SuiteStats};
use rmd_loops::{suite, OpSet};
use rmd_machine::models::cydra5_subset;
use rmd_sched::Representation;
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    budget_6n: SuiteStats,
    budget_2n: SuiteStats,
}

fn row(name: &str, d: &Distribution) {
    println!(
        "{name:24} {:>8.2} {:>7.1}% {:>8.2} {:>8.2}",
        d.min,
        d.at_min * 100.0,
        d.mean,
        d.max
    );
}

fn main() {
    let m = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&m);
    let loops = suite(&ops, 1327, 0xC5);

    println!("Scheduling {} loops on `{}` (discrete representation)\n", loops.len(), m.name());
    let s6 = aggregate(
        &run_suite_runs(&m, &m, &loops, Representation::Discrete, 6.0, 1),
        6.0,
    );

    println!("{:24} {:>8} {:>8} {:>8} {:>8}", "measurement", "min", "at-min", "avg", "max");
    row("number of operations", &s6.ops);
    row("initiation interval", &s6.ii);
    row("II / MII", &s6.ii_ratio);
    row("sched. decisions / op", &s6.decisions_per_op);
    println!(
        "\nloops at II = MII: {:.1}%   loops with no reversal: {:.1}%   \
         attempts over budget: {:.1}%",
        s6.at_mii * 100.0,
        s6.no_reversal * 100.0,
        s6.budget_exceeded * 100.0
    );
    println!(
        "reversals due to resource contention: {:.1}% (rest: dependence)",
        s6.resource_reversal_share * 100.0
    );

    println!("\n--- budget 2N (paper: decisions/op drops to 1.14) ---");
    let s2 = aggregate(
        &run_suite_runs(&m, &m, &loops, Representation::Discrete, 2.0, 1),
        2.0,
    );
    row("sched. decisions / op", &s2.decisions_per_op);
    println!(
        "attempts over budget: {:.1}%  (paper: 11.3%)",
        s2.budget_exceeded * 100.0
    );

    println!(
        "\nPaper (Table 5): 95.6% of loops at MII; decisions/op avg 1.52 @6N, \
         1.14 @2N; 78.7% with no reversed decision; resource conflicts cause \
         14.6% of reversals."
    );

    write_record(
        "table5",
        &Record {
            budget_6n: s6,
            budget_2n: s2,
        },
    );
}
