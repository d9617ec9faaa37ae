//! Table 6: work units per call of the contention-query functions over
//! the 1327-loop benchmark, for the original description and four
//! reductions (discrete res-uses and 1/2/4-cycle-word bitvectors).
//!
//! Paper reference (weighted average work units per call):
//!   original 3.46 -> discrete 2.11 -> bitvec 1-cycle 1.91 ->
//!   2-cycle 1.35 -> 4-cycle 1.21, a 2.9x faster query module overall.

use rmd_bench::{
    aggregate, checked_reduce, run_suite_runs, table6_representations, write_record, SuiteStats,
};
use rmd_core::Objective;
use rmd_loops::{suite, OpSet};
use rmd_machine::models::cydra5_subset;
use rmd_sched::Representation;
use serde::Serialize;

#[derive(Serialize)]
struct Column {
    label: String,
    check_avg: f64,
    assign_free_avg: f64,
    free_avg: f64,
    weighted_avg: f64,
    check_calls: u64,
    assign_free_calls: u64,
    free_calls: u64,
    transitions: u64,
}

fn column(label: &str, s: &SuiteStats) -> Column {
    Column {
        label: label.to_owned(),
        check_avg: s.counters.check_avg,
        assign_free_avg: s.counters.assign_free_avg,
        free_avg: s.counters.free_avg,
        weighted_avg: s.counters.weighted_avg,
        check_calls: s.counters.check_calls,
        assign_free_calls: s.counters.assign_free_calls,
        free_calls: s.counters.free_calls,
        transitions: s.counters.transitions,
    }
}

fn main() {
    let original = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&original);
    let loops = suite(&ops, 1327, 0xC5);

    let mut columns = Vec::new();

    // Column 1: the original (unreduced) description, discrete module.
    println!("running: original description (discrete) ...");
    let runs = run_suite_runs(
        &original,
        &original,
        &loops,
        Representation::Discrete,
        6.0,
        1,
    );
    let s = aggregate(&runs, 6.0);
    columns.push(column("original discrete", &s));

    // Reduced columns: the query machine is the reduction, the MII comes
    // from the original so the search trajectory matches.
    let res_uses = checked_reduce(&original, Objective::ResUses);
    let reprs = table6_representations(res_uses.reduced_classes.num_resources());
    for (label, objective, repr) in reprs {
        println!("running: {label} ...");
        let red = checked_reduce(&original, objective);
        // A k-cycle-word reduction may select more resources than fit k
        // per 64-bit word; clamp the module's packing to what fits.
        let repr = match repr {
            Representation::Bitvec(layout) => {
                let fit = (64 / red.reduced.num_resources() as u32).max(1);
                Representation::Bitvec(rmd_query::WordLayout::with_k(64, layout.k.min(fit)))
            }
            other => other,
        };
        let s = aggregate(
            &run_suite_runs(&red.reduced, &original, &loops, repr, 6.0, 1),
            6.0,
        );
        columns.push(column(&label, &s));
    }

    println!(
        "\n{:24} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "representation", "check", "assign&free", "free", "weighted", "transitions"
    );
    for c in &columns {
        println!(
            "{:24} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>12}",
            c.label, c.check_avg, c.assign_free_avg, c.free_avg, c.weighted_avg, c.transitions
        );
    }
    let total: u64 = columns[0].check_calls + columns[0].assign_free_calls + columns[0].free_calls;
    println!(
        "\ncall frequencies: check {:.1}%  assign&free {:.1}%  free {:.1}%  \
         (paper: 75.6% / 16.0% / 8.4%)",
        100.0 * columns[0].check_calls as f64 / total as f64,
        100.0 * columns[0].assign_free_calls as f64 / total as f64,
        100.0 * columns[0].free_calls as f64 / total as f64,
    );
    let speedup = columns[0].weighted_avg / columns.last().expect("cols").weighted_avg;
    println!(
        "query-module speedup (weighted units, original -> best reduction): {speedup:.1}x \
         (paper: 3.46 -> 1.21, 2.9x)"
    );

    write_record("table6", &columns);
}
