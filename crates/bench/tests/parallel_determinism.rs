//! The parallel suite runner must be a pure wall-clock optimization:
//! at 1, 2, 4, and 8 threads it yields byte-identical per-loop
//! results and aggregate statistics as the serial path — per-index
//! work stealing and per-worker scratch reuse included.

use rmd_bench::{aggregate, run_suite_runs};
use rmd_machine::models::cydra5_subset;
use rmd_query::WordLayout;
use rmd_sched::Representation;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn suite_results_identical_across_thread_counts() {
    let m = cydra5_subset();
    let ops = rmd_loops::OpSet::for_cydra_subset(&m);
    let loops = rmd_loops::suite(&ops, 48, 0xC5);
    let budget_ratio = 6.0;

    for repr in [
        Representation::Discrete,
        Representation::Bitvec(WordLayout::widest(64, m.num_resources())),
    ] {
        let serial = run_suite_runs(&m, &m, &loops, repr, budget_ratio, 1);
        let serial_stats =
            serde_json::to_string(&aggregate(&serial, budget_ratio)).expect("serialize");
        for threads in THREAD_COUNTS {
            let parallel = run_suite_runs(&m, &m, &loops, repr, budget_ratio, threads);
            assert_eq!(
                serial, parallel,
                "{repr:?} at {threads} threads diverged from serial"
            );
            // Byte-identical aggregate statistics, not just equal
            // structs: the JSON record is what trajectories compare.
            let parallel_stats =
                serde_json::to_string(&aggregate(&parallel, budget_ratio)).expect("serialize");
            assert_eq!(
                serial_stats, parallel_stats,
                "{repr:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn schedules_themselves_are_identical() {
    // Spot-check the strongest form of the claim: the issue-time vector
    // of every loop, not just summary statistics.
    let m = cydra5_subset();
    let ops = rmd_loops::OpSet::for_cydra_subset(&m);
    let loops = rmd_loops::suite(&ops, 16, 7);
    let repr = Representation::Bitvec(WordLayout::widest(64, m.num_resources()));
    let serial = run_suite_runs(&m, &m, &loops, repr, 6.0, 1);
    let parallel = run_suite_runs(&m, &m, &loops, repr, 6.0, 8);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.times, p.times, "loop {i} ({})", loops[i].name);
        assert_eq!(s.ii, p.ii, "loop {i}");
        assert_eq!(s.counters, p.counters, "loop {i}");
    }
}
