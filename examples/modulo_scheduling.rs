//! Software-pipeline a Livermore-style loop on the Cydra 5 with the
//! Iterative Modulo Scheduler, once against the original description and
//! once against the reduced one — same schedule, less work.
//!
//! ```text
//! cargo run -p rmd-examples --bin modulo_scheduling
//! ```

use rmd_core::{reduce, Objective};
use rmd_examples::section;
use rmd_loops::{kernels, OpSet};
use rmd_machine::models::cydra5_subset;
use rmd_query::WordLayout;
use rmd_sched::{mii, ImsConfig, IterativeModuloScheduler, Representation};

fn main() {
    let machine = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&machine);

    section("1. The loop: tri-diagonal elimination (LFK 5), unrolled x2");
    let g = kernels::tridiag(&ops, 2);
    println!(
        "{} operations, {} dependence edges, recurrence: {}",
        g.num_nodes(),
        g.num_edges(),
        g.has_recurrence()
    );
    println!(
        "ResMII = {}, RecMII = {}, MII = {}",
        mii::res_mii(&g, &machine),
        mii::rec_mii(&g),
        mii::mii(&g, &machine)
    );

    section("2. Schedule against the ORIGINAL description");
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let m0 = mii::mii(&g, &machine);
    let orig = ims
        .schedule(&g, &machine, Representation::Discrete)
        .expect("schedulable");
    println!(
        "II = {} (MII {}), decisions = {}, query work = {}",
        orig.ii, orig.mii, orig.decisions, orig.counters
    );

    section("3. Schedule against the REDUCED description (bitvector)");
    let red = reduce(&machine, Objective::KCycleWord { k: 4 });
    let k = (64 / red.reduced.num_resources() as u32).clamp(1, 4);
    let fast = ims
        .schedule_with_mii(
            &g,
            &red.reduced,
            Representation::Bitvec(WordLayout::with_k(64, k)),
            m0,
        )
        .expect("schedulable");
    println!(
        "II = {} (MII {}), decisions = {}, query work = {}",
        fast.ii, fast.mii, fast.decisions, fast.counters
    );

    section("4. The schedules are identical; validation runs on the original");
    assert_eq!(
        orig.times, fast.times,
        "same schedule from both descriptions"
    );
    rmd_sched::validate(&g, &machine, &fast).expect("valid against the original description");
    println!("kernel (issue slot per op, modulo II = {}):", fast.ii);
    for n in g.nodes() {
        println!(
            "  {:10} t = {:3}  slot {:2}",
            machine.operation(g.op(n)).name(),
            fast.times[n.index()],
            fast.times[n.index()] % fast.ii
        );
    }
    let speedup = orig.counters.weighted_avg_units() / fast.counters.weighted_avg_units();
    println!(
        "\nquery work units per call: {:.2} (original) vs {:.2} (reduced) — {speedup:.1}x",
        orig.counters.weighted_avg_units(),
        fast.counters.weighted_avg_units()
    );
}
