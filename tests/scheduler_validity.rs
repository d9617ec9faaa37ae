//! The paper's end-to-end check: schedules produced with reduced machine
//! descriptions are identical to those produced with the original, and
//! always valid *against the original*.

use rmd_core::{reduce, Objective};
use rmd_loops::{suite, OpSet};
use rmd_machine::models::cydra5_subset;
use rmd_query::WordLayout;
use rmd_sched::{mii, validate, ImsConfig, IterativeModuloScheduler, Representation};

#[test]
fn identical_schedules_regardless_of_description() {
    // The paper: "we also verified that precisely the same schedules
    // were produced regardless of the machine description used by the
    // compiler" (on a 1327-loop suite; a 150-loop sample keeps this test
    // quick while covering all kernel shapes).
    let original = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&original);
    let loops = suite(&ops, 150, 0xC5);

    let red_disc = reduce(&original, Objective::ResUses);
    let k = (64 / red_disc.reduced.num_resources() as u32).max(1);
    let red_bv = reduce(&original, Objective::KCycleWord { k });
    let k_fit = k.min((64 / red_bv.reduced.num_resources() as u32).max(1));

    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    for l in &loops {
        let m = mii::mii(&l.graph, &original);
        let a = ims
            .schedule_with_mii(&l.graph, &original, Representation::Discrete, m)
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        let b = ims
            .schedule_with_mii(&l.graph, &red_disc.reduced, Representation::Discrete, m)
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        let c = ims
            .schedule_with_mii(
                &l.graph,
                &red_bv.reduced,
                Representation::Bitvec(WordLayout::with_k(64, k_fit)),
                m,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        assert_eq!(a.ii, b.ii, "{}", l.name);
        assert_eq!(a.times, b.times, "{}", l.name);
        assert_eq!(a.ii, c.ii, "{}", l.name);
        assert_eq!(a.times, c.times, "{}", l.name);

        // Schedules from the *reduced* description validate against the
        // *original* machine — the equivalence claim end to end.
        validate(&l.graph, &original, &b).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        validate(&l.graph, &original, &c).unwrap_or_else(|e| panic!("{}: {e}", l.name));
    }
}

#[test]
fn reduced_description_does_less_query_work() {
    let original = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&original);
    let loops = suite(&ops, 100, 7);
    let red = reduce(&original, Objective::KCycleWord { k: 4 });
    let k_fit = (64 / red.reduced.num_resources() as u32).clamp(1, 4);

    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let mut orig_units = 0u64;
    let mut red_units = 0u64;
    for l in &loops {
        let m = mii::mii(&l.graph, &original);
        let a = ims
            .schedule_with_mii(&l.graph, &original, Representation::Discrete, m)
            .unwrap();
        let b = ims
            .schedule_with_mii(
                &l.graph,
                &red.reduced,
                Representation::Bitvec(WordLayout::with_k(64, k_fit)),
                m,
            )
            .unwrap();
        orig_units += a.counters.total_units();
        red_units += b.counters.total_units();
    }
    let speedup = orig_units as f64 / red_units as f64;
    assert!(
        speedup > 1.5,
        "expected a clear work reduction, got {speedup:.2}x ({orig_units} vs {red_units})"
    );
}

#[test]
fn every_suite_loop_schedules_and_validates() {
    let machine = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&machine);
    let loops = suite(&ops, 200, 99);
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    for l in &loops {
        let r = ims
            .schedule(&l.graph, &machine, Representation::Discrete)
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        validate(&l.graph, &machine, &r).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        assert!(r.ii >= r.mii);
    }
}

#[test]
fn budget_trades_quality_for_decisions() {
    let machine = cydra5_subset();
    let ops = OpSet::for_cydra_subset(&machine);
    let loops = suite(&ops, 120, 0xBEEF);
    let tight = IterativeModuloScheduler::new(ImsConfig {
        budget_ratio: 1.0,
        ..ImsConfig::default()
    });
    let roomy = IterativeModuloScheduler::new(ImsConfig::default());
    let mut ii_tight = 0u64;
    let mut ii_roomy = 0u64;
    for l in &loops {
        ii_tight += u64::from(
            tight
                .schedule(&l.graph, &machine, Representation::Discrete)
                .unwrap()
                .ii,
        );
        ii_roomy += u64::from(
            roomy
                .schedule(&l.graph, &machine, Representation::Discrete)
                .unwrap()
                .ii,
        );
    }
    assert!(
        ii_roomy <= ii_tight,
        "6N budget must not schedule worse than 1N ({ii_roomy} vs {ii_tight})"
    );
}

#[test]
fn alternative_scheduling_balances_ports_and_validates() {
    use rmd_machine::models::cydra5_alt_groups;
    let m = cydra5_subset();
    let groups = cydra5_alt_groups(&m);
    let load0 = m.op_by_name("load.w.0").unwrap();
    let fadd = m.op_by_name("fadd").unwrap();
    // Four port-0 loads feeding two adds: fixed port assignment forces
    // II = 4 (mem0_in), balanced ports allow II = 2.
    let mut g = rmd_sched::DepGraph::new();
    for _ in 0..2 {
        let l0 = g.add_node(load0);
        let l1 = g.add_node(load0);
        let a = g.add_node(fadd);
        g.add_edge(l0, a, 21, 0, rmd_sched::DepKind::Flow);
        g.add_edge(l1, a, 21, 0, rmd_sched::DepKind::Flow);
    }
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let fixed = ims.schedule(&g, &m, Representation::Discrete).unwrap();
    let alt = ims
        .schedule_with_alternatives(&g, &m, &groups, Representation::Discrete, 2)
        .unwrap();
    assert!(alt.ii < fixed.ii, "{} !< {}", alt.ii, fixed.ii);
    validate(&g, &m, &alt).unwrap();
    // Chosen ops must be alternatives of the base ops.
    for v in g.nodes() {
        let base = g.op(v);
        assert!(
            groups
                .alternatives_of(base)
                .contains(&alt.chosen[v.index()]),
            "chosen op must come from the base's group"
        );
    }
}
