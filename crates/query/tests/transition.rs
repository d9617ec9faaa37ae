//! The bitvector module's optimistic→update `assign_free` transition.
//!
//! The paper's bitvector representation drops per-slot owner fields to
//! stay word-parallel, and rebuilds them by scanning the
//! scheduled-operation list the first time `assign_free` hits a
//! conflict. These tests pin down that transition: the rebuilt owner
//! fields must match what the discrete module (which maintains owners
//! from the start) reports for the identical trace, the transition must
//! be recorded in `WorkCounters` exactly once, and post-transition
//! evictions must stay bit-for-bit equivalent to the discrete module's.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rmd_machine::models::{example_machine, mips_r3000};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{BitvecModule, ContentionQuery, DiscreteModule, OpInstance, WordLayout};

/// Asserts every owner slot in the bitvec module equals the discrete
/// module's over the given horizon.
fn assert_owner_parity(
    m: &MachineDescription,
    bv: &BitvecModule,
    ds: &DiscreteModule,
    horizon: u32,
    context: &str,
) {
    assert!(bv.in_update_mode(), "{context}: expected update mode");
    for cycle in 0..horizon {
        for r in 0..m.num_resources() as u32 {
            assert_eq!(
                bv.owner_of(r, cycle),
                ds.owner_of(r, cycle),
                "{context}: owner of resource {r} at cycle {cycle} diverged"
            );
        }
    }
}

#[test]
fn transition_rebuilds_owner_fields_and_counts_once() {
    let m = example_machine();
    let a = m.op_by_name("A").expect("model has op A");
    let b = m.op_by_name("B").expect("model has op B");
    let mut bv = BitvecModule::new(&m, WordLayout::widest(64, m.num_resources()));
    let mut ds = DiscreteModule::new(&m);

    // Optimistic phase: conflict-free placements stay word-wise, with no
    // owner fields materialised and no transition recorded.
    for (i, (op, cycle)) in [(b, 0u32), (a, 2)].iter().enumerate() {
        let inst = OpInstance(i as u32);
        assert!(bv.assign_free(inst, *op, *cycle).is_empty());
        assert!(ds.assign_free(inst, *op, *cycle).is_empty());
    }
    assert!(!bv.in_update_mode());
    assert_eq!(bv.counters().transitions, 0);
    assert_eq!(bv.owner_of(0, 0), None, "no owner fields before transition");

    // First conflict: B@1 overlaps B@0. The module must scan the
    // scheduled list, rebuild owners, and evict exactly what the
    // discrete module evicts.
    let mut ev_bv = bv.assign_free(OpInstance(2), b, 1);
    let mut ev_ds = ds.assign_free(OpInstance(2), b, 1);
    ev_bv.sort_unstable();
    ev_ds.sort_unstable();
    assert_eq!(ev_bv, ev_ds, "transition-triggering eviction diverged");
    assert!(!ev_bv.is_empty(), "the conflict must evict someone");
    assert_eq!(bv.counters().transitions, 1, "transition recorded once");

    let horizon = 8 + m.max_table_length();
    assert_owner_parity(&m, &bv, &ds, horizon, "after transition");

    // Later conflicts run in update mode: owners stay in sync and the
    // transition counter never moves again.
    for (i, (op, cycle)) in [(b, 3u32), (a, 1), (b, 0), (a, 4)].iter().enumerate() {
        let inst = OpInstance(10 + i as u32);
        let mut ev_bv = bv.assign_free(inst, *op, *cycle);
        let mut ev_ds = ds.assign_free(inst, *op, *cycle);
        ev_bv.sort_unstable();
        ev_ds.sort_unstable();
        assert_eq!(ev_bv, ev_ds, "eviction sets diverged at {op}@{cycle}");
        assert_eq!(bv.num_scheduled(), ds.num_scheduled());
    }
    assert_eq!(bv.counters().transitions, 1, "exactly one transition ever");
    assert_owner_parity(&m, &bv, &ds, horizon, "after post-transition churn");
}

#[test]
fn mixed_assign_before_transition_is_visible_in_rebuilt_owners() {
    // Instances placed with plain `assign` (no owner bookkeeping in
    // optimistic mode) must still be found by the rebuild scan, which
    // walks the registry rather than any incremental state.
    let m = example_machine();
    let b = m.op_by_name("B").expect("model has op B");
    let mut bv = BitvecModule::new(&m, WordLayout::widest(64, m.num_resources()));
    let mut ds = DiscreteModule::new(&m);

    bv.assign(OpInstance(0), b, 0);
    ds.assign(OpInstance(0), b, 0);
    assert!(!bv.in_update_mode());

    let mut ev_bv = bv.assign_free(OpInstance(1), b, 2);
    let mut ev_ds = ds.assign_free(OpInstance(1), b, 2);
    ev_bv.sort_unstable();
    ev_ds.sort_unstable();
    assert_eq!(ev_bv, vec![OpInstance(0)], "assigned instance evicted");
    assert_eq!(ev_bv, ev_ds);
    assert_eq!(bv.counters().transitions, 1);
    assert_owner_parity(
        &m,
        &bv,
        &ds,
        8 + m.max_table_length(),
        "rebuilt from registry",
    );
}

#[test]
fn seeded_walk_keeps_owner_parity_on_mips() {
    // A longer pseudorandom assign_free/free walk on a realistic model,
    // checking owner parity after every step once the transition fires.
    let m = mips_r3000();
    let mut bv = BitvecModule::new(&m, WordLayout::widest(64, m.num_resources()));
    let mut ds = DiscreteModule::new(&m);
    let span = m.max_table_length().max(1);
    let horizon = 3 * span + m.max_table_length();

    let mut rng = StdRng::seed_from_u64(0x5EED_0FA1);
    let mut next = move || rng.next_u64();

    let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
    for inst in 0..200u32 {
        let op = OpId((next() % m.num_operations() as u64) as u32);
        let cycle = (next() % u64::from(3 * span)) as u32;
        if next() % 4 == 0 {
            if let Some(i) = (!live.is_empty()).then(|| next() as usize % live.len()) {
                let (li, lop, lcycle) = live.swap_remove(i);
                bv.free(li, lop, lcycle);
                ds.free(li, lop, lcycle);
            }
            continue;
        }
        let inst = OpInstance(inst);
        let mut ev_bv = bv.assign_free(inst, op, cycle);
        let mut ev_ds = ds.assign_free(inst, op, cycle);
        ev_bv.sort_unstable();
        ev_ds.sort_unstable();
        assert_eq!(ev_bv, ev_ds, "eviction sets diverged at {op}@{cycle}");
        live.retain(|(i, _, _)| !ev_bv.contains(i));
        live.push((inst, op, cycle));
        assert_eq!(bv.num_scheduled(), ds.num_scheduled());
        if bv.in_update_mode() {
            assert_owner_parity(&m, &bv, &ds, horizon, "mid-walk");
        }
    }
    assert!(bv.in_update_mode(), "walk never conflicted — weak test");
    assert_eq!(bv.counters().transitions, 1, "exactly one transition");
}
