//! The two internal representations (discrete / bitvector), the two
//! schedule forms (linear / modulo), and the two machine descriptions
//! (original / reduced) must all answer every query identically.
//!
//! The modulo checks run at every II from 1 to the longest table + 5,
//! so usages wrap around the table, often more than once.

use proptest::prelude::*;
use rmd_core::{reduce, Objective};
use rmd_integration::{arb_machine_spec, build_machine, Lcg};
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{
    BitvecModule, ContentionQuery, DiscreteModule, ModuloBitvecModule, ModuloDiscreteModule,
    OpInstance, WordLayout,
};

/// Drives a deterministic check/assign/free script over `ops` against
/// a set of modules and asserts identical answers throughout.
fn drive_identically(
    ops: &[OpId],
    modules: &mut [Box<dyn ContentionQuery>],
    steps: u32,
    seed: u64,
) {
    let mut rng = Lcg(seed);
    let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
    let mut next_inst = 0u32;
    for step in 0..steps {
        let op = ops[rng.below(ops.len() as u64) as usize];
        let cycle = (step / 3) + rng.below(6) as u32;
        let answers: Vec<bool> = modules.iter_mut().map(|m| m.check(op, cycle)).collect();
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "divergent check({op:?}, {cycle}): {answers:?}"
        );
        if answers[0] {
            for m in modules.iter_mut() {
                m.assign(OpInstance(next_inst), op, cycle);
            }
            live.push((OpInstance(next_inst), op, cycle));
            next_inst += 1;
        }
        if live.len() > 6 {
            let idx = rng.below(live.len() as u64) as usize;
            let (i, o, c) = live.remove(idx);
            for m in modules.iter_mut() {
                m.free(i, o, c);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn linear_modules_agree_across_representations_and_reductions(
        spec in arb_machine_spec(5, 4, 5, 8),
        seed in any::<u64>(),
    ) {
        let m = build_machine(&spec);
        let red = reduce(&m, Objective::ResUses);
        let k = (64 / red.reduced.num_resources() as u32).clamp(1, 8);
        let mut modules: Vec<Box<dyn ContentionQuery>> = vec![
            Box::new(DiscreteModule::new(&m)),
            Box::new(BitvecModule::new(&m, WordLayout::with_k(64, 1))),
            Box::new(DiscreteModule::new(&red.reduced)),
            Box::new(BitvecModule::new(&red.reduced, WordLayout::with_k(64, k))),
        ];
        drive_identically(&all_ops(&m), &mut modules, 60, seed);
    }

    #[test]
    fn modulo_modules_agree_across_representations_and_reductions(
        spec in arb_machine_spec(5, 4, 5, 8),
        seed in any::<u64>(),
    ) {
        let m = build_machine(&spec);
        let red = reduce(&m, Objective::ResUses);
        for ii in 1..=m.max_table_length() + 5 {
            let Some(ops) = fitting_ops(&m, ii) else { continue };
            let mut modules = modulo_modules(&m, &red.reduced, ii);
            drive_identically(&ops, &mut modules, 60, seed ^ u64::from(ii));
        }
    }

    #[test]
    fn assign_free_evicts_identically_everywhere(
        spec in arb_machine_spec(4, 3, 4, 6),
        seed in any::<u64>(),
    ) {
        let m = build_machine(&spec);
        let red = reduce(&m, Objective::ResUses);
        for ii in 1..=m.max_table_length() + 5 {
            let Some(ops) = fitting_ops(&m, ii) else { continue };
            let mut modules = modulo_modules(&m, &red.reduced, ii);
            assign_free_identically(&ops, &mut modules, 2 * ii, seed ^ u64::from(ii))?;
        }
        let mut a: Box<dyn ContentionQuery> = Box::new(DiscreteModule::new(&m));
        let mut b: Box<dyn ContentionQuery> =
            Box::new(BitvecModule::new(&red.reduced, WordLayout::with_k(64, 1)));
        let mut rng = Lcg(seed);
        let n = m.num_operations() as u64;
        let mut live_a: std::collections::HashSet<u32> = Default::default();
        for step in 0..40u32 {
            let op = OpId(rng.below(n) as u32);
            let cycle = step / 2 + rng.below(4) as u32;
            let mut ea = a.assign_free(OpInstance(step), op, cycle);
            let mut eb = b.assign_free(OpInstance(step), op, cycle);
            ea.sort();
            eb.sort();
            prop_assert_eq!(&ea, &eb, "divergent evictions at step {}", step);
            for e in ea {
                live_a.remove(&e.0);
            }
            live_a.insert(step);
            prop_assert_eq!(a.num_scheduled(), live_a.len());
            prop_assert_eq!(b.num_scheduled(), live_a.len());
        }
    }
}

fn all_ops(m: &MachineDescription) -> Vec<OpId> {
    (0..m.num_operations() as u32).map(OpId).collect()
}

/// The ops of `m` placeable at `ii` (no usage collides with another of
/// its own op's), or `None` if there are none.
fn fitting_ops(m: &MachineDescription, ii: u32) -> Option<Vec<OpId>> {
    let probe = ModuloDiscreteModule::new(m, ii);
    let ops: Vec<OpId> = all_ops(m)
        .into_iter()
        .filter(|&op| probe.fits(op))
        .collect();
    (!ops.is_empty()).then_some(ops)
}

/// Discrete and bitvector modulo tables at `ii`, on the original and the
/// reduced description.
fn modulo_modules(
    m: &MachineDescription,
    red: &MachineDescription,
    ii: u32,
) -> Vec<Box<dyn ContentionQuery>> {
    let k = (64 / red.num_resources() as u32).clamp(1, 8);
    let k0 = (64 / m.num_resources() as u32).clamp(1, 8);
    vec![
        Box::new(ModuloDiscreteModule::new(m, ii)),
        Box::new(ModuloBitvecModule::new(m, ii, WordLayout::with_k(64, k0))),
        Box::new(ModuloDiscreteModule::new(red, ii)),
        Box::new(ModuloBitvecModule::new(red, ii, WordLayout::with_k(64, k))),
    ]
}

/// Forces `assign&free` placements of `ops` (with the odd `free` of a
/// live instance) into every module, requiring the same evictions, and
/// then the same answer to every `check` over the table's first
/// `horizon` cycles, and to every `check_window` starting there (the
/// discrete modules answer it cycle by cycle, the bitvector ones with
/// a word-parallel scan).
fn assign_free_identically(
    ops: &[OpId],
    modules: &mut [Box<dyn ContentionQuery>],
    horizon: u32,
    seed: u64,
) -> Result<(), String> {
    let mut rng = Lcg(seed);
    let mut live: std::collections::BTreeMap<OpInstance, (OpId, u32)> = Default::default();
    for step in 0..40u32 {
        let op = ops[rng.below(ops.len() as u64) as usize];
        let cycle = step + rng.below(u64::from(horizon)) as u32;
        let inst = OpInstance(step);
        let mut evictions: Vec<Vec<OpInstance>> = modules
            .iter_mut()
            .map(|q| {
                let mut e = q.assign_free(inst, op, cycle);
                e.sort();
                e
            })
            .collect();
        let first = evictions.swap_remove(0);
        for e in &evictions {
            prop_assert_eq!(&first, e, "divergent evictions at step {}", step);
        }
        for e in first {
            live.remove(&e);
        }
        live.insert(inst, (op, cycle));
        if rng.below(4) == 0 {
            let victim = *live
                .keys()
                .nth(rng.below(live.len() as u64) as usize)
                .unwrap();
            let (vop, vcycle) = live.remove(&victim).unwrap();
            for q in modules.iter_mut() {
                q.free(victim, vop, vcycle);
            }
        }
        for q in modules.iter() {
            prop_assert_eq!(q.num_scheduled(), live.len());
        }
    }
    for &op in ops {
        for cycle in 0..horizon {
            let answers: Vec<bool> = modules.iter_mut().map(|q| q.check(op, cycle)).collect();
            prop_assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "divergent check({:?}, {}): {:?}",
                op,
                cycle,
                answers
            );
            let masks: Vec<u64> = modules
                .iter_mut()
                .map(|q| q.check_window(op, cycle, horizon))
                .collect();
            prop_assert!(
                masks.windows(2).all(|w| w[0] == w[1]),
                "divergent check_window({:?}, {}, {}): {:?}",
                op,
                cycle,
                horizon,
                masks
            );
        }
    }
    Ok(())
}

#[test]
fn update_mode_matches_discrete_after_transition() {
    // A fixed scenario that forces the bitvector module through its
    // optimistic->update transition and continues afterwards.
    let m = rmd_machine::models::example_machine();
    let b_op = m.op_by_name("B").unwrap();
    let a_op = m.op_by_name("A").unwrap();
    let mut d: Box<dyn ContentionQuery> = Box::new(DiscreteModule::new(&m));
    let mut v: Box<dyn ContentionQuery> =
        Box::new(BitvecModule::new(&m, WordLayout::with_k(64, 4)));
    for (i, (op, cycle)) in [(b_op, 0u32), (b_op, 1), (a_op, 0), (b_op, 5), (b_op, 6)]
        .into_iter()
        .enumerate()
    {
        let mut ea = d.assign_free(OpInstance(i as u32), op, cycle);
        let mut eb = v.assign_free(OpInstance(i as u32), op, cycle);
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb, "step {i}");
    }
    for cycle in 0..12 {
        assert_eq!(d.check(a_op, cycle), v.check(a_op, cycle), "A @ {cycle}");
        assert_eq!(d.check(b_op, cycle), v.check(b_op, cycle), "B @ {cycle}");
    }
}
