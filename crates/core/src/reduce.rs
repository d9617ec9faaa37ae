//! The end-to-end reduction driver.

use crate::error::{validate_limits, RmdError, StepBudget};
use crate::genset::generating_set_budgeted;
use crate::prune::prune_dominated;
use crate::select::{select, Objective, Selection};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::{MachineBuilder, MachineDescription};

/// The reduction pipeline's phase names, in execution order, exactly as
/// they appear in the `cat = "reduce"` spans emitted while
/// [`rmd_obs`] tracing is enabled.
///
/// Every phase listed here fires on **every** successful
/// [`reduce_with_fallback`](crate::reduce_with_fallback) run, so trace
/// consumers (the `rmd profile` report, the CI smoke check) can require
/// all of them to be present. The `fallback` *instant* event is not in
/// this list because it only fires when the pipeline degrades to the
/// original tables.
pub const REDUCTION_PHASES: &[&str] = &[
    "forbidden_matrix",
    "classes",
    "genset",
    "prune",
    "select",
    "materialize",
    "verify",
];

/// Knobs for [`try_reduce`] and
/// [`reduce_with_fallback`](crate::reduce_with_fallback).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ReduceOptions {
    /// Step budget for generating-set construction; `None` is unlimited.
    pub max_steps: Option<u64>,
}

/// The result of reducing a machine description (paper §3–§5).
#[derive(Clone, Debug)]
pub struct Reduction {
    /// Operation classes of the original machine.
    pub classes: ClassPartition,
    /// One representative operation per class.
    pub class_machine: MachineDescription,
    /// Class-level forbidden-latency matrix (the reduction's input and
    /// its preserved invariant).
    pub matrix: ForbiddenMatrix,
    /// Size of the generating set before pruning.
    pub genset_size: usize,
    /// Size after pruning dominated resources.
    pub pruned_size: usize,
    /// The selected synthesized resources and usages.
    pub selection: Selection,
    /// The reduced machine with one operation per class.
    pub reduced_classes: MachineDescription,
    /// The reduced machine with every original operation (its table is
    /// its class's reduced table); weights and alternative-base links are
    /// preserved, so this is a drop-in replacement for the original.
    pub reduced: MachineDescription,
}

/// Runs the full reduction pipeline on `machine` under `objective`.
///
/// The returned [`Reduction::reduced`] machine produces **exactly** the
/// same forbidden-latency matrix as `machine`
/// (see [`verify_equivalence`](crate::verify_equivalence)), while using
/// far fewer resources and usages.
///
/// # Example
///
/// ```
/// use rmd_core::{reduce, Objective};
/// use rmd_machine::models::mips_r3000;
///
/// let m = mips_r3000();
/// let red = reduce(&m, Objective::ResUses);
/// assert!(red.reduced.num_resources() < m.num_resources());
/// assert!(red.reduced.total_usages() < m.total_usages());
/// ```
///
/// # Panics
///
/// Panics if the internal invariants are violated (e.g. a class ends up
/// with an empty reduced table) — this indicates a bug, not bad input, as
/// any valid machine can be reduced. Callers that must not panic on
/// hostile input should use [`try_reduce`] (typed errors) or
/// [`reduce_with_fallback`](crate::reduce_with_fallback) (graceful
/// degradation to the original tables).
pub fn reduce(machine: &MachineDescription, objective: Objective) -> Reduction {
    try_reduce(machine, objective, &ReduceOptions::default())
        .expect("reduction of a valid machine under default options cannot fail")
}

/// Runs the full reduction pipeline with explicit input validation and an
/// optional step budget, reporting failures as [`RmdError`] instead of
/// panicking.
///
/// # Errors
///
/// - [`RmdError::LimitExceeded`] if the input violates a limit of
///   [`validate_limits`];
/// - [`RmdError::BudgetExhausted`] if [`ReduceOptions::max_steps`] runs
///   out during generating-set construction;
/// - [`RmdError::InvalidMachine`] if an internal build step rejects its
///   machine (unreachable for valid inputs; kept as a typed error so
///   hostile inputs can never convert a bug into a panic).
pub fn try_reduce(
    machine: &MachineDescription,
    objective: Objective,
    options: &ReduceOptions,
) -> Result<Reduction, RmdError> {
    validate_limits(machine)?;
    let mut budget = match options.max_steps {
        Some(limit) => StepBudget::new(limit),
        None => StepBudget::unlimited(),
    };

    // Step 1: classes and the class-level matrix.
    let f_ops = {
        let _s = rmd_obs::span("reduce", "forbidden_matrix");
        ForbiddenMatrix::compute(machine)
    };
    let (classes, class_machine, matrix) = {
        let mut s = rmd_obs::span("reduce", "classes");
        let classes = ClassPartition::compute(machine, &f_ops);
        let class_machine = classes.class_machine(machine)?;
        let matrix = ForbiddenMatrix::compute(&class_machine);
        s.set_arg("classes", matrix.num_ops() as u64);
        (classes, class_machine, matrix)
    };

    // Step 2: generating set of maximal resources.
    let genset = {
        let mut s = rmd_obs::span("reduce", "genset");
        let genset = generating_set_budgeted(&matrix, &mut budget)?;
        s.set_arg("resources", genset.len() as u64);
        genset
    };
    let genset_size = genset.len();
    let pruned = {
        let mut s = rmd_obs::span("reduce", "prune");
        let pruned = prune_dominated(&genset);
        s.set_arg("kept", pruned.len() as u64);
        pruned
    };
    let pruned_size = pruned.len();

    // Cover selection touches every (resource, latency) pair; charge it
    // against the same budget before doing the work.
    budget.charge((pruned.len() as u64).saturating_mul(matrix.num_ops() as u64))?;

    // Step 3: cover selection.
    let selection = {
        let mut s = rmd_obs::span("reduce", "select");
        let selection = select(&matrix, &pruned, objective);
        s.set_arg("selected", selection.resources.len() as u64);
        selection
    };

    let _materialize_span = rmd_obs::span("reduce", "materialize");

    // Materialize the reduced class machine.
    let mut b = MachineBuilder::new(format!("{}-reduced", machine.name()));
    let mut qids = Vec::with_capacity(selection.resources.len());
    for i in 0..selection.resources.len() {
        qids.push(b.resource(format!("q{i}")));
    }
    for (ci, _) in classes.iter() {
        let rep = class_machine.operation(rmd_machine::OpId(ci.0));
        let mut ob = b.operation(rep.name().to_owned()).weight(rep.weight());
        for (ri, r) in selection.resources.iter().enumerate() {
            for u in r.usages() {
                if u.class == ci.0 {
                    ob = ob.usage(qids[ri], u.cycle);
                }
            }
        }
        ob.finish();
    }
    let reduced_classes = b.build()?;

    // Materialize the reduced full machine: each original op carries its
    // class's reduced table.
    let mut b = MachineBuilder::new(format!("{}-reduced", machine.name()));
    for i in 0..selection.resources.len() {
        b.resource(format!("q{i}"));
    }
    for (id, op) in machine.ops() {
        let class_table = reduced_classes
            .operation(rmd_machine::OpId(classes.class_of(id).0))
            .table()
            .clone();
        let mut ob = b.operation(op.name().to_owned()).weight(op.weight());
        if let Some(base) = op.base() {
            ob = ob.base(base.to_owned());
        }
        for u in class_table.usages() {
            ob = ob.usage(u.resource, u.cycle);
        }
        ob.finish();
    }
    let reduced = b.build()?;

    Ok(Reduction {
        classes,
        class_machine,
        matrix,
        genset_size,
        pruned_size,
        selection,
        reduced_classes,
        reduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_equivalence;
    use rmd_machine::models::example_machine;

    #[test]
    fn figure_1_reduction() {
        let m = example_machine();
        let red = reduce(&m, Objective::ResUses);
        assert_eq!(red.reduced.num_resources(), 2);
        // A: 3 usages -> 1, B: 8 usages -> 4.
        let a = red.reduced.operation(red.reduced.op_by_name("A").unwrap());
        let b = red.reduced.operation(red.reduced.op_by_name("B").unwrap());
        assert_eq!(a.table().num_usages(), 1);
        assert_eq!(b.table().num_usages(), 4);
        assert!(verify_equivalence(&m, &red.reduced).is_ok());
    }

    #[test]
    fn reduction_preserves_names_weights_and_order() {
        let m = rmd_machine::models::mips_r3000();
        let red = reduce(&m, Objective::ResUses);
        assert_eq!(red.reduced.num_operations(), m.num_operations());
        for (id, op) in m.ops() {
            let rop = red.reduced.operation(id);
            assert_eq!(op.name(), rop.name());
            assert!((op.weight() - rop.weight()).abs() < 1e-12);
        }
    }

    #[test]
    fn class_members_share_reduced_tables() {
        let m = rmd_machine::models::cydra5();
        let red = reduce(&m, Objective::ResUses);
        let iadd = m.op_by_name("iadd").unwrap();
        let ior = m.op_by_name("ior").unwrap();
        assert_eq!(red.classes.class_of(iadd), red.classes.class_of(ior));
        assert_eq!(
            red.reduced.operation(iadd).table(),
            red.reduced.operation(ior).table()
        );
    }

    #[test]
    fn genset_shrinks_under_pruning() {
        let m = example_machine();
        let red = reduce(&m, Objective::ResUses);
        assert!(red.pruned_size <= red.genset_size);
        assert_eq!(red.pruned_size, 2);
    }
}
