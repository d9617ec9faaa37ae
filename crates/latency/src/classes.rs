//! Operation classes: grouping operations with identical scheduling
//! constraints.

use crate::matrix::ForbiddenMatrix;
use core::fmt;
use rmd_machine::{MachineDescription, MachineError, OpId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Identifies an operation class within a [`ClassPartition`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Returns the id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A partition of a machine's operations into *operation classes*
/// (paper §3, after Proebsting & Fraser): `X` and `Y` share a class iff
/// `F[X][Z] = F[Y][Z]` and `F[Z][X] = F[Z][Y]` for every operation `Z`.
///
/// Classes are what the reduction actually operates on — the paper's
/// tables all report per-class figures (e.g. 52 classes for the Cydra 5's
/// 152 usage patterns).
///
/// # Example
///
/// ```
/// use rmd_machine::models::cydra5;
/// use rmd_latency::{ClassPartition, ForbiddenMatrix};
///
/// let m = cydra5();
/// let f = ForbiddenMatrix::compute(&m);
/// let classes = ClassPartition::compute(&m, &f);
/// assert!(classes.num_classes() <= m.num_operations());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassPartition {
    class_of: Vec<ClassId>,
    members: Vec<Vec<OpId>>,
}

impl ClassPartition {
    /// Computes the class partition of `machine` from its forbidden
    /// matrix.
    ///
    /// Classes are numbered in order of first appearance, so the
    /// representative of class `c` is its lowest-numbered member.
    pub fn compute(machine: &MachineDescription, f: &ForbiddenMatrix) -> Self {
        let n = machine.num_operations();
        assert_eq!(n, f.num_ops(), "matrix must match machine");
        // Ops in one class have `F[X][R] = F[R][R] = F[R][X]`, which
        // rejects most other ops after two cells. Past that, a hash of
        // each op's row and column, read in place and worked out once,
        // leaves only ops that are almost surely equal to compare cell by
        // cell, so no input makes the grouping cubic in the op count.
        let mut keys: Vec<Option<u64>> = vec![None; n];
        let mut key = |x: usize| {
            *keys[x].get_or_insert_with(|| {
                let mut h = DefaultHasher::new();
                for z in 0..n {
                    f.get_idx(x, z).hash(&mut h);
                    f.get_idx(z, x).hash(&mut h);
                }
                h.finish()
            })
        };
        let mut class_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<OpId>> = Vec::new();
        for x in 0..n {
            let found = members.iter().position(|m| {
                let r = m[0].index();
                let own = f.get_idx(r, r);
                f.get_idx(x, r) == own
                    && f.get_idx(r, x) == own
                    && key(r) == key(x)
                    && same_constraints(f, x, r)
            });
            let id = ClassId(found.unwrap_or(members.len()) as u32);
            if found.is_none() {
                members.push(Vec::new());
            }
            members[id.index()].push(OpId(x as u32));
            class_of.push(id);
        }
        ClassPartition { class_of, members }
    }

    /// The class machine's forbidden matrix: `f`, the matrix of the
    /// machine the partition was computed from, restricted to the class
    /// representatives. Each class operation carries its
    /// representative's table, so this equals the matrix of
    /// [`class_machine`](Self::class_machine) without recomputing it.
    pub fn class_matrix(&self, f: &ForbiddenMatrix) -> ForbiddenMatrix {
        let reps: Vec<usize> = self.members.iter().map(|m| m[0].index()).collect();
        f.restrict(&reps)
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.members.len()
    }

    /// The class of operation `op`.
    #[inline]
    pub fn class_of(&self, op: OpId) -> ClassId {
        self.class_of[op.index()]
    }

    /// The operations belonging to `class`, in id order.
    pub fn members(&self, class: ClassId) -> &[OpId] {
        &self.members[class.index()]
    }

    /// The representative (lowest-id member) of `class`.
    pub fn representative(&self, class: ClassId) -> OpId {
        self.members[class.index()][0]
    }

    /// Iterates over `(ClassId, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &[OpId])> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (ClassId(i as u32), m.as_slice()))
    }

    /// Builds the *class machine*: one operation per class, carrying the
    /// representative's reservation table and the summed weight of the
    /// class members. Its forbidden matrix equals the class-level view of
    /// the original machine's, so all reduction work can run on it.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from machine assembly (which cannot
    /// occur for a partition computed from a valid machine).
    pub fn class_machine(
        &self,
        machine: &MachineDescription,
    ) -> Result<MachineDescription, MachineError> {
        let mut b = rmd_machine::MachineBuilder::new(format!("{}-classes", machine.name()));
        for r in machine.resources() {
            b.resource(r.name().to_owned());
        }
        for (c, members) in self.iter() {
            let rep = machine.operation(self.representative(c));
            let weight: f64 = members.iter().map(|&m| machine.operation(m).weight()).sum();
            let mut ob = b.operation(rep.name().to_owned()).weight(weight);
            for u in rep.table().usages() {
                ob = ob.usage(u.resource, u.cycle);
            }
            ob.finish();
        }
        b.build()
    }
}

/// Whether `x` and `r` have equal rows and columns of `f`.
fn same_constraints(f: &ForbiddenMatrix, x: usize, r: usize) -> bool {
    (0..f.num_ops())
        .all(|z| f.get_idx(x, z) == f.get_idx(r, z) && f.get_idx(z, x) == f.get_idx(z, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{all_machines, cydra5};
    use rmd_machine::MachineBuilder;

    #[test]
    fn identical_patterns_share_a_class() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        let s = b.resource("s");
        b.operation("x1").usage(r, 0).finish();
        b.operation("x2").usage(r, 0).finish();
        b.operation("y").usage(s, 0).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let p = ClassPartition::compute(&m, &f);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.class_of(OpId(0)), p.class_of(OpId(1)));
        assert_ne!(p.class_of(OpId(0)), p.class_of(OpId(2)));
        assert_eq!(p.members(p.class_of(OpId(0))), &[OpId(0), OpId(1)]);
    }

    #[test]
    fn different_latency_behaviour_splits_classes() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("short").usage(r, 0).finish();
        b.operation("long").usage(r, 0).usage(r, 1).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let p = ClassPartition::compute(&m, &f);
        assert_eq!(p.num_classes(), 2);
    }

    #[test]
    fn cydra_collapses_equal_patterns() {
        // iadd/isub/iand/ior share a usage pattern; fadd/fsub/fmax too.
        let m = cydra5();
        let f = ForbiddenMatrix::compute(&m);
        let p = ClassPartition::compute(&m, &f);
        assert!(p.num_classes() < m.num_operations());
        let iadd = p.class_of(m.op_by_name("iadd").unwrap());
        let ior = p.class_of(m.op_by_name("ior").unwrap());
        assert_eq!(iadd, ior);
        let fadd = p.class_of(m.op_by_name("fadd").unwrap());
        assert_ne!(iadd, fadd);
    }

    #[test]
    fn class_machine_preserves_class_matrix() {
        for m in all_machines() {
            let f = ForbiddenMatrix::compute(&m);
            let p = ClassPartition::compute(&m, &f);
            let cm = p.class_machine(&m).unwrap();
            let cf = ForbiddenMatrix::compute(&cm);
            assert_eq!(p.class_matrix(&f), cf, "{}", m.name());
            // Each class-machine cell must equal the original cell of the
            // corresponding representatives.
            for (ci, _) in p.iter() {
                for (cj, _) in p.iter() {
                    let ri = p.representative(ci);
                    let rj = p.representative(cj);
                    assert_eq!(
                        cf.get_idx(ci.index(), cj.index()),
                        f.get(ri, rj),
                        "{}: class cell ({ci}, {cj})",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn class_weights_sum_members() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x1").weight(2.0).usage(r, 0).finish();
        b.operation("x2").weight(3.0).usage(r, 0).finish();
        let m = b.build().unwrap();
        let f = ForbiddenMatrix::compute(&m);
        let p = ClassPartition::compute(&m, &f);
        let cm = p.class_machine(&m).unwrap();
        assert_eq!(cm.num_operations(), 1);
        assert!((cm.operations()[0].weight() - 5.0).abs() < 1e-12);
    }
}
