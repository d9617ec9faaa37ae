//! Alternative resource usages and their expansion into alternative
//! operations.
//!
//! The reduction machinery of the paper requires every operation to have a
//! *fixed* reservation table. Real machines often let an operation choose
//! among interchangeable resources (e.g. either of two memory ports). The
//! paper's §3 preprocessing replaces such an operation `X` with *alternative
//! operations* `X#0`, `X#1`, ... — one per concrete choice — and the query
//! module's `check_with_alt` later picks whichever alternative fits a given
//! cycle.
//!
//! This module provides [`AltDescription`], a machine description whose
//! operations may carry several candidate reservation tables, and
//! [`AltDescription::expand`], which performs the paper's expansion and
//! returns the flat [`MachineDescription`] together with the
//! [`AltGroups`] mapping needed by `check_with_alt`.
//!
//! # Example
//!
//! ```
//! use rmd_machine::alternatives::AltDescription;
//! use rmd_machine::{ReservationTable, ResourceId};
//!
//! let mut d = AltDescription::new("dual-port");
//! let p0 = d.resource("port0");
//! let p1 = d.resource("port1");
//! d.operation("load")
//!     .alternative(ReservationTable::from_usages([(p0, 0)]))
//!     .alternative(ReservationTable::from_usages([(p1, 0)]))
//!     .finish();
//! let (machine, groups) = d.expand().unwrap();
//! assert_eq!(machine.num_operations(), 2);
//! assert_eq!(groups.alternatives_of(machine.op_by_name("load#1").unwrap()).len(), 2);
//! ```

use crate::ids::{OpId, ResourceId};
use crate::machine::{MachineDescription, MachineError};
use crate::table::ReservationTable;
use crate::MachineBuilder;

/// An operation that may execute using any one of several reservation
/// tables.
#[derive(Clone, PartialEq, Debug)]
pub struct AltOperation {
    name: String,
    alternatives: Vec<ReservationTable>,
    weight: f64,
}

impl AltOperation {
    /// The operation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate reservation tables.
    pub fn alternatives(&self) -> &[ReservationTable] {
        &self.alternatives
    }

    /// Relative issue frequency (defaults to 1.0).
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// A machine description in which operations may have alternative resource
/// usages; expand it with [`expand`](Self::expand) before reduction.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AltDescription {
    name: String,
    resources: Vec<String>,
    ops: Vec<AltOperation>,
}

impl AltDescription {
    /// Starts an empty description named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AltDescription {
            name: name.into(),
            resources: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Declares a resource and returns its id.
    pub fn resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(name.into());
        ResourceId((self.resources.len() - 1) as u32)
    }

    /// Starts declaring an operation with alternatives.
    pub fn operation(&mut self, name: impl Into<String>) -> AltOpBuilder<'_> {
        AltOpBuilder {
            desc: self,
            op: AltOperation {
                name: name.into(),
                alternatives: Vec::new(),
                weight: 1.0,
            },
        }
    }

    /// The declared operations.
    pub fn operations(&self) -> &[AltOperation] {
        &self.ops
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared resource names, in id order.
    pub fn resource_names(&self) -> &[String] {
        &self.resources
    }

    /// Expands every multi-alternative operation into alternative
    /// operations (paper §3) and returns the flat machine description plus
    /// the grouping information.
    ///
    /// Single-alternative operations keep their name; an operation `X` with
    /// `n > 1` alternatives becomes `X#0 .. X#{n-1}`, each carrying
    /// `weight / n` so that weighted averages are preserved.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if the expanded description fails
    /// validation (duplicate names, empty tables, ...).
    pub fn expand(&self) -> Result<(MachineDescription, AltGroups), MachineError> {
        let mut b = MachineBuilder::new(self.name.clone());
        for r in &self.resources {
            b.resource(r.clone());
        }
        let mut groups = Vec::new();
        let mut next_id = 0u32;
        for op in &self.ops {
            let n = op.alternatives.len();
            let mut group = Vec::with_capacity(n.max(1));
            if n == 1 {
                let mut ob = b.operation(op.name.clone()).weight(op.weight);
                for u in op.alternatives[0].usages() {
                    ob = ob.usage(u.resource, u.cycle);
                }
                ob.finish();
                group.push(OpId(next_id));
                next_id += 1;
            } else {
                for (i, alt) in op.alternatives.iter().enumerate() {
                    let mut ob = b
                        .operation(format!("{}#{i}", op.name))
                        .base(op.name.clone())
                        .weight(op.weight / n as f64);
                    for u in alt.usages() {
                        ob = ob.usage(u.resource, u.cycle);
                    }
                    ob.finish();
                    group.push(OpId(next_id));
                    next_id += 1;
                }
            }
            groups.push((op.name.clone(), group));
        }
        let machine = b.build()?;
        let groups = AltGroups::new(groups, machine.num_operations());
        Ok((machine, groups))
    }
}

/// Builds one operation of an [`AltDescription`].
#[derive(Debug)]
pub struct AltOpBuilder<'d> {
    desc: &'d mut AltDescription,
    op: AltOperation,
}

impl AltOpBuilder<'_> {
    /// Adds one candidate reservation table.
    pub fn alternative(mut self, table: ReservationTable) -> Self {
        self.op.alternatives.push(table);
        self
    }

    /// Sets the relative issue frequency.
    pub fn weight(mut self, weight: f64) -> Self {
        self.op.weight = weight;
        self
    }

    /// Commits the operation.
    pub fn finish(self) {
        self.desc.ops.push(self.op);
    }
}

/// Maps expanded alternative operations back to their source operations.
///
/// Produced by [`AltDescription::expand`]; consumed by the query module's
/// `check_with_alt`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AltGroups {
    /// One entry per source operation: `(base name, member ops)`.
    groups: Vec<(String, Vec<OpId>)>,
    /// For each expanded op id: index into `groups`.
    group_of: Vec<usize>,
}

impl AltGroups {
    fn new(groups: Vec<(String, Vec<OpId>)>, num_ops: usize) -> Self {
        let mut group_of = vec![0usize; num_ops];
        for (gi, (_, members)) in groups.iter().enumerate() {
            for &m in members {
                group_of[m.index()] = gi;
            }
        }
        AltGroups { groups, group_of }
    }

    /// Builds a grouping from explicit `(base name, members)` lists over
    /// the operations of `m` — for machines whose alternatives were
    /// written as distinct operations rather than expanded from an
    /// [`AltDescription`] (e.g. the per-port load/store classes of the
    /// Cydra 5 model). Operations not mentioned become single-member
    /// groups, so `from_groups(m, Vec::new())` puts every operation in a
    /// group of its own.
    ///
    /// # Panics
    ///
    /// Panics if a member id is out of range or listed twice.
    pub fn from_groups(m: &MachineDescription, groups: Vec<(String, Vec<OpId>)>) -> Self {
        let mut seen = vec![false; m.num_operations()];
        let mut all = Vec::new();
        for (name, members) in groups {
            for &mem in &members {
                assert!(!seen[mem.index()], "operation {mem} appears in two groups");
                seen[mem.index()] = true;
            }
            all.push((name, members));
        }
        for (id, op) in m.ops() {
            if !seen[id.index()] {
                all.push((op.name().to_owned(), vec![id]));
            }
        }
        Self::new(all, m.num_operations())
    }

    /// The alternative operations expanded from the same source as `op`
    /// (always includes `op` itself).
    pub fn alternatives_of(&self, op: OpId) -> &[OpId] {
        &self.groups[self.group_of[op.index()]].1
    }

    /// Iterates over `(base name, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[OpId])> {
        self.groups.iter().map(|(n, g)| (n.as_str(), g.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_alternative_keeps_name() {
        let mut d = AltDescription::new("m");
        let r = d.resource("r");
        d.operation("add")
            .alternative(ReservationTable::from_usages([(r, 0)]))
            .finish();
        let (m, g) = d.expand().unwrap();
        assert_eq!(m.operations()[0].name(), "add");
        assert_eq!(m.operations()[0].base(), None);
        assert_eq!(g.alternatives_of(OpId(0)), &[OpId(0)]);
    }

    #[test]
    fn multi_alternative_expands_with_hash_names() {
        let mut d = AltDescription::new("m");
        let p0 = d.resource("p0");
        let p1 = d.resource("p1");
        d.operation("load")
            .alternative(ReservationTable::from_usages([(p0, 0)]))
            .alternative(ReservationTable::from_usages([(p1, 0)]))
            .finish();
        let (m, g) = d.expand().unwrap();
        assert_eq!(m.num_operations(), 2);
        assert_eq!(m.operations()[0].name(), "load#0");
        assert_eq!(m.operations()[1].name(), "load#1");
        assert_eq!(m.operations()[0].base(), Some("load"));
        assert_eq!(g.alternatives_of(OpId(1)), &[OpId(0), OpId(1)]);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            [("load", &[OpId(0), OpId(1)][..])]
        );
    }

    #[test]
    fn weights_split_across_alternatives() {
        let mut d = AltDescription::new("m");
        let p0 = d.resource("p0");
        let p1 = d.resource("p1");
        d.operation("ld")
            .weight(2.0)
            .alternative(ReservationTable::from_usages([(p0, 0)]))
            .alternative(ReservationTable::from_usages([(p1, 0)]))
            .finish();
        let (m, _) = d.expand().unwrap();
        assert!((m.operations()[0].weight() - 1.0).abs() < 1e-12);
        assert!((m.operations()[1].weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_groups_every_op_alone() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        b.operation("y").usage(r, 1).finish();
        let m = b.build().unwrap();
        let g = AltGroups::from_groups(&m, Vec::new());
        assert_eq!(g.alternatives_of(OpId(1)), &[OpId(1)]);
        assert_eq!(
            g.iter().collect::<Vec<_>>(),
            [("x", &[OpId(0)][..]), ("y", &[OpId(1)][..])]
        );
    }
}
