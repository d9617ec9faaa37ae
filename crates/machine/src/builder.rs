//! Fluent construction of machine descriptions.

use crate::ids::ResourceId;
use crate::machine::{MachineDescription, MachineError, Operation, Resource};
use crate::table::ReservationTable;
use std::collections::HashSet;

/// Builds a [`MachineDescription`] incrementally.
///
/// # Example
///
/// ```
/// use rmd_machine::MachineBuilder;
///
/// let mut b = MachineBuilder::new("mini");
/// let issue = b.resource("issue");
/// let fpa = b.resource("fp-add-stage");
/// b.operation("iadd").usage(issue, 0).finish();
/// b.operation("fadd")
///     .usage(issue, 0)
///     .usage(fpa, 1)
///     .usage(fpa, 2)
///     .finish();
/// let m = b.build().unwrap();
/// assert_eq!(m.num_operations(), 2);
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    name: String,
    resources: Vec<Resource>,
    resource_names: HashSet<String>,
    operations: Vec<Operation>,
    op_names: HashSet<String>,
    error: Option<MachineError>,
}

impl MachineBuilder {
    /// Starts a new builder for a machine called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            resources: Vec::new(),
            resource_names: HashSet::new(),
            operations: Vec::new(),
            op_names: HashSet::new(),
            error: None,
        }
    }

    /// Declares a resource and returns its id.
    ///
    /// Duplicate names are recorded as an error that surfaces from
    /// [`build`](Self::build).
    pub fn resource(&mut self, name: impl Into<String>) -> ResourceId {
        let name = name.into();
        if !self.resource_names.insert(name.clone()) && self.error.is_none() {
            self.error = Some(MachineError::DuplicateResource(name.clone()));
        }
        self.resources.push(Resource::new(name));
        ResourceId((self.resources.len() - 1) as u32)
    }

    /// Starts declaring an operation; finish it with
    /// [`OperationBuilder::finish`].
    pub fn operation(&mut self, name: impl Into<String>) -> OperationBuilder<'_> {
        OperationBuilder {
            machine: self,
            name: name.into(),
            table: ReservationTable::new(),
            base: None,
            weight: 1.0,
        }
    }

    fn push_op(&mut self, op: Operation) {
        if !self.op_names.insert(op.name().to_owned()) && self.error.is_none() {
            self.error = Some(MachineError::DuplicateOperation(op.name().to_owned()));
        }
        self.operations.push(op);
    }

    /// Finishes the build, validating the description.
    ///
    /// # Errors
    ///
    /// Returns the first [`MachineError`] recorded during building, or any
    /// validation error (empty operations, no operations, out-of-range
    /// resource ids).
    pub fn build(self) -> Result<MachineDescription, MachineError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        MachineDescription::assemble(self.name, self.resources, self.operations)
    }
}

/// Builds one operation within a [`MachineBuilder`].
///
/// Returned by [`MachineBuilder::operation`]; call [`finish`](Self::finish)
/// to commit the operation.
#[derive(Debug)]
pub struct OperationBuilder<'m> {
    machine: &'m mut MachineBuilder,
    name: String,
    table: ReservationTable,
    base: Option<String>,
    weight: f64,
}

impl OperationBuilder<'_> {
    /// Reserves `resource` in `cycle` (relative to issue).
    pub fn usage(mut self, resource: ResourceId, cycle: u32) -> Self {
        self.table.reserve(resource, cycle);
        self
    }

    /// Reserves `resource` for the half-open cycle range `from..to`.
    pub fn span(mut self, resource: ResourceId, from: u32, to: u32) -> Self {
        for c in from..to {
            self.table.reserve(resource, c);
        }
        self
    }

    /// Marks this operation as an alternative expanded from `base`
    /// (see [`alternatives`](crate::alternatives)).
    pub fn base(mut self, base: impl Into<String>) -> Self {
        self.base = Some(base.into());
        self
    }

    /// Sets the relative issue frequency used in weighted averages.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Commits the operation to the machine builder.
    pub fn finish(self) {
        let op = Operation::new(self.name, self.table, self.base, self.weight);
        self.machine.push_op(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineError;

    #[test]
    fn duplicate_resource_is_an_error() {
        let mut b = MachineBuilder::new("m");
        b.resource("x");
        let r = b.resource("x");
        b.operation("op").usage(r, 0).finish();
        assert!(matches!(
            b.build(),
            Err(MachineError::DuplicateResource(n)) if n == "x"
        ));
    }

    #[test]
    fn duplicate_operation_is_an_error() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("op").usage(r, 0).finish();
        b.operation("op").usage(r, 1).finish();
        assert!(matches!(
            b.build(),
            Err(MachineError::DuplicateOperation(n)) if n == "op"
        ));
    }

    #[test]
    fn span_reserves_half_open_range() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("op").span(r, 2, 5).finish();
        let m = b.build().unwrap();
        let op = m.operation(m.op_by_name("op").unwrap());
        assert_eq!(op.table().usage_set(r), vec![2, 3, 4]);
    }

    #[test]
    fn weight_and_base_are_recorded() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("mv0")
            .base("mv")
            .weight(0.25)
            .usage(r, 0)
            .finish();
        let m = b.build().unwrap();
        let op = m.operation(m.op_by_name("mv0").unwrap());
        assert_eq!(op.base(), Some("mv"));
        assert!((op.weight() - 0.25).abs() < 1e-12);
    }
}
