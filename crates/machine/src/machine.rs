//! The top-level machine description.

use crate::ids::{OpId, ResourceId};
use crate::table::ReservationTable;
use core::fmt;
use std::collections::HashMap;

/// A named hardware resource (pipeline stage, bus, register port, ...).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Resource {
    name: String,
}

impl Resource {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Resource { name: name.into() }
    }

    /// The resource's declared name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A named operation together with its resource requirements.
#[derive(Clone, PartialEq, Debug)]
pub struct Operation {
    name: String,
    table: ReservationTable,
    /// For operations produced by alternatives expansion: the name of the
    /// original operation they were expanded from.
    base: Option<String>,
    /// Relative issue frequency used when averaging per-operation metrics.
    weight: f64,
}

impl Operation {
    pub(crate) fn new(
        name: impl Into<String>,
        table: ReservationTable,
        base: Option<String>,
        weight: f64,
    ) -> Self {
        Operation {
            name: name.into(),
            table,
            base,
            weight,
        }
    }

    /// The operation's declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation's reservation table.
    pub fn table(&self) -> &ReservationTable {
        &self.table
    }

    /// For alternative operations (paper §3), the original operation this
    /// one was expanded from; `None` for ordinary operations.
    pub fn base(&self) -> Option<&str> {
        self.base.as_deref()
    }

    /// Relative issue frequency (defaults to 1.0).
    pub fn weight(&self) -> f64 {
        self.weight
    }
}

/// Errors arising while building or validating a machine description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// Two resources were declared with the same name.
    DuplicateResource(String),
    /// Two operations were declared with the same name.
    DuplicateOperation(String),
    /// An operation reserves no resources; such an operation can never
    /// conflict and the reduction algorithms require every operation to
    /// have at least the 0 self-contention latency.
    EmptyOperation(String),
    /// The description declares no operations.
    NoOperations,
    /// A usage refers to a resource id that was never declared.
    UnknownResource {
        /// The operation whose table holds the dangling reference.
        operation: String,
        /// The undeclared resource id.
        resource: ResourceId,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::DuplicateResource(n) => {
                write!(f, "duplicate resource name `{n}`")
            }
            MachineError::DuplicateOperation(n) => {
                write!(f, "duplicate operation name `{n}`")
            }
            MachineError::EmptyOperation(n) => {
                write!(f, "operation `{n}` reserves no resources")
            }
            MachineError::NoOperations => write!(f, "machine declares no operations"),
            MachineError::UnknownResource {
                operation,
                resource,
            } => {
                write!(
                    f,
                    "operation `{operation}` uses undeclared resource {resource}"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A complete machine description: a resource set plus one reservation
/// table per operation (paper §3).
///
/// Construct one with [`MachineBuilder`](crate::MachineBuilder), parse one
/// from text with [`mdl::parse`](crate::mdl::parse), or use a prebuilt
/// model from [`models`](crate::models).
#[derive(Clone, PartialEq, Debug)]
pub struct MachineDescription {
    name: String,
    resources: Vec<Resource>,
    operations: Vec<Operation>,
    op_index: HashMap<String, OpId>,
}

impl MachineDescription {
    pub(crate) fn assemble(
        name: String,
        resources: Vec<Resource>,
        operations: Vec<Operation>,
    ) -> Result<Self, MachineError> {
        if operations.is_empty() {
            return Err(MachineError::NoOperations);
        }
        for op in &operations {
            if op.table().is_empty() {
                return Err(MachineError::EmptyOperation(op.name().to_owned()));
            }
            for u in op.table().usages() {
                if u.resource.index() >= resources.len() {
                    return Err(MachineError::UnknownResource {
                        operation: op.name().to_owned(),
                        resource: u.resource,
                    });
                }
            }
        }
        let op_index = operations
            .iter()
            .enumerate()
            .map(|(i, op)| (op.name().to_owned(), OpId(i as u32)))
            .collect();
        Ok(MachineDescription {
            name,
            resources,
            operations,
            op_index,
        })
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared resources.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of declared operations.
    pub fn num_operations(&self) -> usize {
        self.operations.len()
    }

    /// All resources, indexable by [`ResourceId`].
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// All operations, indexable by [`OpId`].
    pub fn operations(&self) -> &[Operation] {
        &self.operations
    }

    /// The resource with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this machine.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// The operation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this machine.
    pub fn operation(&self, id: OpId) -> &Operation {
        &self.operations[id.index()]
    }

    /// Looks up an operation by name.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.op_index.get(name).copied()
    }

    /// Iterates over `(OpId, &Operation)` pairs.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.operations
            .iter()
            .enumerate()
            .map(|(i, op)| (OpId(i as u32), op))
    }

    /// Total number of resource usages across all reservation tables.
    pub fn total_usages(&self) -> usize {
        self.operations.iter().map(|o| o.table().num_usages()).sum()
    }

    /// Average number of resource usages per operation (uniform weights,
    /// as assumed in the paper's §6 tables).
    pub fn avg_usages_per_op(&self) -> f64 {
        self.total_usages() as f64 / self.num_operations() as f64
    }

    /// The longest reservation table, in cycles.
    pub fn max_table_length(&self) -> u32 {
        self.operations
            .iter()
            .map(|o| o.table().length())
            .max()
            .unwrap_or(0)
    }

    /// Returns a new description containing only the named operations, with
    /// resources no remaining operation uses removed (ids are renumbered).
    ///
    /// This mirrors the paper's Table 2 / Figure 4 "subset of the Cydra 5
    /// actually used in the 1327 loop benchmark".
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoOperations`] if `names` matches nothing;
    /// unknown names are ignored.
    pub fn restrict(&self, names: &[&str]) -> Result<MachineDescription, MachineError> {
        let keep: Vec<&Operation> = names
            .iter()
            .filter_map(|n| self.op_by_name(n))
            .map(|id| self.operation(id))
            .collect();
        // Which resources survive?
        let mut used = vec![false; self.resources.len()];
        for op in &keep {
            for u in op.table().usages() {
                used[u.resource.index()] = true;
            }
        }
        let mut remap: Vec<Option<ResourceId>> = vec![None; self.resources.len()];
        let mut resources = Vec::new();
        for (i, r) in self.resources.iter().enumerate() {
            if used[i] {
                remap[i] = Some(ResourceId(resources.len() as u32));
                resources.push(r.clone());
            }
        }
        let operations = keep
            .into_iter()
            .map(|op| {
                let table = op
                    .table()
                    .usages()
                    .iter()
                    .map(|u| (remap[u.resource.index()].expect("used resource"), u.cycle))
                    .collect();
                Operation::new(
                    op.name().to_owned(),
                    table,
                    op.base().map(str::to_owned),
                    op.weight(),
                )
            })
            .collect();
        MachineDescription::assemble(format!("{}-subset", self.name), resources, operations)
    }
}

impl fmt::Display for MachineDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine `{}`: {} resources, {} operations, {} usages",
            self.name,
            self.num_resources(),
            self.num_operations(),
            self.total_usages()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{MachineBuilder, MachineError};

    #[test]
    fn assemble_rejects_empty_operation() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("ok").usage(r, 0).finish();
        b.operation("bad").finish();
        assert!(matches!(
            b.build(),
            Err(MachineError::EmptyOperation(n)) if n == "bad"
        ));
    }

    #[test]
    fn assemble_rejects_no_operations() {
        let mut b = MachineBuilder::new("m");
        b.resource("r");
        assert!(matches!(b.build(), Err(MachineError::NoOperations)));
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        b.operation("y").usage(r, 1).finish();
        let m = b.build().unwrap();
        let y = m.op_by_name("y").unwrap();
        assert_eq!(m.operation(y).name(), "y");
        assert_eq!(m.op_by_name("z"), None);
    }

    #[test]
    fn display_summarizes() {
        let mut b = MachineBuilder::new("toy");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        let m = b.build().unwrap();
        assert_eq!(
            m.to_string(),
            "machine `toy`: 1 resources, 1 operations, 1 usages"
        );
    }

    #[test]
    fn stats_count_usages() {
        let mut b = MachineBuilder::new("m");
        let r0 = b.resource("a");
        let r1 = b.resource("b");
        b.operation("x").usage(r0, 0).usage(r1, 1).finish();
        b.operation("y").usage(r1, 5).finish();
        let m = b.build().unwrap();
        assert_eq!(m.total_usages(), 3);
        assert!((m.avg_usages_per_op() - 1.5).abs() < 1e-12);
        assert_eq!(m.max_table_length(), 6);
    }
}
