//! Exact equivalence verification between machine descriptions.

use core::fmt;
use rmd_latency::ForbiddenMatrix;
use rmd_machine::MachineDescription;

/// A witness that two machine descriptions are *not* scheduling-
/// equivalent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivalenceError {
    /// The machines declare different numbers of operations.
    OpCountMismatch {
        /// Operation count of the first machine.
        left: usize,
        /// Operation count of the second machine.
        right: usize,
    },
    /// A forbidden latency present in exactly one machine.
    LatencyMismatch {
        /// Name of operation X.
        x: String,
        /// Name of operation Y.
        y: String,
        /// The offending latency.
        latency: i32,
        /// `true` if the first machine forbids it and the second doesn't.
        in_left: bool,
    },
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceError::OpCountMismatch { left, right } => {
                write!(f, "operation counts differ: {left} vs {right}")
            }
            EquivalenceError::LatencyMismatch {
                x,
                y,
                latency,
                in_left,
            } => {
                let (has, lacks) = if *in_left {
                    ("first", "second")
                } else {
                    ("second", "first")
                };
                write!(
                    f,
                    "latency {latency} ∈ F[{x}][{y}] is forbidden by the {has} \
                     machine but not the {lacks}"
                )
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

/// Verifies that `left` and `right` produce identical forbidden-latency
/// matrices — the paper's formal correctness condition for a reduced
/// machine description.
///
/// Operations are matched by position (the reduction preserves operation
/// order), and the first discrepancy is reported with operation names.
///
/// # Errors
///
/// Returns the first [`EquivalenceError`] found, if any.
pub fn verify_equivalence(
    left: &MachineDescription,
    right: &MachineDescription,
) -> Result<(), EquivalenceError> {
    if left.num_operations() != right.num_operations() {
        return Err(EquivalenceError::OpCountMismatch {
            left: left.num_operations(),
            right: right.num_operations(),
        });
    }
    compare(left, &ForbiddenMatrix::compute(left), right)
}

/// The comparison behind [`verify_equivalence`], given `fl`, the
/// forbidden-latency matrix of `left` already computed; `right` has as
/// many operations as `left`.
pub(crate) fn compare(
    left: &MachineDescription,
    fl: &ForbiddenMatrix,
    right: &MachineDescription,
) -> Result<(), EquivalenceError> {
    let fr = ForbiddenMatrix::compute(right);
    for x in 0..fl.num_ops() {
        for y in 0..fl.num_ops() {
            let (sl, sr) = (fl.get_idx(x, y), fr.get_idx(x, y));
            if sl == sr {
                continue;
            }
            // Locate a witness latency.
            for f in sl.iter() {
                if !sr.contains(f) {
                    return Err(EquivalenceError::LatencyMismatch {
                        x: left.operations()[x].name().to_owned(),
                        y: left.operations()[y].name().to_owned(),
                        latency: f,
                        in_left: true,
                    });
                }
            }
            for f in sr.iter() {
                if !sl.contains(f) {
                    return Err(EquivalenceError::LatencyMismatch {
                        x: left.operations()[x].name().to_owned(),
                        y: left.operations()[y].name().to_owned(),
                        latency: f,
                        in_left: false,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::MachineBuilder;

    fn two_op(second_cycle: u32) -> MachineDescription {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("x").usage(r, 0).finish();
        b.operation("y").usage(r, second_cycle).finish();
        b.build().unwrap()
    }

    #[test]
    fn identical_machines_are_equivalent() {
        assert!(verify_equivalence(&two_op(1), &two_op(1)).is_ok());
    }

    #[test]
    fn different_latency_is_reported_with_names() {
        let e = verify_equivalence(&two_op(1), &two_op(2)).unwrap_err();
        match e {
            EquivalenceError::LatencyMismatch { x, y, .. } => {
                assert!(x == "x" || x == "y");
                assert!(y == "x" || y == "y");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn op_count_mismatch_detected() {
        let mut b = MachineBuilder::new("m");
        let r = b.resource("r");
        b.operation("only").usage(r, 0).finish();
        let one = b.build().unwrap();
        let e = verify_equivalence(&one, &two_op(1)).unwrap_err();
        assert_eq!(e, EquivalenceError::OpCountMismatch { left: 1, right: 2 });
        assert_eq!(e.to_string(), "operation counts differ: 1 vs 2");
    }

    #[test]
    fn equivalent_despite_different_resources() {
        // Same constraints expressed with different resource structure.
        let mut b = MachineBuilder::new("m2");
        let r0 = b.resource("a");
        let r1 = b.resource("b");
        b.operation("x").usage(r0, 0).usage(r1, 0).finish();
        b.operation("y").usage(r0, 1).usage(r1, 1).finish();
        let redundant = b.build().unwrap();
        assert!(verify_equivalence(&two_op(1), &redundant).is_ok());
    }
}
