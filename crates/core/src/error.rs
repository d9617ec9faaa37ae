//! The workspace-wide error taxonomy and input-validation limits.
//!
//! Every fallible public entry point across the reduction pipeline
//! reports failures through [`RmdError`] — a hand-rolled, dependency-free
//! enum — instead of panicking. Errors sort into four families:
//!
//! - **Input errors** ([`RmdError::InvalidMachine`], [`RmdError::Parse`],
//!   [`RmdError::LimitExceeded`]): the caller handed us something
//!   malformed or unreasonably large.
//! - **Verification errors** ([`RmdError::VerificationFailed`]): a
//!   reduction's forbidden-latency matrix diverged from the original's —
//!   the one failure the paper's Theorem 1 says must never reach a
//!   scheduler.
//! - **Resource-exhaustion errors** ([`RmdError::BudgetExhausted`]): a
//!   configurable step budget ran out mid-pipeline.
//! - **Scheduling errors** ([`RmdError::Unschedulable`]): no feasible
//!   initiation interval within the configured range.

use crate::verify::EquivalenceError;
use core::fmt;
use rmd_machine::mdl::ParseError;
use rmd_machine::{MachineDescription, MachineError};

/// The unified error type for the reduction pipeline and its drivers.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum RmdError {
    /// The machine description violates a structural invariant.
    InvalidMachine(MachineError),
    /// An MDL source failed to parse.
    Parse(ParseError),
    /// An explicit resource limit was exceeded.
    LimitExceeded {
        /// Which limit (e.g. "resources", "operations", "table cycles").
        what: &'static str,
        /// The observed value.
        value: u64,
        /// The configured maximum.
        limit: u64,
    },
    /// A reduced description failed exact-equivalence verification
    /// against its original.
    VerificationFailed(EquivalenceError),
    /// The configured step budget ran out before the pipeline finished.
    BudgetExhausted {
        /// Steps charged when the budget tripped.
        steps: u64,
    },
    /// No feasible initiation interval within the configured range.
    Unschedulable {
        /// The largest II attempted.
        max_ii: u32,
    },
    /// An I/O failure (file read/write), carried as a message to keep
    /// the error `Clone + PartialEq`.
    Io(String),
}

impl fmt::Display for RmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmdError::InvalidMachine(e) => write!(f, "invalid machine: {e}"),
            RmdError::Parse(e) => write!(f, "parse error: {e}"),
            RmdError::LimitExceeded { what, value, limit } => {
                write!(f, "limit exceeded: {value} {what} (maximum {limit})")
            }
            RmdError::VerificationFailed(e) => {
                write!(f, "reduction failed equivalence verification: {e}")
            }
            RmdError::BudgetExhausted { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            RmdError::Unschedulable { max_ii } => {
                write!(f, "no feasible initiation interval up to {max_ii}")
            }
            RmdError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for RmdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RmdError::InvalidMachine(e) => Some(e),
            RmdError::Parse(e) => Some(e),
            RmdError::VerificationFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for RmdError {
    fn from(e: MachineError) -> Self {
        RmdError::InvalidMachine(e)
    }
}

impl From<ParseError> for RmdError {
    fn from(e: ParseError) -> Self {
        RmdError::Parse(e)
    }
}

impl From<EquivalenceError> for RmdError {
    fn from(e: EquivalenceError) -> Self {
        RmdError::VerificationFailed(e)
    }
}

/// Most resources a machine may declare. The four input limits are far
/// above any real machine model but low enough to reject adversarial
/// inputs long before they can exhaust memory or overflow latency
/// arithmetic; [`validate_limits`] applies them.
pub const MAX_RESOURCES: usize = 4096;
/// Most operations a machine may declare.
pub const MAX_OPERATIONS: usize = 4096;
/// Longest reservation table, in cycles.
pub const MAX_TABLE_CYCLES: u32 = 1 << 16;
/// Most usages summed over all operations.
pub const MAX_TOTAL_USAGES: usize = 1 << 20;

// Forbidden latencies span `-(len-1) ..= len-1` and are computed in
// `i32`, so the table-length limit must stay far below `i32::MAX`.
const _: () = assert!(MAX_TABLE_CYCLES <= i32::MAX as u32 / 4);

/// Validates `machine` against the input limits ([`MAX_RESOURCES`],
/// [`MAX_OPERATIONS`], [`MAX_TABLE_CYCLES`], [`MAX_TOTAL_USAGES`]).
///
/// # Errors
///
/// Returns [`RmdError::LimitExceeded`] naming the first violated limit.
pub fn validate_limits(machine: &MachineDescription) -> Result<(), RmdError> {
    if machine.num_resources() > MAX_RESOURCES {
        return Err(RmdError::LimitExceeded {
            what: "resources",
            value: machine.num_resources() as u64,
            limit: MAX_RESOURCES as u64,
        });
    }
    if machine.num_operations() > MAX_OPERATIONS {
        return Err(RmdError::LimitExceeded {
            what: "operations",
            value: machine.num_operations() as u64,
            limit: MAX_OPERATIONS as u64,
        });
    }
    let mut total_usages = 0usize;
    for (_, op) in machine.ops() {
        let len = op.table().length();
        if len > MAX_TABLE_CYCLES {
            return Err(RmdError::LimitExceeded {
                what: "table cycles",
                value: u64::from(len),
                limit: u64::from(MAX_TABLE_CYCLES),
            });
        }
        total_usages += op.table().num_usages();
    }
    if total_usages > MAX_TOTAL_USAGES {
        return Err(RmdError::LimitExceeded {
            what: "total usages",
            value: total_usages as u64,
            limit: MAX_TOTAL_USAGES as u64,
        });
    }
    Ok(())
}

/// A countdown of pipeline work: each unit is roughly one usage-pair
/// consideration in generating-set construction. When it hits zero, the
/// pipeline stops with [`RmdError::BudgetExhausted`] instead of running
/// unbounded on pathological inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepBudget {
    limit: u64,
    used: u64,
}

impl StepBudget {
    /// A budget of `limit` steps.
    pub fn new(limit: u64) -> Self {
        StepBudget { limit, used: 0 }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> Self {
        StepBudget::new(u64::MAX)
    }

    /// Steps charged so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Charges `n` steps.
    ///
    /// # Errors
    ///
    /// Returns [`RmdError::BudgetExhausted`] once the total exceeds the
    /// limit; the pipeline unwinds and the caller decides what to do
    /// (typically fall back to the original tables).
    pub fn charge(&mut self, n: u64) -> Result<(), RmdError> {
        self.used = self.used.saturating_add(n);
        if self.used > self.limit {
            Err(RmdError::BudgetExhausted { steps: self.used })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::MachineBuilder;

    #[test]
    fn default_limits_admit_real_models() {
        for m in rmd_machine::models::all_machines() {
            assert!(validate_limits(&m).is_ok(), "{}", m.name());
        }
    }

    #[test]
    fn tight_limits_reject_with_the_right_name() {
        let mut b = MachineBuilder::new("wide");
        let rs: Vec<_> = (0..=MAX_RESOURCES)
            .map(|i| b.resource(format!("r{i}")))
            .collect();
        b.operation("x").usage(rs[0], 0).finish();
        match validate_limits(&b.build().unwrap()) {
            Err(RmdError::LimitExceeded { what, value, limit }) => {
                assert_eq!(what, "resources");
                assert_eq!((value, limit), (4097, 4096));
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
        let mut b = MachineBuilder::new("long");
        let r = b.resource("r");
        b.operation("x").usage(r, MAX_TABLE_CYCLES).finish();
        assert!(matches!(
            validate_limits(&b.build().unwrap()),
            Err(RmdError::LimitExceeded {
                what: "table cycles",
                ..
            })
        ));
    }

    #[test]
    fn budget_trips_exactly_once_exceeded() {
        let mut b = StepBudget::new(10);
        assert!(b.charge(10).is_ok());
        assert_eq!(b.used(), 10);
        match b.charge(1) {
            Err(RmdError::BudgetExhausted { steps }) => assert_eq!(steps, 11),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_their_family() {
        let e = RmdError::LimitExceeded {
            what: "resources",
            value: 5,
            limit: 2,
        };
        assert_eq!(e.to_string(), "limit exceeded: 5 resources (maximum 2)");
        assert!(RmdError::BudgetExhausted { steps: 3 }
            .to_string()
            .contains("3 steps"));
    }

    #[test]
    fn conversions_wrap_sources() {
        let me = MachineError::NoOperations;
        let e: RmdError = me.clone().into();
        assert_eq!(e, RmdError::InvalidMachine(me));
        assert!(std::error::Error::source(&e).is_some());
    }
}
