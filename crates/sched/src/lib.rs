//! Schedulers driving the contention query module (paper §8).
//!
//! The paper evaluates its reduced machine descriptions by running Rau's
//! *Iterative Modulo Scheduler* (MICRO-27, 1994) over 1327 loops. This
//! crate implements that scheduler faithfully:
//!
//! * [`DepGraph`] — dependence graphs with `(delay, distance)` edges,
//!   including loop-carried dependences (distance ≥ 1).
//! * [`mii`] — the minimum initiation interval: the maximum of the
//!   resource-constrained bound ([`mii::res_mii`]) and the
//!   recurrence-constrained bound ([`mii::rec_mii`]).
//! * [`IterativeModuloScheduler`] — height-priority scheduling with a
//!   bounded budget of scheduling decisions (6N by default), forced
//!   placement with `assign&free` eviction, and II escalation — the
//!   *unrestricted scheduling model*: operations are placed in arbitrary
//!   order and prior decisions are reversed.
//! * [`ListScheduler`] — an operation-driven acyclic scheduler with
//!   support for dangling resource requirements from predecessor blocks
//!   (paper §1's boundary conditions).
//! * [`validate`] — independent validation of a schedule against *any*
//!   machine description; scheduling with a reduced description and
//!   validating against the original exercises the paper's equivalence
//!   claim end to end.
//!
//! # Example
//!
//! ```
//! use rmd_machine::models::cydra5_subset;
//! use rmd_sched::{DepGraph, DepKind, ImsConfig, IterativeModuloScheduler, Representation};
//!
//! let m = cydra5_subset();
//! let load = m.op_by_name("load.w.0").expect("test setup");
//! let fadd = m.op_by_name("fadd").expect("test setup");
//! let store = m.op_by_name("store.w.0").expect("test setup");
//!
//! // for i { a[i] = b[i] + c } with the add depending on the load.
//! let mut g = DepGraph::new();
//! let n0 = g.add_node(load);
//! let n1 = g.add_node(fadd);
//! let n2 = g.add_node(store);
//! g.add_edge(n0, n1, 21, 0, DepKind::Flow);
//! g.add_edge(n1, n2, 7, 0, DepKind::Flow);
//!
//! let ims = IterativeModuloScheduler::new(ImsConfig::default());
//! let result = ims.schedule(&g, &m, Representation::Discrete).expect("test setup");
//! assert_eq!(result.ii, result.mii); // achieves the minimum II
//! rmd_sched::validate(&g, &m, &result).expect("test setup");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod graph;
mod ims;
mod list;
pub mod mii;
mod scratch;
mod validate;

pub use graph::{DepGraph, DepKind, Edge, NodeId};
pub use ims::{ImsConfig, ImsError, ImsResult, IterativeModuloScheduler, Representation};
pub use list::{schedule_trace, BoundaryOp, ListResult, ListScheduler, TraceResult};
pub use scratch::SchedScratch;
pub use validate::{validate, validate_list, ScheduleError};
