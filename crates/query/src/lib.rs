//! The contention query module (paper §7).
//!
//! A scheduler asks, millions of times per compilation: *can operation X
//! be placed in cycle j of the current partial schedule without resource
//! contention?* This crate answers that query against a machine
//! description (original or reduced) using either of the paper's two
//! internal representations of the partial schedule:
//!
//! * [`DiscreteModule`] — a *reserved table* with one entry per
//!   (resource, cycle), each carrying an owner field so that conflicting
//!   operations can be unscheduled (`assign&free`). Query cost is linear
//!   in the operation's resource usages.
//! * [`BitvecModule`] — the flag bits packed `k` cycle-bitvectors per
//!   memory word, so `check` is one AND+test per nonempty word, `assign`
//!   an OR, and `free` an AND-NOT. `assign&free` starts in an
//!   *optimistic* mode without owner fields and falls back to an *update*
//!   mode (rebuilding owners by scanning the scheduled-operation list)
//!   the first time it must unschedule something.
//!
//! Both exist in linear-schedule form and in modulo form
//! ([`ModuloDiscreteModule`], [`ModuloBitvecModule`]) for software
//! pipelining, where a usage in cycle `c` of an operation issued at `t`
//! occupies slot `(t + c) mod II` of a *modulo reservation table*.
//!
//! Every module implements [`ContentionQuery`] and counts the paper's
//! *work units* — one unit per resource usage or nonempty word handled —
//! in a [`WorkCounters`], which is how Table 6 is reproduced.
//!
//! Schedulers that scan many candidate cycles should use the batched
//! window queries ([`ContentionQuery::check_window`] /
//! [`ContentionQuery::first_free_in`]): the bitvector-backed modules
//! answer up to 64 consecutive cycles from a handful of word loads
//! while charging `check` exactly what the equivalent per-cycle loop
//! would have cost, so Table-6 numbers are unchanged and the batching
//! shows up only in the separate `check_window` counter.
//!
//! # Example
//!
//! ```
//! use rmd_machine::models::example_machine;
//! use rmd_query::{ContentionQuery, DiscreteModule, OpInstance};
//!
//! let m = example_machine();
//! let b = m.op_by_name("B").unwrap();
//! let mut q = DiscreteModule::new(&m);
//! assert!(q.check(b, 0));
//! q.assign(OpInstance(0), b, 0);
//! // A second B one cycle later collides (1 ∈ F[B][B]).
//! assert!(!q.check(b, 1));
//! // ... but four cycles later is fine (4 ∉ F[B][B]).
//! assert!(q.check(b, 4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alt;
mod bitvec;
mod compiled;
mod counters;
mod discrete;
mod metered;
mod modulo;
mod registry;
pub mod trace;
mod traits;
mod window;

pub use alt::{check_with_alt, first_free_with_alt};
pub use bitvec::{BitvecModule, WordLayout};
pub use compiled::CompiledUsages;
pub use counters::{FnCounter, QueryFn, WorkCounters};
pub use discrete::DiscreteModule;
pub use metered::MeteredQuery;
pub use modulo::{ModuloBitvecModule, ModuloDiscreteModule, ModuloMaskCache};
pub use registry::OpInstance;
pub use trace::{Answer, ProtocolChecker, ProtocolViolation, QueryEvent, QueryTrace, Response};
pub use traits::ContentionQuery;
