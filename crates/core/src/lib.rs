//! The machine-description reduction pipeline of Eichenberger & Davidson
//! (PLDI 1996).
//!
//! Given a machine description written close to the hardware, this crate
//! synthesizes a **reduced** description — far fewer resources and
//! resource usages — whose forbidden-latency matrix is *identical* to the
//! original's, so that contention queries against the reduced tables give
//! exactly the same answers while touching far less state.
//!
//! The pipeline (paper §3–§5):
//!
//! 1. Compute the forbidden-latency matrix and operation classes
//!    (delegated to [`rmd_latency`]).
//! 2. Build the *generating set of maximal resources* from elementary
//!    usage pairs ([`generating_set`], Algorithm 1, Rules 1–4).
//! 3. Prune dominated resources and greedily select a subset of resources
//!    and usages that covers every forbidden latency ([`select`]),
//!    minimizing either total usages ([`Objective::ResUses`], for the
//!    discrete representation) or nonempty k-cycle words
//!    ([`Objective::KCycleWord`], for the bitvector representation).
//! 4. Materialize the reduced machine and verify it: its matrix must
//!    equal the original's bit for bit (Theorem 1). The check compares
//!    against the matrix step 1 computed, and a mismatch is
//!    [`RmdError::VerificationFailed`].
//!
//! [`reduce`] and [`try_reduce`] run the whole pipeline, so every
//! reduction they hand out is already verified, and
//! [`reduce_with_fallback`] hands back the original tables when one
//! fails. [`verify_equivalence`] is the same acceptance test for any
//! two descriptions, re-deriving both matrices.
//!
//! # Example
//!
//! ```
//! use rmd_core::{reduce, verify_equivalence, Objective};
//! use rmd_machine::models::example_machine;
//!
//! let m = example_machine();
//! let red = reduce(&m, Objective::ResUses);
//! // Figure 1d: 2 synthesized resources; A uses 1, B uses 4.
//! assert_eq!(red.reduced.num_resources(), 2);
//! // `reduce` verified this already; the public check agrees.
//! assert!(verify_equivalence(&m, &red.reduced).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod fallback;
pub mod fingerprints;
mod genset;
mod prune;
mod reduce;
mod select;
mod stats;
mod synth;
mod verify;

pub use error::{
    validate_limits, RmdError, StepBudget, MAX_OPERATIONS, MAX_RESOURCES, MAX_TABLE_CYCLES,
    MAX_TOTAL_USAGES,
};
pub use fallback::{reduce_with_fallback, FallbackReduction};
pub use genset::{
    generating_set, generating_set_budgeted, generating_set_traced, GenSetEvent, GenSetTrace,
};
pub use prune::{dominated_by, prune_dominated};
pub use reduce::{reduce, try_reduce, ReduceOptions, Reduction, ReductionFront, REDUCTION_PHASES};
pub use select::{select, Objective, Selection};
pub use stats::avg_word_usages;
pub use synth::{SynthResource, SynthUsage};
pub use verify::{verify_equivalence, EquivalenceError};
