//! Finite-state-automata hazard detection — the approach the paper
//! compares against (its §2 related work).
//!
//! Proebsting & Fraser (POPL '94) build a deterministic automaton whose
//! states are *resource commitment matrices*: the set of future resource
//! reservations outstanding relative to the current cycle. Issuing an
//! operation is legal iff its reservation table is disjoint from the
//! state; a distinguished *cycle-advance* transition shifts the state one
//! cycle. Müller (MICRO-26) and Bala & Rubin (MICRO-28) extend the idea
//! with factored automata (conjunction of smaller automata over resource
//! subsets) and a forward/reverse pair for unrestricted scheduling.
//!
//! This crate implements:
//!
//! * [`Automaton`] — forward (or reverse) automaton built by BFS over
//!   commitment states, with issue and advance transitions.
//! * [`Cursor`] — a cycle-ordered scheduling interface over an automaton.
//! * [`FactoredAutomata`] — a set of automata over a resource partition,
//!   accepting the intersection language.
//! * [`cost`] — the memory model used in the paper's §6 comparison
//!   (automaton tables vs. reserved bitvectors; state bits per schedule
//!   cycle).
//!
//! # Example
//!
//! ```
//! use rmd_automata::{Automaton, Direction};
//! use rmd_machine::models::example_machine;
//!
//! let m = example_machine();
//! let fsa = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
//! let b = m.op_by_name("B").unwrap();
//! let s0 = fsa.start();
//! let s1 = fsa.issue(s0, b).expect("B issues into an empty pipeline");
//! // A second B in the same cycle conflicts (0 ∈ F[B][B]):
//! assert!(fsa.issue(s1, b).is_none());
//! // After one cycle advance it still conflicts (1 ∈ F[B][B]):
//! assert!(fsa.issue(fsa.advance(s1), b).is_none());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod automaton;
pub mod cost;
mod cursor;
mod factored;
mod minimize;
mod module;
mod space;
mod state;
pub mod unrestricted;

pub use automaton::{Automaton, BuildError, Direction, StateId};
pub use cursor::Cursor;
pub use factored::{partition_resources, FactoredAutomata};
pub use minimize::{minimize, Minimized};
pub use module::AutomataModule;
pub use space::StateSpace;
pub use state::StateArena;
