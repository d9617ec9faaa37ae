//! Machine-description model for multipipeline processors.
//!
//! This crate provides the foundation for the reduced-machine-description
//! pipeline of Eichenberger & Davidson (PLDI 1996): a *machine description*
//! is a set of [`ReservationTable`]s, one per operation, written in terms
//! close to the actual hardware structure of a target machine. The rows of a
//! reservation table correspond to distinct [`Resource`]s and its columns to
//! cycles relative to the issue time of the operation; an entry at
//! `(resource, cycle)` means the resource is reserved for exclusive use in
//! that cycle.
//!
//! # Contents
//!
//! * [`MachineDescription`] — the top-level description, built with
//!   [`MachineBuilder`].
//! * [`ReservationTable`] and [`Usage`] — per-operation resource usage.
//! * [`alternatives`] — preprocessing that expands operations with
//!   alternative resource usages into *alternative operations* (paper §3).
//! * [`mdl`] — a small textual machine description language with a lexer,
//!   recursive-descent parser, and pretty-printer.
//! * [`models`] — the paper's running example machine plus descriptions of
//!   the DEC Alpha 21064, MIPS R3000/R3010, and Cydra 5 reconstructed from
//!   public architecture documentation, parsed from the shipped
//!   `machines/*.mdl` files.
//! * [`render`] — ASCII rendering of reservation tables (paper Figures 1
//!   and 4).
//!
//! # Example
//!
//! ```
//! use rmd_machine::{MachineBuilder, MachineDescription};
//!
//! let mut b = MachineBuilder::new("toy");
//! let alu = b.resource("alu");
//! let wb = b.resource("writeback-bus");
//! b.operation("add").usage(alu, 0).usage(wb, 1).finish();
//! b.operation("mul").usage(alu, 0).usage(alu, 1).usage(wb, 3).finish();
//! let machine: MachineDescription = b.build().unwrap();
//! assert_eq!(machine.num_resources(), 2);
//! assert_eq!(machine.num_operations(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alternatives;
mod builder;
mod fingerprint;
pub mod fnv;
mod ids;
mod machine;
pub mod mdl;
pub mod models;
pub mod render;
mod table;

pub use builder::{MachineBuilder, OperationBuilder};
pub use fingerprint::content_fingerprint;
pub use ids::{OpId, ResourceId};
pub use machine::{MachineDescription, MachineError, Operation, Resource};
pub use table::{ReservationTable, Usage};
