//! Static analysis for machine descriptions: the `rmd lint` linter.
//!
//! The description lints (`RMD-L001` …) inspect a machine description
//! — parsed MDL with its pre-expansion alternative structure and
//! declaration spans, or an already-built
//! [`MachineDescription`](rmd_machine::MachineDescription) — for
//! declaration smells (dead, duplicate, dominated resources; dominated
//! alternatives; empty or over-long tables), violations of the
//! forbidden-matrix invariants the pipeline rests on (paper §3), and
//! redundancy headroom the reduction could reclaim (paper §5). See the
//! [`lints`] catalog.
//!
//! Findings are [`Diagnostic`]s with a stable catalog id, a
//! [`Severity`], and (for MDL input) the declaration span to point an
//! editor at; a [`Report`] renders them as terminal text or one-line
//! JSON. The `rmd lint` command and the `lint-machines` CI job are thin
//! wrappers over [`lint_alt`] / [`lint_machine`].
//!
//! # Example
//!
//! ```
//! use rmd_analyze::{lint_alt, Severity};
//! use rmd_machine::mdl;
//!
//! let src = r#"machine "m" {
//!     resources { alu; spare; }
//!     op add { use alu @ 0; }
//! }"#;
//! let (d, map) = mdl::parse_with_source_map(src).unwrap();
//! let report = lint_alt(&d, Some(&map));
//! // `spare` is never used: RMD-L001, a warning.
//! assert_eq!(report.errors(), 0);
//! assert!(report.diagnostics.iter().any(|d| d.id == "RMD-L001"));
//! assert_eq!(report.worst(), Some(Severity::Warning));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diag;
mod lint;
pub mod lints;
mod model;

pub use diag::{Diagnostic, Report, Severity};
pub use lint::{lint_alt, lint_machine, lint_subject, INVALID_MACHINE};
pub use model::{LintSubject, OpGroup};
