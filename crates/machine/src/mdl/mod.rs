//! MDL — a small textual machine description language.
//!
//! MDL lets machine descriptions live in plain text files that are easy to
//! diff and review, mirroring how production compilers (GCC's `.md` files,
//! LLVM's TableGen itineraries) describe pipelines. The surface syntax:
//!
//! ```text
//! // line comment, /* block comment */
//! machine "cydra5-subset" {
//!     resources {
//!         mem_port0; mem_port1;
//!         fmul_stage[4];        // a bank: fmul_stage0 .. fmul_stage3
//!     }
//!
//!     op load weight 2.0 {
//!         use mem_port0 @ 0;
//!         use fmul_stage0 @ 2..6;   // half-open range: cycles 2,3,4,5
//!     }
//!
//!     op store alt {                // alternative resource usages
//!         { use mem_port0 @ 0; }
//!         { use mem_port1 @ 0; }
//!     }
//! }
//! ```
//!
//! [`parse`] yields an [`AltDescription`]; [`parse_machine`] additionally
//! runs the alternatives expansion of paper §3. [`print()`] renders a
//! description back to MDL text, and parsing its output yields an equal
//! description (round-trip property, tested).
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     machine "toy" {
//!         resources { alu; bus; }
//!         op add { use alu @ 0; use bus @ 1; }
//!     }
//! "#;
//! let (machine, _groups) = rmd_machine::mdl::parse_machine(src).unwrap();
//! assert_eq!(machine.name(), "toy");
//! assert_eq!(machine.num_resources(), 2);
//! ```

mod error;
mod lexer;
mod parser;
mod printer;

pub use error::{ParseError, ParseErrorKind, Span};
pub use parser::SourceMap;
pub use printer::print;

use crate::alternatives::{AltDescription, AltGroups};
use crate::machine::{MachineDescription, MachineError};

/// Parses MDL source into an [`AltDescription`] (alternatives not yet
/// expanded).
///
/// # Errors
///
/// Returns a [`ParseError`] with a source span on malformed input.
pub fn parse(src: &str) -> Result<AltDescription, ParseError> {
    Ok(parse_with_source_map(src)?.0)
}

/// Like [`parse`], but also returns the [`SourceMap`] recording where each
/// resource and operation was declared — the hook external tooling (the
/// `rmd-analyze` linter) uses to attach findings to `.mdl` source lines.
///
/// # Errors
///
/// Returns a [`ParseError`] with a source span on malformed input.
pub fn parse_with_source_map(src: &str) -> Result<(AltDescription, SourceMap), ParseError> {
    let mut p = parser::Parser::new(src)?;
    let desc = p.parse_file()?;
    Ok((desc, p.take_map()))
}

/// Parses MDL source and expands alternatives, yielding the flat
/// [`MachineDescription`] and its [`AltGroups`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or if the expanded machine
/// fails validation. Every error — including post-parse semantic ones —
/// carries a non-empty span into the source.
pub fn parse_machine(src: &str) -> Result<(MachineDescription, AltGroups), ParseError> {
    let (desc, map) = parse_with_source_map(src)?;
    desc.expand()
        .map_err(|e| ParseError::semantic(e.to_string(), semantic_span(&e, &desc, &map)))
}

/// Best-effort span for a post-parse validation failure: point at the
/// offending declaration when the error names one, else at the machine
/// name.
fn semantic_span(e: &MachineError, desc: &AltDescription, map: &SourceMap) -> Span {
    let span = match e {
        MachineError::DuplicateResource(name) => map.resource_span(desc.resource_names(), name),
        MachineError::DuplicateOperation(name) | MachineError::EmptyOperation(name) => {
            let names: Vec<&str> = desc.operations().iter().map(|o| o.name()).collect();
            map.op_span(&names, name)
        }
        _ => None,
    };
    span.unwrap_or(map.machine_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_print_round_trip() {
        let src = r#"
            machine "rt" {
                resources { a; b; stage[2]; }
                op x weight 2.5 { use a @ 0; use stage1 @ 1..4; }
                op y alt {
                    { use a @ 0; }
                    { use b @ 0; }
                }
            }
        "#;
        let (m1, g1) = parse_machine(src).unwrap();
        let (m2, g2) = parse_machine(&print(&m1)).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn machine_round_trip_via_print() {
        let src = r#"
            machine "m" {
                resources { r0; r1; }
                op a { use r0 @ 0, 2; use r1 @ 1; }
            }
        "#;
        let (m1, _) = parse_machine(src).unwrap();
        let printed = print(&m1);
        let (m2, _) = parse_machine(&printed).unwrap();
        assert_eq!(m1, m2);
    }
}
