//! The lint runners.

use crate::diag::{Diagnostic, Report, Severity};
use crate::lints::{Findings, CATALOG};
use crate::model::LintSubject;
use rmd_machine::alternatives::AltDescription;
use rmd_machine::mdl::SourceMap;
use rmd_machine::MachineDescription;

/// Id of the pseudo-lint reporting that a parsed description does not
/// expand into a valid machine at all.
pub const INVALID_MACHINE: &str = "RMD-L000";

/// Runs every catalog lint over `subject`.
///
/// A subject that failed to expand additionally yields one
/// [`INVALID_MACHINE`] error carrying the expansion failure.
pub fn lint_subject(subject: &LintSubject) -> Report {
    let mut report = Report::new(subject.name());
    report.fingerprint = subject.machine().map(rmd_machine::content_fingerprint);
    if let Some(e) = subject.expand_error() {
        report.diagnostics.push(Diagnostic {
            id: INVALID_MACHINE,
            severity: Severity::Error,
            message: format!("description does not expand into a valid machine: {e}"),
            span: None,
        });
    }
    for &(id, severity, body) in CATALOG {
        let out = &mut report.diagnostics;
        body(subject, &mut Findings { id, severity, out });
    }
    report
}

/// Lints an already-expanded machine (a built-in model, a reduction
/// output).
pub fn lint_machine(m: &MachineDescription) -> Report {
    lint_subject(&LintSubject::from_machine(m))
}

/// Lints a parsed (pre-expansion) description, attaching declaration
/// spans when a [`SourceMap`] is supplied.
pub fn lint_alt(d: &AltDescription, map: Option<&SourceMap>) -> Report {
    lint_subject(&LintSubject::from_alt(d, map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::mdl;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = CATALOG.iter().map(|&(id, ..)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CATALOG.len(), "duplicate lint ids: {ids:?}");
        assert_eq!(ids, sorted, "registry must stay in catalog order");
        assert!(ids.iter().all(|i| i.starts_with("RMD-L")));
    }

    #[test]
    fn unexpandable_machine_reports_l000() {
        let (d, map) = mdl::parse_with_source_map(
            r#"machine "m" { resources { r; } op nop { } op x { use r @ 0; } }"#,
        )
        .expect("parses");
        let r = lint_alt(&d, Some(&map));
        assert!(
            r.diagnostics.iter().any(|d| d.id == INVALID_MACHINE),
            "{r:?}"
        );
        assert!(r.errors() >= 1);
        assert!(r.fingerprint.is_none(), "no fingerprint without a machine");
    }

    #[test]
    fn reports_carry_the_machine_content_fingerprint() {
        let m = rmd_machine::models::example_machine();
        let r = lint_machine(&m);
        assert_eq!(r.fingerprint, Some(rmd_machine::content_fingerprint(&m)));
    }
}
