//! Structured diagnostics: severities, findings, and rendered reports.

use core::fmt;
use rmd_machine::mdl::Span;
use rmd_obs::export::push_json_string;

/// How serious a finding is.
///
/// Ordered most-severe-first so `min` over a report yields the worst
/// finding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// The description is broken: a scheduler driven by it would make
    /// wrong decisions, or the pipeline would reject it outright.
    Error,
    /// Almost certainly a mistake in the description, but one the
    /// pipeline tolerates.
    Warning,
    /// An observation — redundancy reports, merge suggestions.
    Info,
}

impl Severity {
    /// The lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a lint id, a severity, a message, and (when the subject
/// came from MDL source) the declaration span it points at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Catalog id, e.g. `RMD-L001`.
    pub id: &'static str,
    /// Severity the finding was reported at.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Source position of the offending declaration, if known.
    pub span: Option<Span>,
}

/// Every finding for one subject (a file, a built-in model, a trace).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Report {
    /// What was analyzed — a path, a model name, or a trace label.
    pub subject: String,
    /// Content fingerprint of the analyzed machine (`rmd-` + 16 hex
    /// digits), when the subject expanded to a valid description. This
    /// is the same key `rmd serve` caches under and `rmd certify` binds
    /// certificates to, so findings from all three tools can be joined.
    pub fingerprint: Option<String>,
    /// The findings, in registry order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Report {
            subject: subject.into(),
            fingerprint: None,
            diagnostics: Vec::new(),
        }
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Escalates every warning to an error (`--deny warnings`).
    pub fn escalate_warnings(&mut self) {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }

    /// Renders the report for terminals: a one-line summary followed by
    /// one indented line per finding, positions first when known.
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "{}: clean", self.subject);
            return out;
        }
        let _ = writeln!(
            out,
            "{}: {} error(s), {} warning(s), {} info",
            self.subject,
            self.errors(),
            self.warnings(),
            self.count(Severity::Info)
        );
        for d in &self.diagnostics {
            let _ = write!(out, "  {}[{}] ", d.severity, d.id);
            if let Some(s) = d.span {
                let _ = write!(out, "{}:{}: ", s.line, s.column);
            }
            let _ = writeln!(out, "{}", d.message);
        }
        out
    }

    /// Renders the report as a single JSON object on one line:
    /// `{"subject":…,"errors":N,"warnings":N,"infos":N,"diagnostics":[…]}`.
    /// Spans contribute `"line"`/`"column"` keys; spanless findings omit
    /// them.
    pub fn render_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::from("{\"subject\":");
        push_json_string(&mut out, &self.subject);
        out.push(',');
        if let Some(fp) = &self.fingerprint {
            out.push_str("\"fingerprint\":");
            push_json_string(&mut out, fp);
            out.push(',');
        }
        let _ = write!(
            out,
            "\"errors\":{},\"warnings\":{},\"infos\":{},\"diagnostics\":[",
            self.errors(),
            self.warnings(),
            self.count(Severity::Info)
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_string(&mut out, d.id);
            let _ = write!(out, ",\"severity\":\"{}\",\"message\":", d.severity);
            push_json_string(&mut out, &d.message);
            if let Some(s) = d.span {
                let _ = write!(out, ",\"line\":{},\"column\":{}", s.line, s.column);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders the report as a minimal SARIF 2.1.0 log so findings
    /// surface in GitHub code scanning. One run, driver `rmd`; each
    /// diagnostic becomes a result with its catalog id as `ruleId`, the
    /// subject as the artifact URI, and spans as start line/column.
    /// Severities map to SARIF levels: error → `error`, warning →
    /// `warning`, info → `note`.
    pub fn render_sarif(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
        out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":");
        out.push_str("{\"name\":\"rmd\",\"informationUri\":");
        out.push_str("\"https://github.com/rmd-contributors/rmd\"}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let level = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Info => "note",
            };
            out.push_str("{\"ruleId\":");
            push_json_string(&mut out, d.id);
            let _ = write!(out, ",\"level\":\"{level}\",\"message\":{{\"text\":");
            push_json_string(&mut out, &d.message);
            out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
            push_json_string(&mut out, &self.subject);
            out.push('}');
            if let Some(s) = d.span {
                let _ = write!(
                    out,
                    ",\"region\":{{\"startLine\":{},\"startColumn\":{}}}",
                    s.line, s.column
                );
            }
            out.push_str("}}]}");
        }
        out.push_str("]}]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(id: &'static str, sev: Severity, msg: &str) -> Diagnostic {
        Diagnostic {
            id,
            severity: sev,
            message: msg.to_owned(),
            span: None,
        }
    }

    #[test]
    fn counts_follow_escalation() {
        let mut r = Report::new("m");
        r.diagnostics.push(diag("RMD-L001", Severity::Warning, "w"));
        r.diagnostics.push(diag("RMD-L009", Severity::Info, "i"));
        assert_eq!((r.errors(), r.warnings()), (0, 1));
        r.escalate_warnings();
        assert_eq!((r.errors(), r.warnings()), (1, 0));
    }

    #[test]
    fn text_render_is_clean_or_itemized() {
        let mut r = Report::new("m");
        assert_eq!(r.render_text(), "m: clean\n");
        r.diagnostics
            .push(diag("RMD-L006", Severity::Error, "empty table"));
        let t = r.render_text();
        assert!(t.contains("1 error(s)"), "{t}");
        assert!(t.contains("error[RMD-L006] empty table"), "{t}");
    }

    #[test]
    fn json_includes_fingerprint_only_when_known() {
        let mut r = Report::new("fig1");
        assert!(!r.render_json().contains("fingerprint"));
        r.fingerprint = Some("rmd-0123456789abcdef".into());
        let j = r.render_json();
        assert!(
            j.starts_with("{\"subject\":\"fig1\",\"fingerprint\":\"rmd-0123456789abcdef\","),
            "{j}"
        );
    }

    #[test]
    fn sarif_maps_severities_and_spans() {
        use rmd_machine::mdl::Span;
        let mut r = Report::new("machines/example.mdl");
        r.diagnostics
            .push(diag("RMD-L006", Severity::Error, "empty"));
        r.diagnostics.push(Diagnostic {
            id: "RMD-L009",
            severity: Severity::Info,
            message: "redundancy".into(),
            span: Some(Span {
                start: 20,
                end: 25,
                line: 3,
                column: 7,
            }),
        });
        let s = r.render_sarif();
        assert!(s.contains("\"version\":\"2.1.0\""), "{s}");
        assert!(
            s.contains("\"ruleId\":\"RMD-L006\",\"level\":\"error\""),
            "{s}"
        );
        assert!(
            s.contains("\"ruleId\":\"RMD-L009\",\"level\":\"note\""),
            "{s}"
        );
        assert!(
            s.contains("\"region\":{\"startLine\":3,\"startColumn\":7}"),
            "{s}"
        );
        assert!(s.contains("\"uri\":\"machines/example.mdl\""), "{s}");
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let mut r = Report::new("a\"b");
        r.diagnostics.push(diag(
            "RMD-L001",
            Severity::Warning,
            "line1\nline2\ttab\r \\ \u{1}",
        ));
        let j = r.render_json();
        assert!(j.contains("\"subject\":\"a\\\"b\""), "{j}");
        assert!(j.contains("line1\\nline2\\ttab\\r \\\\ \\u0001"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
