//! Integration tests: the fixture corpus (one seeded defect per lint
//! id) and cleanliness of the shipped machines.

use rmd_analyze::{lint_alt, lint_machine, Report};
use rmd_machine::{mdl, models};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_file(path: &Path) -> Report {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (d, map) =
        mdl::parse_with_source_map(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    lint_alt(&d, Some(&map))
}

#[test]
fn every_fixture_is_flagged_by_its_lint() {
    for id in [
        "RMD-L001", "RMD-L002", "RMD-L003", "RMD-L004", "RMD-L005", "RMD-L006", "RMD-L008",
        "RMD-L009",
    ] {
        let file = format!(
            "l{:03}_{}.mdl",
            id[5..].parse::<u32>().expect("catalog ids are numbered"),
            match id {
                "RMD-L001" => "dead_resource",
                "RMD-L002" => "duplicate_resource",
                "RMD-L003" => "dominated_resource",
                "RMD-L004" => "identical_tables",
                "RMD-L005" => "table_overrun",
                "RMD-L006" => "empty_table",
                "RMD-L008" => "dominated_alternative",
                _ => "redundancy",
            }
        );
        let report = lint_file(&fixture_dir().join(&file));
        assert!(
            report.diagnostics.iter().any(|d| d.id == id),
            "{file} must trigger {id}, got: {}",
            report.render_text()
        );
    }
}

#[test]
fn fixture_spans_point_into_the_source() {
    // Declaration-level findings must carry usable positions.
    let report = lint_file(&fixture_dir().join("l001_dead_resource.mdl"));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.id == "RMD-L001")
        .expect("dead resource flagged");
    let span = d.span.expect("span recorded from the source map");
    assert!(span.line >= 1 && span.column >= 1);
    assert!(report
        .render_text()
        .contains(&format!("{}:{}", span.line, span.column)));
}

#[test]
fn builtin_models_have_no_error_findings() {
    for m in models::all_machines() {
        let report = lint_machine(&m);
        assert_eq!(report.errors(), 0, "{}: {}", m.name(), report.render_text());
    }
}

#[test]
fn builtin_models_have_no_warnings_either() {
    // The CI lint job runs `--deny warnings` over the built-ins; keep
    // this invariant visible locally.
    for m in models::all_machines() {
        let report = lint_machine(&m);
        assert_eq!(
            report.warnings(),
            0,
            "{}: {}",
            m.name(),
            report.render_text()
        );
    }
}

#[test]
fn shipped_mdl_files_are_warning_free() {
    let machines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../machines");
    let mut seen = 0;
    for entry in std::fs::read_dir(&machines).expect("machines/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "mdl") {
            continue;
        }
        seen += 1;
        let report = lint_file(&path);
        assert_eq!(
            report.errors(),
            0,
            "{}: {}",
            path.display(),
            report.render_text()
        );
        assert_eq!(
            report.warnings(),
            0,
            "{}: {}",
            path.display(),
            report.render_text()
        );
    }
    assert!(seen >= 1, "machines/ must ship at least one .mdl");
}
