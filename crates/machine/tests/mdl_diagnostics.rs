//! Table-driven parser diagnostics over malformed `.mdl` inputs.
//!
//! Each case takes the shipped `machines/vliw_dsp.mdl` description and
//! applies one targeted source mutation — an unknown keyword, a
//! duplicate resource declaration, an out-of-range cycle, and friends —
//! then asserts the parser rejects it with the right [`ParseErrorKind`],
//! a span pointing at the mutated line, and a human-readable message.

use rmd_machine::mdl::{parse_machine, ParseError, ParseErrorKind};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/vliw_dsp.mdl");

fn fixture_source() -> String {
    std::fs::read_to_string(FIXTURE).expect("machines/vliw_dsp.mdl ships with the repo")
}

struct Case {
    name: &'static str,
    /// Unique substring of the pristine fixture to replace (first
    /// occurrence only, so repeated lines stay unambiguous).
    find: &'static str,
    replace: &'static str,
    /// Expected 1-based line of the reported span.
    line: u32,
    /// Expected 1-based column, if the case pins one down.
    column: Option<u32>,
    /// Substring the rendered diagnostic must contain.
    message: &'static str,
    /// Kind-level predicate.
    kind: fn(&ParseErrorKind) -> bool,
}

const CASES: &[Case] = &[
    Case {
        name: "unknown keyword in the resources header",
        find: "resources {",
        replace: "resourcez {",
        line: 6,
        column: Some(5),
        message: "expected `resources`",
        kind: |k| matches!(k, ParseErrorKind::Expected { .. }),
    },
    Case {
        name: "unknown keyword in place of `op`",
        find: "op store {",
        replace: "operation store {",
        line: 46,
        column: Some(5),
        message: "expected `op`",
        kind: |k| matches!(k, ParseErrorKind::Expected { .. }),
    },
    Case {
        name: "duplicate resource declaration",
        find: "mem_port;",
        replace: "mem_port; coeff_bus;",
        // Semantic errors point at the offending (re)declaration.
        line: 13,
        column: Some(19),
        message: "duplicate resource name `coeff_bus`",
        kind: |k| matches!(k, ParseErrorKind::Semantic(_)),
    },
    Case {
        name: "cycle too large for a u32",
        find: "use sreg_wr @ 12;",
        replace: "use sreg_wr @ 4294967296;",
        line: 38,
        column: Some(23),
        message: "expected integer, found number `4294967296`",
        kind: |k| matches!(k, ParseErrorKind::Expected { .. }),
    },
    Case {
        name: "empty cycle range",
        find: "use sdiv @ 0..11;",
        replace: "use sdiv @ 11..11;",
        line: 37,
        column: None,
        message: "empty cycle range",
        kind: |k| matches!(k, ParseErrorKind::EmptyRange),
    },
    Case {
        name: "use of an undeclared resource",
        find: "use mem_port @ 1",
        replace: "use mem_bus @ 1",
        line: 42,
        column: None,
        message: "unknown resource `mem_bus`",
        kind: |k| matches!(k, ParseErrorKind::UnknownResource(n) if n == "mem_bus"),
    },
];

fn mutated_error(case: &Case) -> ParseError {
    let src = fixture_source();
    assert!(
        src.contains(case.find),
        "{}: fixture no longer contains `{}` — update the case",
        case.name,
        case.find
    );
    let mutated = src.replacen(case.find, case.replace, 1);
    match parse_machine(&mutated) {
        Err(e) => e,
        Ok(_) => panic!("{}: malformed input was accepted", case.name),
    }
}

#[test]
fn pristine_fixture_parses_cleanly() {
    let (m, groups) = parse_machine(&fixture_source()).expect("shipped model must parse");
    assert_eq!(m.name(), "vliw-dsp");
    // `load` expands to two alternatives; every other op is singleton.
    assert_eq!(m.num_operations(), 7);
    let load = m.op_by_name("load#0").expect("`load` has alternatives");
    assert_eq!(groups.alternatives_of(load).len(), 2);
}

#[test]
fn malformed_fixtures_report_kind_span_and_message() {
    for case in CASES {
        let e = mutated_error(case);
        assert!(
            (case.kind)(e.kind()),
            "{}: wrong kind: {:?}",
            case.name,
            e.kind()
        );
        assert_eq!(
            e.span().line,
            case.line,
            "{}: span line (error: {e})",
            case.name
        );
        if let Some(col) = case.column {
            assert_eq!(e.span().column, col, "{}: span column ({e})", case.name);
        }
        let rendered = e.to_string();
        assert!(
            rendered.contains(case.message),
            "{}: diagnostic `{rendered}` does not mention `{}`",
            case.name,
            case.message
        );
    }
}

#[test]
fn semantic_errors_survive_the_parse_error_conversion() {
    // `parse_machine` funnels expansion failures (MachineError) into
    // ParseErrorKind::Semantic; the message must keep the underlying
    // cause rather than flattening to a generic "invalid machine", and
    // the span must point at the redeclaration.
    let case = CASES
        .iter()
        .find(|c| c.name == "duplicate resource declaration")
        .expect("case exists");
    let e = mutated_error(case);
    assert_eq!(
        e.to_string(),
        "13:19: invalid machine: duplicate resource name `coeff_bus`"
    );
}

#[test]
fn every_parser_error_carries_a_nonempty_span() {
    // Regression: semantic (post-parse) errors used to carry the default
    // all-zero span, and errors at end-of-input a zero-length one. Every
    // diagnostic must now name a real source location.
    let mut sources: Vec<String> = CASES
        .iter()
        .map(|c| fixture_source().replacen(c.find, c.replace, 1))
        .collect();
    sources.extend(
        [
            // Truncated input: the error sits at Eof.
            r#"machine "m" { resources { r; }"#,
            // An operation with no usages fails expansion (semantic).
            r#"machine "m" { resources { r; } op idle { } op x { use r @ 0; } }"#,
            // No operations at all (semantic; falls back to the name span).
            r#"machine "m" { resources { r; } }"#,
        ]
        .map(str::to_owned),
    );
    for src in &sources {
        let e = parse_machine(src).expect_err("all inputs here are malformed");
        let s = e.span();
        assert!(
            !s.is_empty() && s.line >= 1 && s.column >= 1,
            "error `{e}` carries an empty span {s:?} for source: {src}"
        );
    }
}

#[test]
fn huge_weights_round_trip_through_printer_and_parser() {
    // Regression: weights at or above 2^32 print as plain digit runs,
    // which the lexer used to reject with NumberOverflow — a
    // printer/parser disagreement. They now lex as floats.
    let src = r#"machine "m" {
        resources { r; }
        op hot weight 100000000000000000000 { use r @ 0; }
        op alt_hot weight 8589934592 alt { { use r @ 0; } { use r @ 1; } }
    }"#;
    let (m, _) = parse_machine(src).expect("huge weights parse");
    let printed = rmd_machine::mdl::print(&m);
    let (m2, _) = parse_machine(&printed).expect("printed output reparses");
    assert_eq!(m, m2);
    assert!((m.operations()[0].weight() - 1e20).abs() < 1e5);
}
