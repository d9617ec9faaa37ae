//! MDL round-trip properties: printing any machine and re-parsing it
//! yields an equal machine, and reduction composes with the textual
//! format.

use proptest::prelude::*;
use rmd_core::{reduce, verify_equivalence, Objective};
use rmd_integration::{arb_machine_spec, assert_mdl_round_trip, build_machine};
use rmd_machine::mdl;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn print_parse_round_trip(spec in arb_machine_spec(6, 6, 6, 12)) {
        let m = build_machine(&spec);
        let text = mdl::print(&m);
        let (m2, _) = mdl::parse_machine(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(m, m2);
    }

    #[test]
    fn reduced_machines_round_trip_too(spec in arb_machine_spec(5, 4, 5, 8)) {
        let m = build_machine(&spec);
        let red = reduce(&m, Objective::ResUses);
        let text = mdl::print(&red.reduced);
        let (back, _) = mdl::parse_machine(&text).expect("reduced machines print parseably");
        prop_assert!(verify_equivalence(&m, &back).is_ok());
    }
}

/// Every built-in model survives print and reparse as an equal machine
/// with an identical forbidden matrix. The other files under `machines/`
/// are covered by `mdl_golden.rs`.
#[test]
fn model_machines_round_trip() {
    for m in rmd_machine::models::all_machines() {
        assert_mdl_round_trip(&m, m.name());
    }
}

#[test]
fn parse_errors_carry_positions() {
    let bad = "machine \"x\" {\n  resources { r; }\n  op a { use r @ }\n}";
    let e = mdl::parse(bad).unwrap_err();
    assert_eq!(e.span().line, 3, "{e}");
}
