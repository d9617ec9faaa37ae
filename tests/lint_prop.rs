//! Lint/pipeline contract properties: a description the linter passes
//! without error-severity findings is one the reduction pipeline
//! handles without falling back, and reduction preserves that
//! cleanliness.

use proptest::prelude::*;
use rmd_analyze::lint_machine;
use rmd_core::{reduce_with_fallback, Objective, ReduceOptions};
use rmd_integration::{arb_machine_spec, build_machine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole contract: error-lint-clean implies
    /// `reduce_with_fallback` succeeds outright — no fallback event,
    /// a verified reduction present.
    #[test]
    fn error_clean_machines_reduce_without_fallback(
        spec in arb_machine_spec(6, 6, 6, 12),
    ) {
        let m = build_machine(&spec);
        let report = lint_machine(&m);
        // Builder-valid machines are always error-clean (warnings and
        // infos are fair game) — the premise holds by construction.
        prop_assert_eq!(report.errors(), 0, "{}", report.render_text());
        let out = reduce_with_fallback(&m, Objective::ResUses, &ReduceOptions::default());
        prop_assert!(
            out.fallback.is_none(),
            "{}: lint-clean machine fell back: {:?}",
            m.name(),
            out.fallback
        );
        prop_assert!(out.reduction.is_some());
    }

    /// Reduction output stays error-clean: the pipeline never turns a
    /// clean description into one the linter rejects.
    #[test]
    fn reduction_preserves_error_cleanliness(
        spec in arb_machine_spec(5, 5, 5, 10),
    ) {
        let m = build_machine(&spec);
        prop_assert_eq!(lint_machine(&m).errors(), 0);
        let out = reduce_with_fallback(&m, Objective::ResUses, &ReduceOptions::default());
        let report = lint_machine(&out.machine);
        prop_assert_eq!(
            report.errors(),
            0,
            "reduced machine has lint errors: {}",
            report.render_text()
        );
    }
}

#[test]
fn builder_valid_machines_are_error_clean() {
    // The validating builder and the error-severity lints agree on what
    // a broken description is: anything the builder accepts has no
    // error findings (warnings and infos are fair game).
    for m in rmd_machine::models::all_machines() {
        let report = lint_machine(&m);
        assert_eq!(report.errors(), 0, "{}: {}", m.name(), report.render_text());
    }
}
