//! The linter as a mutation oracle: every *semantic* description-level
//! mutant — one whose forbidden-latency matrix differs from the
//! original's — visibly changes the lint report, because the `RMD-L009`
//! redundancy finding embeds a fingerprint of the matrix. Neutral
//! mutants (same matrix, reshuffled structure) keep the fingerprint.

use rmd_analyze::{lint_machine, Report};
use rmd_fault::{mutate, MutantPayload, ALL_OPERATORS};
use rmd_machine::models;

/// Extracts the forbidden-matrix fingerprint from a report's `RMD-L009`
/// finding (`… matrix fingerprint <16 hex digits>: …`).
fn matrix_fingerprint(report: &Report) -> u64 {
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.id == "RMD-L009")
        .unwrap_or_else(|| panic!("L009 always present: {}", report.render_text()));
    let tail = d
        .message
        .split("matrix fingerprint ")
        .nth(1)
        .expect("fingerprint in message");
    u64::from_str_radix(&tail[..16], 16).expect("16 hex digits")
}

#[test]
fn semantic_mutants_change_the_lint_fingerprint() {
    for m in [models::example_machine(), models::cydra5_subset()] {
        let base_fp = matrix_fingerprint(&lint_machine(&m));
        let mut semantic = 0;
        let mut neutral = 0;
        for op in ALL_OPERATORS {
            for seed in 0..8u64 {
                let Some(mu) = mutate(&m, op, seed) else {
                    continue;
                };
                // Description-level payloads only; bitvector word
                // corruption never touches the description.
                let mutant = match &mu.payload {
                    MutantPayload::Machine(m2) | MutantPayload::ReducedMachine(m2) => m2,
                    MutantPayload::QueryWord { .. } => continue,
                };
                let fp = matrix_fingerprint(&lint_machine(mutant));
                if mu.is_semantic(&m) {
                    semantic += 1;
                    assert_ne!(
                        fp,
                        base_fp,
                        "{}: semantic mutant invisible to lint: {} ({})",
                        m.name(),
                        mu.what,
                        mu.op
                    );
                } else {
                    neutral += 1;
                    assert_eq!(
                        fp,
                        base_fp,
                        "{}: neutral mutant changed the fingerprint: {} ({})",
                        m.name(),
                        mu.what,
                        mu.op
                    );
                }
            }
        }
        // The operator set must have exercised both sides of the
        // semantic/neutral split for the oracle claim to mean anything.
        assert!(
            semantic >= 8,
            "{}: only {semantic} semantic mutants",
            m.name()
        );
        assert!(neutral >= 1, "{}: no neutral mutants seen", m.name());
    }
}

#[test]
fn a_dead_resource_mutant_is_flagged_by_name() {
    // Beyond the fingerprint, structural lints catch the archetypal
    // corruption directly: redirecting every usage of a resource onto
    // another leaves the donor dead (RMD-L001).
    let m = models::example_machine();
    let mut seen = false;
    for seed in 0..32u64 {
        let Some(mu) = mutate(&m, rmd_fault::MutationOp::MergeResources, seed) else {
            continue;
        };
        let MutantPayload::Machine(m2) = &mu.payload else {
            continue;
        };
        let report = lint_machine(m2);
        if report.diagnostics.iter().any(|d| d.id == "RMD-L001") {
            seen = true;
            break;
        }
    }
    assert!(
        seen,
        "merge-resources never produced a dead-resource finding"
    );
}
