//! Fault-injection and mutation-verification harness.
//!
//! The reduction pipeline's entire value proposition rests on one
//! correctness gate: a reduced description must forbid **exactly** the
//! latencies the original forbids (paper §5, Theorem 1). This crate
//! adversarially tests the gate itself. Seeded [mutation
//! operators](mutate::MutationOp) corrupt machine descriptions, reduced
//! covers, and packed query-module state; two independent
//! [oracles](oracle) — the exact-equivalence verifier and a
//! differential query-trace replayer — must notice every corruption
//! that changes scheduling behavior.
//!
//! The harness also closes the loop with the static prover: when
//! `rmd certify` disproves an equivalence, its counterexample trace is
//! handed to [intake](intake::confirm_counterexample) for independent
//! confirmation by the runtime query modules.
//!
//! The [audit](audit::audit_model) reports a **mutation-kill score**;
//! the workspace's tier-1 tests pin it at 100% on the paper's models,
//! and `cargo run -p rmd-fault --bin mutation-audit` reproduces the
//! table from the command line.
//!
//! Determinism is part of the contract: the harness draws from the
//! workspace's seeded splitmix64 (the `rand` shim's `StdRng`), so a seed
//! printed in a failing report replays the identical mutant anywhere.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod fuzz;
pub mod generate;
pub mod intake;
pub mod mutate;
pub mod oracle;

pub use audit::{audit_model, AuditReport, OperatorStats};
pub use fuzz::{
    check_machine, fuzz, parse_corpus_entry, render_corpus_entry, replay_corpus,
    replay_corpus_entry, CaseFlags, CaseOutcome, CorpusEntry, FailedCase, FuzzConfig, FuzzReport,
};
pub use generate::{generate, GenConfig};
pub use intake::confirm_counterexample;
pub use mutate::{mutate, Mutant, MutantPayload, MutationOp, ALL_OPERATORS};
pub use oracle::{
    matrix_oracle, record_linear_trace, record_modulo_trace, replay_backends, replay_diff,
    trace_oracle,
};
