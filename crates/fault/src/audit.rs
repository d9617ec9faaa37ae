//! The mutation-kill audit: generate mutants, classify them, run both
//! oracles, and score the result.

use crate::mutate::{mutate, Mutant, ALL_OPERATORS};
use crate::oracle::{matrix_oracle, trace_oracle};
use rand::mix_seed;
use rmd_machine::MachineDescription;
use std::fmt::Write as _;

/// Tallies for one mutation operator.
#[derive(Clone, Debug, Default)]
pub struct OperatorStats {
    /// Operator name (stable across runs).
    pub operator: &'static str,
    /// Seeds at which the operator applied and produced a mutant.
    pub generated: u64,
    /// Mutants whose forbidden-latency matrix differs from the
    /// original's (plus query-state corruption, semantic by
    /// construction).
    pub semantic: u64,
    /// Mutants that forbid exactly the same latencies.
    pub neutral: u64,
    /// Semantic mutants killed by the equivalence verifier.
    pub killed_by_matrix: u64,
    /// Semantic mutants killed by the differential trace replayer.
    pub killed_by_trace: u64,
    /// Semantic mutants neither oracle noticed.
    pub survived: u64,
    /// Neutral mutants the trace oracle wrongly flagged — an oracle
    /// soundness bug if ever nonzero.
    pub false_kills: u64,
}

/// The outcome of auditing one machine model.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Machine name.
    pub model: String,
    /// Per-operator tallies, in [`ALL_OPERATORS`] order.
    pub per_operator: Vec<OperatorStats>,
    /// Descriptions of surviving semantic mutants (the audit failures).
    pub survivors: Vec<String>,
    /// Descriptions of wrongly-killed neutral mutants.
    pub false_positives: Vec<String>,
}

impl AuditReport {
    /// Total semantic mutants across operators.
    pub fn total_semantic(&self) -> u64 {
        self.per_operator.iter().map(|s| s.semantic).sum()
    }

    /// Total semantic mutants killed by at least one oracle.
    pub fn total_killed(&self) -> u64 {
        self.total_semantic() - self.per_operator.iter().map(|s| s.survived).sum::<u64>()
    }

    /// Fraction of semantic mutants killed (1.0 when none were
    /// generated — nothing to miss).
    pub fn kill_score(&self) -> f64 {
        let semantic = self.total_semantic();
        if semantic == 0 {
            1.0
        } else {
            self.total_killed() as f64 / semantic as f64
        }
    }

    /// A perfect audit: every semantic mutant killed, no neutral mutant
    /// wrongly flagged, and at least one semantic mutant actually
    /// exercised the oracles.
    pub fn is_perfect(&self) -> bool {
        self.survivors.is_empty() && self.false_positives.is_empty() && self.total_semantic() > 0
    }

    /// Renders a fixed-width report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mutation-kill audit: {}", self.model);
        let _ = writeln!(
            out,
            "{:<20} {:>5} {:>9} {:>8} {:>7} {:>7} {:>9} {:>6}",
            "operator", "mut", "semantic", "neutral", "matrix", "trace", "survived", "false"
        );
        for s in &self.per_operator {
            let _ = writeln!(
                out,
                "{:<20} {:>5} {:>9} {:>8} {:>7} {:>7} {:>9} {:>6}",
                s.operator,
                s.generated,
                s.semantic,
                s.neutral,
                s.killed_by_matrix,
                s.killed_by_trace,
                s.survived,
                s.false_kills
            );
        }
        let _ = writeln!(
            out,
            "kill score: {}/{} semantic mutants ({:.1}%)",
            self.total_killed(),
            self.total_semantic(),
            self.kill_score() * 100.0
        );
        for s in &self.survivors {
            let _ = writeln!(out, "SURVIVOR: {s}");
        }
        for s in &self.false_positives {
            let _ = writeln!(out, "FALSE POSITIVE: {s}");
        }
        out
    }
}

/// Runs every operator `seeds_per_operator` times against `machine`,
/// scoring both oracles on each generated mutant.
///
/// Deterministic in `(machine, seeds_per_operator, base_seed)`.
pub fn audit_model(
    machine: &MachineDescription,
    seeds_per_operator: u64,
    base_seed: u64,
) -> AuditReport {
    let mut per_operator = Vec::with_capacity(ALL_OPERATORS.len());
    let mut survivors = Vec::new();
    let mut false_positives = Vec::new();
    for (tag, op) in ALL_OPERATORS.iter().enumerate() {
        let mut stats = OperatorStats {
            operator: op.name(),
            ..OperatorStats::default()
        };
        for i in 0..seeds_per_operator {
            let seed = mix_seed(base_seed, tag as u64, i);
            let Some(mutant) = mutate(machine, *op, seed) else {
                continue;
            };
            stats.generated += 1;
            score_mutant(
                machine,
                &mutant,
                seed,
                &mut stats,
                &mut survivors,
                &mut false_positives,
            );
        }
        per_operator.push(stats);
    }
    AuditReport {
        model: machine.name().to_owned(),
        per_operator,
        survivors,
        false_positives,
    }
}

fn score_mutant(
    machine: &MachineDescription,
    mutant: &Mutant,
    seed: u64,
    stats: &mut OperatorStats,
    survivors: &mut Vec<String>,
    false_positives: &mut Vec<String>,
) {
    let semantic = mutant.is_semantic(machine);
    let by_matrix = matrix_oracle(machine, mutant);
    let by_trace = trace_oracle(machine, mutant, seed);
    if semantic {
        stats.semantic += 1;
        if by_matrix {
            stats.killed_by_matrix += 1;
        }
        if by_trace.is_some() {
            stats.killed_by_trace += 1;
        }
        if !by_matrix && by_trace.is_none() {
            stats.survived += 1;
            survivors.push(format!(
                "[{}] seed {seed:#018x}: {}",
                mutant.op, mutant.what
            ));
        }
    } else {
        stats.neutral += 1;
        if let Some(d) = by_trace {
            stats.false_kills += 1;
            false_positives.push(format!(
                "[{}] seed {seed:#018x}: {} — trace diverged on an equivalent machine: {d}",
                mutant.op, mutant.what
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    #[test]
    fn audit_is_deterministic() {
        let m = example_machine();
        let a = audit_model(&m, 4, 99);
        let b = audit_model(&m, 4, 99);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn report_renders_all_operators() {
        let m = example_machine();
        let r = audit_model(&m, 2, 1);
        assert_eq!(r.per_operator.len(), ALL_OPERATORS.len());
        let text = r.render();
        for op in ALL_OPERATORS {
            assert!(text.contains(op.name()), "{}", op.name());
        }
    }
}
