//! The two mutation-kill oracles.
//!
//! * [`matrix_oracle`] — the exact-equivalence verifier of
//!   `rmd_core::verify_equivalence`: a mutant is killed when its
//!   forbidden-latency matrix differs from the original's. This is the
//!   check the reduction pipeline runs on every reduction it makes.
//! * [`trace_oracle`] — a differential query-trace replayer built on
//!   [`QueryTrace`]: a deterministic `check`/`assign`/`assign_free`/
//!   `free` sequence is **recorded** once against modules over the
//!   original machine ([`record_linear_trace`], [`record_modulo_trace`])
//!   and **replayed** ([`replay_backends`]) over every query-module
//!   representation of the mutant — discrete, bitvector, and both modulo
//!   forms. Any divergent [`Answer`] — a `check` verdict, an
//!   evicted-instance set, a scheduled count — kills the mutant.
//!
//! [`replay_backends`] is the crate's one replay over the runtime
//! backends: the fuzz campaign and counterexample
//! [intake](crate::intake) call it too.
//!
//! The trace oracle is *sound*: every answer it compares is a function
//! of the forbidden-latency matrix alone, so a neutral mutant can never
//! diverge. Its pairwise probe phase also makes it *complete* for
//! description-level mutants: assigning each operation in isolation and
//! sweeping `check` across every latency offset reads the full matrix
//! back out through the query interface.
//!
//! Because recording gates every `assign` on an admitting `check` and
//! replay stops at the first divergent answer, replayed traces are
//! protocol-clean on both sides — the modules' debug assertions never
//! fire, and [`QueryTrace::check_protocol`] accepts the same traces.

use crate::mutate::{Mutant, MutantPayload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmd_core::verify_equivalence;
use rmd_machine::{MachineDescription, OpId};
use rmd_query::{
    Answer, BitvecModule, ContentionQuery, DiscreteModule, ModuloBitvecModule,
    ModuloDiscreteModule, OpInstance, QueryEvent, QueryTrace, Response, WordLayout,
};

/// Kills description-level mutants whose matrix differs (oracle a).
///
/// Not applicable to query-state corruption, which leaves the machine
/// description untouched.
pub fn matrix_oracle(original: &MachineDescription, mutant: &Mutant) -> bool {
    match &mutant.payload {
        MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => {
            verify_equivalence(original, m).is_err()
        }
        MutantPayload::QueryWord { .. } => false,
    }
}

/// Kills mutants whose query modules answer differently from the
/// original's under an identical request trace (oracle b).
///
/// Returns `Some(description)` of the first divergence, or `None` if
/// the mutant survives the full trace.
pub fn trace_oracle(
    original: &MachineDescription,
    mutant: &Mutant,
    trace_seed: u64,
) -> Option<String> {
    match &mutant.payload {
        MutantPayload::Machine(m) | MutantPayload::ReducedMachine(m) => {
            differential_machines(original, m, trace_seed)
        }
        MutantPayload::QueryWord { cycle, resource } => {
            corrupt_word_divergence(original, *cycle, *resource)
        }
    }
}

/// Records the oracle's standard probe-sweep + random-walk trace against
/// a fresh [`DiscreteModule`] over `machine`.
///
/// Returns the trace and the per-event [`Answer`]s — the "expected" side
/// of a differential [`replay_diff`]. `probe_span` sets how far the
/// sweep probes (usually [`MachineDescription::max_table_length`]); the
/// differential oracle passes the maximum over original and mutant so
/// probes also cover a mutant's longer tables.
pub fn record_linear_trace(
    machine: &MachineDescription,
    probe_span: u32,
    trace_seed: u64,
) -> (QueryTrace, Vec<Answer>) {
    let mut q = DiscreteModule::new(machine);
    let mut trace = QueryTrace::new(machine.name());
    let mut answers = Vec::new();
    record_into(
        &mut q,
        &mut trace,
        &mut answers,
        machine.num_operations(),
        probe_span,
        trace_seed,
    );
    (trace, answers)
}

/// Records the same probe-sweep + random-walk trace against a fresh
/// [`ModuloDiscreteModule`] at initiation interval `ii`.
///
/// Modulo wraparound changes which probes are admitted, so modulo
/// replays need their own recording; the returned trace carries
/// `ii = Some(ii)`.
pub fn record_modulo_trace(
    machine: &MachineDescription,
    ii: u32,
    probe_span: u32,
    trace_seed: u64,
) -> (QueryTrace, Vec<Answer>) {
    let mut q = ModuloDiscreteModule::new(machine, ii);
    let mut trace = QueryTrace::modulo(machine.name(), ii);
    let mut answers = Vec::new();
    record_into(
        &mut q,
        &mut trace,
        &mut answers,
        machine.num_operations(),
        probe_span,
        trace_seed,
    );
    (trace, answers)
}

/// Replays a recorded trace over `q` (built from a mutant machine),
/// comparing each [`Answer`] against the recorded one.
///
/// Returns `Some(description)` of the first divergent event — and stops
/// there, so state downstream of a disagreement never contaminates the
/// report — or `None` if every answer matches.
pub fn replay_diff<Q: ContentionQuery>(
    trace: &QueryTrace,
    expected: &[Answer],
    q: &mut Q,
) -> Option<String> {
    for (i, (event, want)) in trace.events.iter().zip(expected).enumerate() {
        let got = event.apply(q);
        if got != *want {
            return Some(format!("event {i}: {event}: {got} vs expected {want}"));
        }
    }
    None
}

/// Replays a recorded trace over every runtime backend of `suspect`,
/// comparing each answer against `expected`: the discrete module, then
/// the bitvector one when `suspect` has at most 64 resources (the
/// packed modules are built from it alone), in their modulo forms when
/// the trace carries an initiation interval.
///
/// Returns the first divergence, prefixed with the backend that showed
/// it, or `None` if every backend answers as recorded.
pub fn replay_backends(
    trace: &QueryTrace,
    expected: &[Answer],
    suspect: &MachineDescription,
) -> Option<String> {
    let packed = suspect.num_resources() <= 64;
    let layout = WordLayout::widest(64, suspect.num_resources());
    match trace.ii {
        None => {
            if let Some(d) = replay_diff(trace, expected, &mut DiscreteModule::new(suspect)) {
                return Some(format!("discrete: {d}"));
            }
            if packed {
                let mut q = BitvecModule::new(suspect, layout);
                if let Some(d) = replay_diff(trace, expected, &mut q) {
                    return Some(format!("bitvec: {d}"));
                }
            }
        }
        Some(ii) => {
            let mut q = ModuloDiscreteModule::new(suspect, ii);
            if let Some(d) = replay_diff(trace, expected, &mut q) {
                return Some(format!("modulo-discrete (ii {ii}): {d}"));
            }
            if packed {
                let mut q = ModuloBitvecModule::new(suspect, ii, layout);
                if let Some(d) = replay_diff(trace, expected, &mut q) {
                    return Some(format!("modulo-bitvec (ii {ii}): {d}"));
                }
            }
        }
    }
    None
}

/// Applies one event to the recording module and captures it in the
/// trace alongside its answer.
fn emit<Q: ContentionQuery>(
    q: &mut Q,
    trace: &mut QueryTrace,
    answers: &mut Vec<Answer>,
    event: QueryEvent,
) -> Answer {
    let answer = event.apply(q);
    trace.push(event);
    answers.push(answer.clone());
    answer
}

/// Drives the probe sweep plus the random walk, recording every call.
///
/// All adaptive decisions (assign only after an admitting check, the
/// live-instance set fed by eviction answers) come from the recording
/// module's own answers, which is exactly what the lockstep oracle used
/// to consult — so a replay that stops at the first divergence compares
/// the same call sequence the old pairwise driver issued.
fn record_into<Q: ContentionQuery>(
    q: &mut Q,
    trace: &mut QueryTrace,
    answers: &mut Vec<Answer>,
    num_ops: usize,
    span: u32,
    trace_seed: u64,
) {
    // ---- Phase 1: pairwise probe sweep. Assign each operation alone at
    // cycle `span`, then read every latency offset back out via `check`.
    for x in 0..num_ops {
        let x = OpId(x as u32);
        let ca = emit(q, trace, answers, QueryEvent::Check { op: x, cycle: span });
        if ca.response != Response::Admitted(true) {
            continue; // does not fit (modulo); replay still compares the verdict.
        }
        emit(
            q,
            trace,
            answers,
            QueryEvent::Assign {
                inst: OpInstance(0),
                op: x,
                cycle: span,
            },
        );
        for y in 0..num_ops {
            let y = OpId(y as u32);
            for t in 0..=2 * span {
                emit(q, trace, answers, QueryEvent::Check { op: y, cycle: t });
            }
        }
        emit(
            q,
            trace,
            answers,
            QueryEvent::Free {
                inst: OpInstance(0),
                op: x,
                cycle: span,
            },
        );
    }

    // ---- Phase 2: random walk exercising assign_free/free paths (the
    // optimistic→update transition, owner rebuilds, evictions).
    let mut rng = StdRng::seed_from_u64(trace_seed);
    let mut live: Vec<(OpInstance, OpId, u32)> = Vec::new();
    let mut next_inst = 1u32;
    for _ in 0..400 {
        let op = OpId(rng.index(num_ops) as u32);
        let cycle = rng.below(u64::from(3 * span)) as u32;
        match rng.below(4) {
            0 => {
                emit(q, trace, answers, QueryEvent::Check { op, cycle });
            }
            1 => {
                let a = emit(q, trace, answers, QueryEvent::Check { op, cycle });
                if a.response == Response::Admitted(true) {
                    let inst = OpInstance(next_inst);
                    next_inst += 1;
                    emit(q, trace, answers, QueryEvent::Assign { inst, op, cycle });
                    live.push((inst, op, cycle));
                }
            }
            2 => {
                let inst = OpInstance(next_inst);
                next_inst += 1;
                let a = emit(
                    q,
                    trace,
                    answers,
                    QueryEvent::AssignFree { inst, op, cycle },
                );
                if let Response::Evicted(evicted) = &a.response {
                    live.retain(|(i, _, _)| !evicted.contains(i));
                }
                live.push((inst, op, cycle));
            }
            _ => {
                if !live.is_empty() {
                    let (inst, op, cycle) = live.swap_remove(rng.index(live.len()));
                    emit(q, trace, answers, QueryEvent::Free { inst, op, cycle });
                }
            }
        }
    }
}

/// Records against the original `a` and replays over every query-module
/// representation of the mutant `b`.
fn differential_machines(
    a: &MachineDescription,
    b: &MachineDescription,
    trace_seed: u64,
) -> Option<String> {
    if a.num_operations() != b.num_operations() {
        return Some(format!(
            "operation count diverged: {} vs {}",
            a.num_operations(),
            b.num_operations()
        ));
    }
    // One linear recording serves both linear representations: the two
    // are verified interchangeable, so a mutant bitvector diverging from
    // the original's discrete answers is just as dead.
    let span = a.max_table_length().max(b.max_table_length()).max(1);
    let (trace, expected) = record_linear_trace(a, span, trace_seed);
    replay_backends(&trace, &expected, b).or_else(|| {
        let (mtrace, mexpected) = record_modulo_trace(a, span + 1, span, trace_seed);
        replay_backends(&mtrace, &mexpected, b)
    })
}

/// Detects a corrupted bitvector word by differencing the corrupted
/// [`BitvecModule`] against a clean [`DiscreteModule`] over the same
/// machine — the two representations must answer identically, so a
/// phantom reservation in the packed words is a divergent `check`.
fn corrupt_word_divergence(m: &MachineDescription, cycle: u32, resource: u32) -> Option<String> {
    if m.num_resources() > 64 {
        return None;
    }
    let layout = WordLayout::widest(64, m.num_resources());
    let mut corrupted = BitvecModule::new(m, layout);
    let nr = m.num_resources() as u32;
    let word = (cycle / layout.k) as usize;
    let mask = 1u64 << ((cycle % layout.k) * nr + resource);
    corrupted.corrupt_word(word, mask);
    let mut clean = DiscreteModule::new(m);

    // `assign`/`free` on a corrupted table would violate the module's
    // internal invariants, so the replay is a pure `check` sweep — the
    // operation the corruption was derived from probes the flipped cell
    // directly, guaranteeing a hit if the bitvector math is right.
    let horizon = cycle + m.max_table_length() + 1;
    for (id, _) in m.ops() {
        for t in 0..=horizon {
            let (rc, rd) = (corrupted.check(id, t), clean.check(id, t));
            if rc != rd {
                return Some(format!(
                    "check({id}, {t}) sees the corrupted word: {rc} vs clean {rd}"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::{mutate, MutationOp};
    use rmd_machine::models::example_machine;

    #[test]
    fn identical_machines_never_diverge() {
        let m = example_machine();
        assert_eq!(differential_machines(&m, &m, 17), None);
    }

    #[test]
    fn recorded_trace_replays_clean_across_representations() {
        // The recording (discrete) and the replay targets (bitvec,
        // modulo forms over the same machine) must agree answer for
        // answer — soundness of using one recording for all of them.
        let m = example_machine();
        let span = m.max_table_length().max(1);
        let (trace, expected) = record_linear_trace(&m, span, 99);
        assert!(!trace.is_empty());
        assert_eq!(trace.ii, None);
        let layout = WordLayout::widest(64, m.num_resources());
        assert_eq!(
            replay_diff(&trace, &expected, &mut BitvecModule::new(&m, layout)),
            None
        );
        let ii = span + 1;
        let (mtrace, mexpected) = record_modulo_trace(&m, ii, span, 99);
        assert_eq!(mtrace.ii, Some(ii));
        assert_eq!(
            replay_diff(
                &mtrace,
                &mexpected,
                &mut ModuloBitvecModule::new(&m, ii, layout)
            ),
            None
        );
    }

    #[test]
    fn recorded_traces_are_protocol_clean() {
        // The protocol checker accepts the oracle's traces: the
        // recording gates assigns on admitting checks and frees only
        // live instances.
        let m = example_machine();
        let span = m.max_table_length().max(1);
        let (trace, _) = record_linear_trace(&m, span, 7);
        assert_eq!(trace.check_protocol(&m), Vec::new());
        let (mtrace, _) = record_modulo_trace(&m, span + 1, span, 7);
        assert_eq!(mtrace.check_protocol(&m), Vec::new());
    }

    #[test]
    fn corrupt_word_is_always_caught() {
        let m = example_machine();
        for seed in 0..16 {
            let mu = mutate(&m, MutationOp::CorruptWord, seed).expect("applies");
            assert!(
                trace_oracle(&m, &mu, seed).is_some(),
                "seed {seed}: {} survived",
                mu.what
            );
        }
    }

    #[test]
    fn dropped_usage_diverges_under_the_trace() {
        let m = example_machine();
        let mut killed = 0;
        let mut semantic = 0;
        for seed in 0..16 {
            if let Some(mu) = mutate(&m, MutationOp::DropUsage, seed) {
                if mu.is_semantic(&m) {
                    semantic += 1;
                    if trace_oracle(&m, &mu, seed).is_some() {
                        killed += 1;
                    }
                }
            }
        }
        assert!(semantic > 0);
        assert_eq!(killed, semantic);
    }
}
