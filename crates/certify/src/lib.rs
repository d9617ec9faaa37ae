//! Static equivalence prover for reduced machine descriptions.
//!
//! The paper's reduction promises that the reduced description *preserves
//! all scheduling constraints*. The rest of the workspace checks that
//! promise dynamically — trace conformance, mutation oracles — while this
//! crate proves it statically, by exhaustive reachability over finite
//! transition systems, and emits a machine-checkable [`Certificate`] that
//! downstream tools (`rmd serve`) require before trusting a reduction.
//!
//! # The proof
//!
//! Resource contention decomposes over pairs: a set of placements is
//! legal iff every pair of placed instances is pairwise conflict-free,
//! because tables collide iff *some* two cells collide. Equivalence of
//! the full systems therefore reduces to equivalence of all pairwise
//! behaviors, which the prover checks exhaustively:
//!
//! 1. **Linear pass** ([`ConflictVectors`] + pair product BFS): for every
//!    unordered operation pair, BFS the product of both machines'
//!    conflict-mask transition systems — the observational quotient of
//!    the commitment automaton, where a state is "which future cycles
//!    each candidate is blocked at" — and check contention bisimulation
//!    at every reachable state. Every conflict offset `0..=span` is
//!    reached (place, advance, probe), and offsets beyond both spans are
//!    trivially conflict-free, so success proves the machines admit the
//!    same placements in *every* linear scheduling state. Paths are
//!    bounded at [`ISSUE_CAP`] placements, which loses nothing: a mask
//!    is an OR of per-placement conflict vectors, so any divergent bit
//!    is already witnessed by the single placement that contributes it.
//! 2. **Modulo pass** (cycle-normalized states): at every initiation
//!    interval `II ≤ span`, fold the conflict vectors mod II (both
//!    orders, covering negative offsets) and compare per-op feasibility
//!    and the per-pair slot-offset conflict relation. For `II > span`
//!    each residue holds at most one representable offset, so the folded
//!    relation is a relabeling of the linear one — the bound is complete.
//! 3. **Schedule pass**: schedule deterministic sample graphs with IMS on
//!    the reduced description and re-validate each result against the
//!    original with [`rmd_sched::validate`].
//! 4. **Global pass** (budget-gated belt): a product BFS over the raw
//!    commitment spaces of both machines via `rmd-automata`'s
//!    [`StateSpace`](rmd_automata::StateSpace), strictly redundant with
//!    pass 1 but run where the budget allows as a cross-validation.
//!
//! Any disagreement surfaces as a [`Counterexample`] — a concrete
//! placement sequence plus the divergent probe — that converts to a
//! [`QueryTrace`](rmd_query::QueryTrace) and drops straight into the
//! rmd-fault differential oracle for independent confirmation.
//!
//! # Example
//!
//! ```
//! use rmd_certify::{certify_machine, CertifyOptions};
//! use rmd_machine::models;
//!
//! let cert = certify_machine(&models::example_machine(), "fig1", &CertifyOptions::default())
//!     .expect("the shipped reduction is equivalent");
//! assert_eq!(cert.machine, "fig1");
//! assert_eq!(cert.objectives.len(), 2);
//! assert!(cert.render_json().contains("\"status\": \"equivalent\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cert;
mod cex;
mod conflict;
mod global;
mod modulo;
mod product;
mod schedule_check;

pub use cert::{Certificate, ObjectiveCert, CERT_SCHEMA};
pub use cex::{CexKind, Counterexample};
pub use conflict::{ConflictVectors, MAX_SPAN};
pub use global::GlobalStats;
pub use modulo::ModuloStats;

use core::fmt;
use rmd_core::{fingerprints, Objective, ReduceOptions, ReductionFront, RmdError};
use rmd_machine::{content_fingerprint, MachineDescription};
use rmd_query::WordLayout;

/// Why certification could not be *attempted* (as opposed to a proof
/// failure, which is a [`CertifyFailure::Mismatch`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CertifyError {
    /// A reservation table is too long for the conflict-mask encoding.
    TableTooLong {
        /// The offending machine.
        machine: String,
        /// Its maximum table length.
        span: u32,
        /// The supported maximum.
        max: u32,
    },
    /// A pair product exceeded the per-pair state budget — pathological
    /// input rather than a disproof.
    StateBudget {
        /// The operation pair being explored.
        pair: (usize, usize),
        /// The exhausted budget.
        budget: u64,
    },
    /// The two descriptions do not even have the same operation set.
    OpCountMismatch {
        /// Left (original) operation count.
        left: usize,
        /// Right (reduced) operation count.
        right: usize,
    },
    /// The reduction pipeline itself failed on the input.
    Reduce(
        /// The reduction error, rendered.
        String,
    ),
    /// A sample schedule built on the reduced description is invalid
    /// on the original.
    Schedule {
        /// Index of the sample graph.
        sample: usize,
        /// The first violation against the original description.
        error: rmd_sched::ScheduleError,
        /// Whether the schedule is valid on the reduced description,
        /// which pins the fault on the reduction, not the scheduler.
        valid_on_reduced: bool,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::TableTooLong { machine, span, max } => write!(
                f,
                "machine `{machine}` has a reservation table spanning {span} cycles; \
                 the certifier supports at most {max}"
            ),
            CertifyError::StateBudget { pair, budget } => write!(
                f,
                "pair (op{}, op{}) exceeded the product-state budget of {budget}",
                pair.0, pair.1
            ),
            CertifyError::OpCountMismatch { left, right } => {
                write!(f, "operation sets differ: {left} operations vs {right}")
            }
            CertifyError::Reduce(e) => write!(f, "reduction failed: {e}"),
            CertifyError::Schedule {
                sample,
                error,
                valid_on_reduced,
            } => {
                write!(
                    f,
                    "sample schedule {sample} is invalid on the original: {error}"
                )?;
                if *valid_on_reduced {
                    f.write_str(
                        "; it is valid on the reduced description, so the reduction \
                         does not preserve scheduling constraints",
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// The result of a failed certification attempt.
#[derive(Debug)]
pub enum CertifyFailure {
    /// The descriptions are *not* equivalent; here is a concrete witness.
    Mismatch(Box<Counterexample>),
    /// Certification could not be completed.
    Error(CertifyError),
}

impl fmt::Display for CertifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyFailure::Mismatch(cex) => write!(
                f,
                "descriptions disagree: probe {} at cycle {} after {} placement(s)",
                cex.probe.0,
                cex.probe.1,
                cex.places.len()
            ),
            CertifyFailure::Error(e) => e.fmt(f),
        }
    }
}

/// Tunables for a certification run.
#[derive(Clone, Copy, Debug)]
pub struct CertifyOptions {
    /// Product-state budget for the global commitment-product pass;
    /// exceeding it records the pass as skipped, not failed.
    pub global_budget: u64,
    /// Hard per-pair state cap for the linear pass (pathology guard).
    pub pair_state_cap: u64,
}

/// Placements explored per linear-pass path. One placement already
/// witnesses any mismatch (a candidate's mask is an OR of per-placement
/// vectors, so a divergent bit projects to a single placement); the
/// second adds one layer of redundancy.
pub const ISSUE_CAP: u8 = 2;

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            global_budget: 1_500_000,
            pair_state_cap: 1 << 22,
        }
    }
}

/// Proof statistics from one successful [`certify_pair`] run.
#[derive(Clone, Copy, Debug)]
pub struct EquivalenceStats {
    /// Unordered operation pairs explored by the linear pass.
    pub pairs: u64,
    /// Total reachable pair-product states across all pairs.
    pub pair_product_states: u64,
    /// Largest single pair's reachable state count.
    pub max_pair_states: u64,
    /// Modulo-pass statistics.
    pub modulo: ModuloStats,
    /// Global-pass statistics (may record a budget skip).
    pub global: GlobalStats,
    /// Sample schedules re-validated against the original by pass 3.
    pub schedules_checked: u64,
}

/// The BFS storage of the passes that intern states, lent to every pair
/// a [`certify_machine`] call proves so the second objective reuses
/// what the first one grew.
struct Scratch {
    pairs: product::PairScratch,
    global: global::GlobalScratch,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            pairs: product::PairScratch::new(),
            global: global::GlobalScratch::new(),
        }
    }
}

/// Statically prove that `left` (the original description) and `right`
/// (the reduced or otherwise suspect description) are query-equivalent.
///
/// # Errors
///
/// [`CertifyFailure::Mismatch`] with a replayable counterexample when
/// the descriptions disagree; [`CertifyFailure::Error`] when the proof
/// cannot be attempted or a schedule re-validation fails.
pub fn certify_pair(
    left: &MachineDescription,
    right: &MachineDescription,
    options: &CertifyOptions,
) -> Result<EquivalenceStats, CertifyFailure> {
    prove_pair(left, right, options, &mut Scratch::new())
}

/// [`certify_pair`] on borrowed BFS storage.
fn prove_pair(
    left: &MachineDescription,
    right: &MachineDescription,
    options: &CertifyOptions,
    scratch: &mut Scratch,
) -> Result<EquivalenceStats, CertifyFailure> {
    if left.num_operations() != right.num_operations() {
        return Err(CertifyFailure::Error(CertifyError::OpCountMismatch {
            left: left.num_operations(),
            right: right.num_operations(),
        }));
    }
    let a = ConflictVectors::compute(left).map_err(CertifyFailure::Error)?;
    let b = ConflictVectors::compute(right).map_err(CertifyFailure::Error)?;

    // Pass 1: pairwise linear product reachability + bisimulation.
    let n = a.num_ops();
    let mut pairs = 0u64;
    let mut total_states = 0u64;
    let mut max_states = 0u64;
    for x in 0..n {
        for y in x..n {
            let states = product::certify_pair_linear(
                &a,
                &b,
                x,
                y,
                options.pair_state_cap,
                &mut scratch.pairs,
            )?;
            pairs += 1;
            total_states += states;
            max_states = max_states.max(states);
        }
    }

    // Pass 2: cycle-normalized modulo states at every II up to the bound.
    let modulo = modulo::certify_modulo(&a, &b)?;

    // Pass 3: IMS on the reduced description, re-validated on the
    // original.
    let schedules_checked = schedule_check::check_schedules(left, right)?;

    // Pass 4: global commitment-product belt, under budget.
    let global = global::certify_global(left, right, options.global_budget, &mut scratch.global)?;

    Ok(EquivalenceStats {
        pairs,
        pair_product_states: total_states,
        max_pair_states: max_states,
        modulo,
        global,
        schedules_checked,
    })
}

/// The objectives a certificate covers: the discrete-representation
/// objective and the k-cycle-word objective `rmd serve` schedules with.
pub fn certificate_objectives(machine: &MachineDescription) -> Vec<(String, Objective)> {
    let k = WordLayout::widest(64, machine.num_resources()).k;
    vec![
        ("res-uses".to_string(), Objective::ResUses),
        (format!("word-{k}"), Objective::KCycleWord { k }),
    ]
}

/// Reduce `machine` under every certificate objective, prove each
/// reduction equivalent, and assemble the [`Certificate`].
///
/// Only a reduction that passed the pipeline's own equivalence check
/// reaches the prover.
///
/// # Errors
///
/// Any pass failure on any objective, as in [`certify_pair`]; reduction
/// failures, a failed equivalence check among them, surface as
/// [`CertifyError::Reduce`].
pub fn certify_machine(
    machine: &MachineDescription,
    name: &str,
    options: &CertifyOptions,
) -> Result<Certificate, CertifyFailure> {
    let reduce_error = |e: RmdError| CertifyFailure::Error(CertifyError::Reduce(e.to_string()));
    // Classes and the pruned generating set do not depend on the
    // objective: both reductions finish one front half.
    let front =
        ReductionFront::compute(machine, &ReduceOptions::default()).map_err(reduce_error)?;
    let matrix_fingerprint = fingerprints::matrix_fingerprint_hex(front.ops_matrix());
    let mut scratch = Scratch::new();
    let mut objectives = Vec::new();
    for (label, objective) in certificate_objectives(machine) {
        let red = front.finish(objective).map_err(reduce_error)?;
        let stats = prove_pair(machine, &red.reduced, options, &mut scratch)?;
        objectives.push(ObjectiveCert {
            objective: label,
            reduced_fingerprint: content_fingerprint(&red.reduced),
            reduced_resources: red.reduced.num_resources(),
            reduced_usages: red.reduced.total_usages(),
            pairs: stats.pairs,
            pair_product_states: stats.pair_product_states,
            max_pair_states: stats.max_pair_states,
            modulo_max_ii: stats.modulo.max_ii,
            modulo_comparisons: stats.modulo.comparisons,
            global_completed: stats.global.completed,
            global_states: stats.global.product_states,
            schedules_checked: stats.schedules_checked,
        });
    }
    Ok(Certificate {
        machine: name.to_string(),
        fingerprint: content_fingerprint(machine),
        matrix_fingerprint,
        operations: machine.num_operations(),
        resources: machine.num_resources(),
        objectives,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models;

    #[test]
    fn shipped_reductions_certify() {
        // `x` collides with its own next iteration at II 3, the MII of
        // the sample recurrence x -> y -> x.
        let (overlap, _) = rmd_machine::mdl::parse_machine(
            r#"machine "m" { resources { r; s; } op x { use r @ 0, 3; } op y { use s @ 0; } }"#,
        )
        .expect("valid MDL");
        for (name, m) in [
            ("fig1", models::example_machine()),
            ("cydra5-subset", models::cydra5_subset()),
            ("m", overlap),
        ] {
            let cert = certify_machine(&m, name, &CertifyOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cert.operations, m.num_operations());
            assert_eq!(cert.objectives.len(), 2);
            for o in &cert.objectives {
                assert!(o.pairs > 0);
                assert!(o.pair_product_states > o.pairs, "states dominate pairs");
                assert!(o.schedules_checked >= 1, "{name}/{}", o.objective);
            }
        }
    }

    #[test]
    fn each_certified_reduction_is_verified_once() {
        rmd_obs::set_enabled(true);
        let _ = rmd_obs::drain_events();
        let cert = certify_machine(
            &models::example_machine(),
            "fig1",
            &CertifyOptions::default(),
        );
        let events = rmd_obs::drain_events();
        rmd_obs::set_enabled(false);
        let cert = cert.expect("fig1 certifies");
        let verified = events
            .iter()
            .filter(|e| e.cat == "reduce" && e.name == "verify")
            .count();
        assert_eq!(cert.objectives.len(), 2);
        assert_eq!(verified, cert.objectives.len());
    }

    #[test]
    fn mismatched_op_counts_are_an_error_not_a_panic() {
        let a = models::example_machine();
        let b = models::cydra5_subset();
        match certify_pair(&a, &b, &CertifyOptions::default()) {
            Err(CertifyFailure::Error(CertifyError::OpCountMismatch { .. })) => {}
            other => panic!("expected op-count mismatch, got {other:?}"),
        }
    }

    /// A deliberately broken "reduction" of `m`: every operation uses
    /// one shared resource at cycle 0.
    pub(crate) fn broken(m: &MachineDescription) -> MachineDescription {
        let mut b = rmd_machine::MachineBuilder::new("fig1-broken");
        let q = b.resource("q0");
        for op in m.operations() {
            b.operation(op.name()).usage(q, 0).finish();
        }
        b.build().expect("valid machine")
    }

    /// A deliberately broken "reduction" must yield a counterexample
    /// whose trace replays with divergent final answers.
    #[test]
    fn broken_reduction_yields_a_replayable_counterexample() {
        use rmd_query::{DiscreteModule, Response};
        let m = models::example_machine();
        let broken = broken(&m);
        let cex = match certify_pair(&m, &broken, &CertifyOptions::default()) {
            Err(CertifyFailure::Mismatch(cex)) => cex,
            other => panic!("expected mismatch, got {other:?}"),
        };
        assert_ne!(cex.left_admits, cex.right_admits);
        assert!(
            matches!(cex.kind, CexKind::Linear),
            "the linear pass runs first"
        );
        let trace = cex.to_trace(m.name());
        let mut left = DiscreteModule::new(&m);
        let mut right = DiscreteModule::new(&broken);
        let la = trace.replay(&mut left);
        let ra = trace.replay(&mut right);
        let last = trace.len() - 1;
        assert_eq!(la[last].response, Response::Admitted(cex.left_admits));
        assert_eq!(ra[last].response, Response::Admitted(cex.right_admits));
    }
}
