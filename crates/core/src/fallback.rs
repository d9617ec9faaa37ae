//! Graceful degradation: fall back to the original tables when a
//! reduction fails.
//!
//! The paper's correctness gate (Theorem 1, §5) is that a reduced
//! description's forbidden-latency matrix is bit-for-bit identical to
//! the original's. The pipeline checks that itself, as its last phase
//! ([`ReductionFront::finish`](crate::ReductionFront::finish)), so
//! [`try_reduce`] never hands out an unverified reduction.
//! [`reduce_with_fallback`] turns any failure — invalid input,
//! exhausted step budget, or (hypothetically) a verification miss —
//! into the **original** machine description, with the error recorded.
//! Scheduling against the original tables is always correct, merely
//! slower, so a bad reduction can never miscompile a loop.

use crate::error::RmdError;
use crate::reduce::{try_reduce, ReduceOptions, Reduction};
use crate::select::Objective;
use rmd_machine::MachineDescription;

/// The outcome of [`reduce_with_fallback`]: always a usable machine
/// description, never an unverified reduction.
#[derive(Clone, Debug)]
pub struct FallbackReduction {
    /// The description to schedule against: the verified reduced machine,
    /// or a clone of the original if the pipeline fell back.
    pub machine: MachineDescription,
    /// The full reduction artifacts, present only when the reduction
    /// succeeded (and so verified).
    pub reduction: Option<Reduction>,
    /// Why the original tables were kept, if they were;
    /// [`RmdError::VerificationFailed`] says the reduction failed its
    /// equivalence check.
    pub fallback: Option<RmdError>,
}

/// Reduces `machine` and falls back to the original tables on any
/// failure.
///
/// The returned [`FallbackReduction::machine`] is **always** safe to
/// schedule against:
///
/// - on success it is the reduced machine, which [`try_reduce`] has
///   verified to produce an identical forbidden-latency matrix;
/// - on any failure (limit violation, degenerate input, exhausted step
///   budget, verification mismatch) it is the original machine, and
///   [`FallbackReduction::fallback`] records why.
///
/// This function never panics on malformed input and never returns an
/// unverified reduction.
pub fn reduce_with_fallback(
    machine: &MachineDescription,
    objective: Objective,
    options: &ReduceOptions,
) -> FallbackReduction {
    match try_reduce(machine, objective, options) {
        Ok(red) => FallbackReduction {
            machine: red.reduced.clone(),
            reduction: Some(red),
            fallback: None,
        },
        Err(e) => {
            rmd_obs::instant("reduce", "fallback");
            FallbackReduction {
                machine: machine.clone(),
                reduction: None,
                fallback: Some(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_equivalence;
    use rmd_machine::models::{all_machines, example_machine};
    use rmd_machine::MachineBuilder;

    #[test]
    fn success_returns_a_verified_reduction() {
        for m in all_machines() {
            let out = reduce_with_fallback(&m, Objective::ResUses, &ReduceOptions::default());
            assert!(out.fallback.is_none(), "{}", m.name());
            let red = out.reduction.as_ref().expect("reduction present");
            assert_eq!(out.machine, red.reduced);
            assert!(verify_equivalence(&m, &out.machine).is_ok(), "{}", m.name());
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_the_original() {
        let m = example_machine();
        let options = ReduceOptions { max_steps: Some(1) };
        let out = reduce_with_fallback(&m, Objective::ResUses, &options);
        assert!(out.reduction.is_none());
        assert_eq!(out.machine, m, "fallback must hand back the original");
        match out.fallback {
            Some(RmdError::BudgetExhausted { steps }) => {
                assert!(steps > 1);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn limit_violation_falls_back_to_the_original() {
        let mut b = MachineBuilder::new("many-ops");
        let r = b.resource("r");
        for i in 0..=crate::MAX_OPERATIONS {
            b.operation(format!("op{i}")).usage(r, 0).finish();
        }
        let m = b.build().unwrap();
        let out = reduce_with_fallback(&m, Objective::ResUses, &ReduceOptions::default());
        assert_eq!(out.machine, m);
        match out.fallback {
            Some(RmdError::LimitExceeded { what, .. }) => assert_eq!(what, "operations"),
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    /// Serializes tests that toggle the global tracing flag.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        rmd_obs::set_enabled(true);
        let _ = rmd_obs::drain_events(); // discard anything older
        let r = f();
        rmd_obs::set_enabled(false);
        r
    }

    #[test]
    fn tracing_emits_every_reduction_phase() {
        let (m, options) = (example_machine(), ReduceOptions::default());
        let (red, bare, out, gated) = with_tracing(|| {
            let red = try_reduce(&m, Objective::ResUses, &options);
            let bare = rmd_obs::drain_events();
            let out = reduce_with_fallback(&m, Objective::ResUses, &options);
            (red, bare, out, rmd_obs::drain_events())
        });
        assert!(red.is_ok() && out.fallback.is_none());
        // A bare `try_reduce` runs every phase exactly once.
        let span = |phase: &str| {
            let mut found = bare.iter().filter(|e| e.cat == "reduce" && e.name == phase);
            let e = *found
                .next()
                .unwrap_or_else(|| panic!("missing phase span: {phase}"));
            assert!(found.next().is_none(), "repeated phase span: {phase}");
            e
        };
        for phase in crate::REDUCTION_PHASES {
            span(phase);
            assert!(
                gated.iter().any(|e| e.cat == "reduce" && e.name == *phase),
                "missing phase span behind the fallback gate: {phase}"
            );
        }
        // `verify` checks the materialized machine, after its span closed.
        let (materialize, verify) = (span("materialize"), span("verify"));
        assert!(materialize.start_ns + materialize.dur_ns <= verify.start_ns);
        // No fallback happened, so no fallback instant was emitted.
        assert!(!gated.iter().any(|e| e.name == "fallback"));
    }

    #[test]
    fn fallback_emits_an_instant_event() {
        let (out, events) = with_tracing(|| {
            let options = ReduceOptions { max_steps: Some(1) };
            let out = reduce_with_fallback(&example_machine(), Objective::ResUses, &options);
            (out, rmd_obs::drain_events())
        });
        assert!(out.fallback.is_some());
        assert!(events
            .iter()
            .any(|e| e.cat == "reduce" && e.name == "fallback"));
    }

    #[test]
    fn generous_budget_still_succeeds() {
        let m = example_machine();
        let options = ReduceOptions {
            max_steps: Some(1_000_000),
        };
        let out = reduce_with_fallback(&m, Objective::KCycleWord { k: 2 }, &options);
        assert!(out.fallback.is_none());
    }
}
