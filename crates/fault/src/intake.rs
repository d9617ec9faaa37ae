//! Counterexample intake: independent confirmation of `rmd certify`
//! disproofs.
//!
//! The static prover and the differential trace oracle are built on
//! different foundations — conflict-vector reachability versus concrete
//! query-module execution — which is exactly what makes one a useful
//! witness for the other. When certification fails, its
//! [`Counterexample`] converts to a [`QueryTrace`](rmd_query::QueryTrace)
//! and lands here: the trace is *recorded* against query modules over
//! the original description and *replayed* over the suspect's modules
//! with [`replay_backends`]. A counterexample is
//! **confirmed** only when the runtime modules reproduce the divergence
//! the prover predicted; a static false positive replays clean and is
//! rejected.

use crate::oracle::replay_backends;
use rmd_certify::{CexKind, Counterexample};
use rmd_machine::MachineDescription;
use rmd_query::{Answer, DiscreteModule, ModuloDiscreteModule, Response};

/// Replay a certify counterexample through the runtime query modules of
/// both descriptions and report the first divergence.
///
/// Returns `Some(description)` when the suspect's modules answer the
/// trace differently from the original's — the counterexample is
/// independently confirmed — or `None` when the replay finds no
/// divergence (or the original's own modules fail to reproduce the
/// answer the prover claimed, i.e. the counterexample is bogus).
pub fn confirm_counterexample(
    original: &MachineDescription,
    suspect: &MachineDescription,
    cex: &Counterexample,
) -> Option<String> {
    let trace = cex.to_trace(original.name());
    let expected = match cex.kind {
        CexKind::Linear => trace.replay(&mut DiscreteModule::new(original)),
        CexKind::Modulo { ii } => trace.replay(&mut ModuloDiscreteModule::new(original, ii)),
    };
    check_claim(&expected, cex)?;
    replay_backends(&trace, &expected, suspect)
}

/// The original's own modules must answer the final probe exactly as
/// the prover claimed (`left_admits`); otherwise the counterexample
/// does not even describe the original machine and cannot be confirmed.
fn check_claim(expected: &[Answer], cex: &Counterexample) -> Option<()> {
    let last = expected.last()?;
    (last.response == Response::Admitted(cex.left_admits)).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::{mutate, MutantPayload, ALL_OPERATORS};
    use rmd_certify::{certify_pair, CertifyFailure, CertifyOptions};
    use rmd_machine::models::example_machine;
    use rmd_machine::OpId;

    /// The certify → intake loop, pinned kill-score style: on fig1,
    /// every semantic description-level mutant must (a) fail
    /// certification with a counterexample (not an error, not a pass)
    /// and (b) have that counterexample confirmed by the runtime
    /// modules; every neutral mutant must certify clean.
    #[test]
    fn every_semantic_mutant_yields_a_confirmed_counterexample() {
        let m = example_machine();
        let options = CertifyOptions::default();
        let mut semantic = 0;
        let mut neutral = 0;
        for op in ALL_OPERATORS {
            for seed in 0..8u64 {
                let Some(mu) = mutate(&m, op, seed) else {
                    continue;
                };
                let suspect = match &mu.payload {
                    MutantPayload::Machine(s) | MutantPayload::ReducedMachine(s) => s.clone(),
                    // Query-word corruption never changes the machine.
                    MutantPayload::QueryWord { .. } => continue,
                };
                if mu.is_semantic(&m) {
                    semantic += 1;
                    let cex = match certify_pair(&m, &suspect, &options) {
                        Err(CertifyFailure::Mismatch(cex)) => cex,
                        other => panic!("{op} seed {seed} ({}): {other:?}", mu.what),
                    };
                    assert!(
                        confirm_counterexample(&m, &suspect, &cex).is_some(),
                        "{op} seed {seed} ({}): prover counterexample not \
                         confirmed by the runtime modules:\n{}",
                        mu.what,
                        cex.render(&m)
                    );
                } else {
                    neutral += 1;
                    assert!(
                        certify_pair(&m, &suspect, &options).is_ok(),
                        "{op} seed {seed} ({}): neutral mutant failed to certify",
                        mu.what
                    );
                }
            }
        }
        assert!(semantic >= 10, "only {semantic} semantic mutants exercised");
        assert!(neutral >= 1, "only {neutral} neutral mutants exercised");
    }

    #[test]
    fn bogus_counterexamples_are_rejected() {
        // A counterexample whose claimed original-side answer is wrong
        // must not be confirmed, whatever the suspect does.
        let m = example_machine();
        let cex = rmd_certify::Counterexample {
            kind: rmd_certify::CexKind::Linear,
            places: vec![],
            probe: (OpId(0), 0),
            left_admits: false, // an empty pipeline admits everything
            right_admits: true,
        };
        assert_eq!(confirm_counterexample(&m, &m, &cex), None);
    }
}
