//! Modulo-schedule certification: cycle-normalized states per II.
//!
//! In a modulo schedule at initiation interval `II`, every placement
//! repeats each `II` cycles, so the state of a resource is normalized to
//! its cycle class mod `II` and the observable relation collapses to a
//! finite one: placing `z` at slot offset `d` after `o` conflicts iff
//! some linear conflict offset `a` (in either order) satisfies
//! `a ≡ ±d (mod II)`. The prover folds both machines' conflict vectors
//! at every `II` up to the bound and compares:
//!
//! * per operation, whether it *fits* at `II` at all (no positive
//!   self-conflict offset divisible by `II`);
//! * per ordered pair of fitting operations, the folded conflict
//!   relation at every slot offset `d ∈ 0..II`.
//!
//! The bound `max_ii = span` is complete: for `II ≥ span` every residue
//! class mod `II` contains at most one representable offset (`d` or
//! `d − II`), so the folded relation is a relabeling of the linear
//! relation the product pass already proved equal, and `fits` is
//! vacuously true on both sides.

use crate::cex::{CexKind, Counterexample};
use crate::conflict::ConflictVectors;
use crate::CertifyFailure;
use rmd_machine::OpId;

/// Statistics from a completed modulo pass.
#[derive(Clone, Copy, Debug)]
pub struct ModuloStats {
    /// Largest initiation interval checked explicitly.
    pub max_ii: u32,
    /// Folded `(II, o, z, d)` comparisons performed.
    pub comparisons: u64,
}

/// Compare the folded modulo-conflict relations of the two machines for
/// every II in `1..=max_ii`, where `max_ii` is the complete bound: the
/// larger span, and at least 1.
pub(crate) fn certify_modulo(
    a: &ConflictVectors,
    b: &ConflictVectors,
) -> Result<ModuloStats, CertifyFailure> {
    let max_ii = a.span().max(b.span()).max(1);
    let n = a.num_ops();
    let mut comparisons = 0u64;
    for ii in 1..=max_ii {
        // An op that cannot sustain the II on one side but can on the
        // other is already a disagreement — about the op alone.
        for op in 0..n {
            let fa = a.fits(op, ii);
            let fb = b.fits(op, ii);
            comparisons += 1;
            if fa != fb {
                return Err(CexKind::Modulo { ii }.mismatch(vec![], (op, 0), fa, fb));
            }
        }
        for o in 0..n {
            if !a.fits(o, ii) {
                // Agreed-unplaceable on both sides (fits was compared
                // above); conflicts beyond it are unobservable.
                continue;
            }
            for z in 0..n {
                if !a.fits(z, ii) {
                    continue;
                }
                for d in 0..ii {
                    let ca = a.conflicts_mod(o, z, d, ii);
                    let cb = b.conflicts_mod(o, z, d, ii);
                    comparisons += 1;
                    if ca != cb {
                        // `o` placed at slot 0, probe `z` at slot `d`:
                        // admitted iff no conflict.
                        return Err(CexKind::Modulo { ii }.mismatch(
                            vec![(o, 0)],
                            (z, d),
                            !ca,
                            !cb,
                        ));
                    }
                }
            }
        }
    }
    Ok(ModuloStats {
        max_ii,
        comparisons,
    })
}

impl CexKind {
    fn mismatch(
        self,
        places: Vec<(usize, u32)>,
        probe: (usize, u32),
        left: bool,
        right: bool,
    ) -> CertifyFailure {
        CertifyFailure::Mismatch(Box::new(Counterexample {
            kind: self,
            places: places
                .into_iter()
                .map(|(op, c)| (OpId(op as u32), c))
                .collect(),
            probe: (OpId(probe.0 as u32), probe.1),
            left_admits: left,
            right_admits: right,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::{models, MachineBuilder};

    #[test]
    fn machine_equals_itself_at_every_ii() {
        let m = models::cydra5_subset();
        let cv = ConflictVectors::compute(&m).expect("span fits");
        let stats = certify_modulo(&cv, &cv).expect("reflexive");
        assert_eq!(stats.max_ii, cv.span());
        assert!(stats.comparisons > 0);
    }

    /// Two machines that agree on every *linear* offset can still be
    /// told apart... never: folding is determined by the vectors. But a
    /// deliberately different machine must be caught with a modulo
    /// counterexample when only the modulo pass runs.
    #[test]
    fn detects_a_folded_disagreement() {
        let mk = |gap: u32| {
            let mut b = MachineBuilder::new("t");
            let r = b.resource("r");
            b.operation("x").usage(r, 0).usage(r, gap).finish();
            b.build().unwrap()
        };
        let a = ConflictVectors::compute(&mk(2)).expect("fits");
        let b = ConflictVectors::compute(&mk(3)).expect("fits");
        let err = certify_modulo(&a, &b).expect_err("different self-conflicts");
        match err {
            CertifyFailure::Mismatch(cex) => {
                assert!(matches!(cex.kind, CexKind::Modulo { .. }));
                assert_ne!(cex.left_admits, cex.right_admits);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }
}
