//! Whole-machine product reachability over commitment states.
//!
//! The pairwise conflict-mask pass is the complete proof (resource
//! conflicts decompose over pairs of placed instances); this pass is the
//! belt to those braces: a product BFS over the *unquotiented*
//! resource-commitment spaces of both machines ([`StateSpace`]), checking
//! that every operation is admitted identically at every reachable
//! product state. Commitment spaces grow multiplicatively with issue
//! width — the Cydra 5 exceeds 5 million states even reduced — so the
//! pass runs under a product-state budget and records itself as skipped
//! when the budget is hit. A skipped global pass does not weaken the
//! certificate: it is strictly redundant with the pairwise proof.
//!
//! A product state is the left machine's packed commitment words
//! followed by the right machine's, interned in one [`StateArena`], so a
//! transition allocates nothing. Each side packs only the resource-cycle
//! cells its tables can reserve ([`StateSpace`]): an alpha21064 state
//! takes 5 words where the full resource × cycle matrix would take 53.

use crate::cex::{CexKind, Counterexample};
use crate::CertifyFailure;
use rmd_automata::{StateArena, StateSpace};
use rmd_machine::{MachineDescription, OpId};

/// Outcome of the global commitment-product pass.
#[derive(Clone, Copy, Debug)]
pub struct GlobalStats {
    /// Whether the pass ran to completion (`false`: budget exhausted,
    /// pass recorded as skipped).
    pub completed: bool,
    /// Product states explored (reachable count when `completed`).
    pub product_states: u64,
    /// The budget the pass ran under.
    pub budget: u64,
}

/// How a product state was reached.
#[derive(Clone, Copy)]
enum Step {
    Root,
    Advance,
    Issue(u32),
}

/// BFS the product of the two commitment spaces up to `budget` states.
pub(crate) fn certify_global(
    left: &MachineDescription,
    right: &MachineDescription,
    budget: u64,
) -> Result<GlobalStats, CertifyFailure> {
    let a = StateSpace::new(left);
    let b = StateSpace::new(right);
    let n = a.num_ops().min(b.num_ops());
    let split = a.state_words();

    let mut states = StateArena::new(split + b.state_words());
    let mut cur = vec![0; states.width()];
    let mut next = cur.clone();
    states.intern(&cur);
    let mut parents = vec![(0u32, Step::Root)];
    // Ids are handed out in discovery order and only fresh states are
    // expanded, so visiting ids in order is breadth-first.
    let mut id = 0u32;
    let mut fits = vec![false; n];
    while (id as usize) < states.len() {
        cur.copy_from_slice(states.get(id));
        let (sa, sb) = cur.split_at(split);
        for (op, fit) in fits.iter_mut().enumerate() {
            let op = OpId(op as u32);
            let ca = a.can_issue(sa, op);
            let cb = b.can_issue(sb, op);
            if ca != cb {
                return Err(CertifyFailure::Mismatch(Box::new(build_cex(
                    &parents, id, op, ca, cb,
                ))));
            }
            *fit = ca;
        }
        let (na, nb) = next.split_at_mut(split);
        a.advance(sa, na);
        b.advance(sb, nb);
        if states.intern(&next).1 {
            parents.push((id, Step::Advance));
        }
        // Bisimulation above guarantees both sides admit the same ops.
        for op in (0..n as u32).filter(|&op| fits[op as usize]) {
            let (na, nb) = next.split_at_mut(split);
            a.issue(sa, OpId(op), na);
            b.issue(sb, OpId(op), nb);
            if states.intern(&next).1 {
                parents.push((id, Step::Issue(op)));
            }
        }
        if states.len() as u64 > budget {
            return Ok(GlobalStats {
                completed: false,
                product_states: states.len() as u64,
                budget,
            });
        }
        id += 1;
    }
    Ok(GlobalStats {
        completed: true,
        product_states: states.len() as u64,
        budget,
    })
}

fn build_cex(
    parents: &[(u32, Step)],
    id: u32,
    probe: OpId,
    left: bool,
    right: bool,
) -> Counterexample {
    let mut path = Vec::new();
    let mut cur = id;
    loop {
        let (parent, step) = parents[cur as usize];
        if matches!(step, Step::Root) {
            break;
        }
        path.push(step);
        cur = parent;
    }
    path.reverse();
    let mut cycle = 0u32;
    let mut places = Vec::new();
    for step in path {
        match step {
            Step::Root => unreachable!("root is never recorded as a step"),
            Step::Advance => cycle += 1,
            Step::Issue(op) => places.push((OpId(op), cycle)),
        }
    }
    Counterexample {
        kind: CexKind::Linear,
        places,
        probe: (probe, cycle),
        left_admits: left,
        right_admits: right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models;

    #[test]
    fn fig1_product_with_itself_completes() {
        let m = models::example_machine();
        let stats = certify_global(&m, &m, 1 << 20).expect("reflexive");
        assert!(stats.completed);
        // The diagonal product of a space with itself has exactly the
        // space's own reachable count (measured elsewhere: 116).
        assert_eq!(stats.product_states, 116);
    }

    /// `certify_pair` stops at the linear pass's mismatch first, so the
    /// global pass is driven directly here: the counterexample it walks
    /// back from the arena's parent pointers must replay to the
    /// divergence.
    #[test]
    fn broken_reduction_yields_a_replayable_counterexample() {
        use rmd_query::{DiscreteModule, Response};
        let m = models::example_machine();
        let broken = crate::tests::broken(&m);
        let cex = match certify_global(&m, &broken, 1 << 20) {
            Err(CertifyFailure::Mismatch(cex)) => cex,
            other => panic!("expected mismatch, got {other:?}"),
        };
        assert!(!cex.places.is_empty(), "an empty pipeline admits everything");
        assert_ne!(cex.left_admits, cex.right_admits);
        let trace = cex.to_trace(m.name());
        let la = trace.replay(&mut DiscreteModule::new(&m));
        let ra = trace.replay(&mut DiscreteModule::new(&broken));
        let last = trace.len() - 1;
        for (l, r) in la[..last].iter().zip(&ra[..last]) {
            assert_eq!(l.response, r.response, "the prefix replays alike");
        }
        assert_eq!(la[last].response, Response::Admitted(cex.left_admits));
        assert_eq!(ra[last].response, Response::Admitted(cex.right_admits));
    }

    #[test]
    fn budget_exhaustion_is_a_skip_not_an_error() {
        let m = models::mips_r3000();
        let stats = certify_global(&m, &m, 100).expect("no mismatch before budget");
        assert!(!stats.completed);
        assert!(stats.product_states > 100);
    }
}
