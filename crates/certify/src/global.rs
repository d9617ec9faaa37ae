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
//!
//! Each side writes the ops it admits at a state as a bit set, so the
//! bisimulation check compares one word per 64 ops, and the lowest bit
//! of the first differing word names the lowest op the sides disagree
//! on. Issues then walk the set bits in *canonical issue order*: a state
//! first reached by issuing op `a` issues only ops `b ≥ a`, because every
//! successor through a lower op already has an id (see the proof at the
//! skip below). Ids, parents, counts, budget stops and counterexamples
//! are those of the BFS that issues every admitted op. One
//! [`GlobalScratch`] serves every pair a `certify_machine` call proves,
//! so the second objective reuses the index, state words and parents
//! the first one grew.

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

/// The BFS storage of the global pass, reused by every pair a
/// `certify_machine` call proves: the interned product states and how
/// each was first reached.
pub(crate) struct GlobalScratch {
    states: StateArena,
    parents: Vec<(u32, Step)>,
}

impl GlobalScratch {
    pub fn new() -> Self {
        GlobalScratch {
            states: StateArena::new(0),
            parents: Vec::new(),
        }
    }
}

/// BFS the product of the two commitment spaces up to `budget` states.
/// Both machines have the same operation count (`certify_pair` checks).
pub(crate) fn certify_global(
    left: &MachineDescription,
    right: &MachineDescription,
    budget: u64,
    scratch: &mut GlobalScratch,
) -> Result<GlobalStats, CertifyFailure> {
    let a = StateSpace::new(left);
    let b = StateSpace::new(right);
    debug_assert_eq!(a.num_ops(), b.num_ops());
    let split = a.state_words();

    let GlobalScratch { states, parents } = scratch;
    states.reset(split + b.state_words());
    let mut cur = vec![0; states.width()];
    let mut next = cur.clone();
    states.intern(&cur);
    parents.clear();
    parents.push((0, Step::Root));
    let mut admits_a = vec![0; a.op_words()];
    let mut admits_b = admits_a.clone();
    // Ids are handed out in discovery order and only fresh states are
    // expanded, so visiting ids in order is breadth-first.
    let mut id = 0u32;
    while (id as usize) < states.len() {
        cur.copy_from_slice(states.get(id));
        let (sa, sb) = cur.split_at(split);
        a.admitted(sa, &mut admits_a);
        b.admitted(sb, &mut admits_b);
        // Bisimulation: both sides admit the same ops. The lowest
        // differing bit is the lowest op on which they disagree.
        if let Some(word) = admits_a.iter().zip(&admits_b).position(|(l, r)| l != r) {
            let bit = (admits_a[word] ^ admits_b[word]).trailing_zeros();
            let left_admits = admits_a[word] >> bit & 1 == 1;
            let op = OpId((word * 64) as u32 + bit);
            return Err(CertifyFailure::Mismatch(Box::new(build_cex(
                parents,
                id,
                op,
                left_admits,
                !left_admits,
            ))));
        }
        let (na, nb) = next.split_at_mut(split);
        a.advance(sa, na);
        b.advance(sb, nb);
        if states.intern(&next).1 {
            parents.push((id, Step::Advance));
        }
        // Canonical issue order: a state first reached by issuing `op`
        // from `s` does not issue the ops below `op`. Such an op `o`, if
        // it fits here, fits `s` too, so `s ∪ M[o]` got its id before
        // this state did; its expansion came first and gave
        // `s ∪ M[o] ∪ M[op]` an id (by induction on ids; see DESIGN
        // §14). Only interns that would find a state are skipped.
        let from = match parents[id as usize].1 {
            Step::Issue(op) => op as usize,
            Step::Root | Step::Advance => 0,
        };
        for (word, &set) in admits_a.iter().enumerate().skip(from / 64) {
            let mut set = if word == from / 64 {
                set & (!0 << (from % 64))
            } else {
                set
            };
            while set != 0 {
                let op = OpId((word * 64) as u32 + set.trailing_zeros());
                set &= set - 1;
                let (na, nb) = next.split_at_mut(split);
                a.issue(sa, op, na);
                b.issue(sb, op, nb);
                if states.intern(&next).1 {
                    parents.push((id, Step::Issue(op.0)));
                }
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
    use rmd_machine::{models, MachineBuilder};

    fn global(
        left: &MachineDescription,
        right: &MachineDescription,
        budget: u64,
    ) -> Result<GlobalStats, CertifyFailure> {
        certify_global(left, right, budget, &mut GlobalScratch::new())
    }

    fn mismatch(result: Result<GlobalStats, CertifyFailure>) -> Counterexample {
        match result {
            Err(CertifyFailure::Mismatch(cex)) => *cex,
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    /// The counterexample's placements, probe and both answers.
    type Witness = (Vec<(u32, u32)>, (u32, u32), bool, bool);

    fn witness(cex: &Counterexample) -> Witness {
        let places = cex.places.iter().map(|&(op, c)| (op.0, c)).collect();
        let probe = (cex.probe.0 .0, cex.probe.1);
        (places, probe, cex.left_admits, cex.right_admits)
    }

    /// An edit of one op of a [`wide`] machine: op `.0` also uses the
    /// `(resource, cycle)` cells `.1`, and keeps its second cell iff
    /// `.2`.
    type Edit = (u32, &'static [(usize, u32)], bool);

    /// 72 operations, so admitted sets span two words: op `i` holds
    /// resource `i % 24` at cycle `i / 24` and the next resource a cycle
    /// later, except as `edit` says.
    fn wide(edit: Option<Edit>) -> MachineDescription {
        let mut b = MachineBuilder::new("wide72");
        let r: Vec<_> = (0..24).map(|i| b.resource(format!("r{i}"))).collect();
        for i in 0..72u32 {
            let (k, g) = ((i % 24) as usize, i / 24);
            let edit = edit.filter(|e| e.0 == i);
            let mut op = b.operation(format!("op{i}")).usage(r[k], g);
            if edit.map_or(true, |e| e.2) {
                op = op.usage(r[(k + 1) % 24], g + 1);
            }
            for &(res, cycle) in edit.map_or(&[][..], |e| e.1) {
                op = op.usage(r[res], cycle);
            }
            op.finish();
        }
        b.build().expect("valid machine")
    }

    #[test]
    fn fig1_product_with_itself_completes() {
        let m = models::example_machine();
        let stats = global(&m, &m, 1 << 20).expect("reflexive");
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
        let cex = mismatch(global(&m, &broken, 1 << 20));
        assert!(
            !cex.places.is_empty(),
            "an empty pipeline admits everything"
        );
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

    /// The counterexamples of the pass are pinned to the ones the
    /// per-op admission loop without the canonical issue order found:
    /// the first divergent state in id order, and its lowest divergent
    /// op. On fig1; on two 72-op pairs that first diverge on op 70 (op
    /// 70 also takes r19 at cycle 3, op 66's second cell) and on op 71
    /// (op 70 drops its second cell), in the second word of the
    /// admitted sets; and on one whose op 3 also takes r9 at cycle 1
    /// and r19 at cycle 3, so that ops 8 and 33 of the first word and
    /// op 66 of the second diverge at once.
    #[test]
    fn counterexamples_are_pinned() {
        let m = models::example_machine();
        let cex = mismatch(global(&m, &crate::tests::broken(&m), 1 << 20));
        assert_eq!(witness(&cex), (vec![(0, 0)], (1, 0), true, false));
        for (edit, want) in [
            (
                (70, &[(19, 3)][..], true),
                (vec![(66, 0)], (70, 0), true, false),
            ),
            ((70, &[][..], false), (vec![(70, 0)], (71, 1), false, true)),
            (
                (3, &[(9, 1), (19, 3)][..], true),
                (vec![(3, 0)], (8, 0), true, false),
            ),
        ] {
            let cex = mismatch(global(&wide(None), &wide(Some(edit)), 1 << 20));
            assert_eq!(witness(&cex), want, "edit {edit:?}");
        }
    }

    /// Budget stops on the 72-op machine land on the counts the pass
    /// reached before the canonical issue order: the skip only drops
    /// interns of states that already have ids.
    #[test]
    fn wide_budget_stops_are_pinned() {
        let m = wide(None);
        for (budget, states) in [(50, 73), (1_000, 1_033), (5_000, 5_002)] {
            let stats = global(&m, &m, budget).expect("reflexive");
            assert!(!stats.completed);
            assert_eq!(stats.product_states, states, "budget {budget}");
        }
    }

    /// One scratch lent to pairs of different state widths and sizes
    /// gives each the result a fresh one does.
    #[test]
    fn a_reused_scratch_matches_a_fresh_one() {
        let fig1 = models::example_machine();
        let wide = wide(None);
        let mut scratch = GlobalScratch::new();
        for (m, budget) in [
            (&wide, 5_000),
            (&fig1, 1 << 20),
            (&wide, 50),
            (&fig1, 1 << 20),
        ] {
            let reused = certify_global(m, m, budget, &mut scratch).expect("reflexive");
            let fresh = global(m, m, budget).expect("reflexive");
            assert_eq!(
                (reused.completed, reused.product_states),
                (fresh.completed, fresh.product_states)
            );
        }
        let broken = crate::tests::broken(&fig1);
        let cex = mismatch(certify_global(&fig1, &broken, 1 << 20, &mut scratch));
        assert_eq!(
            witness(&cex),
            witness(&mismatch(global(&fig1, &broken, 1 << 20)))
        );
    }

    #[test]
    fn budget_exhaustion_is_a_skip_not_an_error() {
        let m = models::mips_r3000();
        let stats = global(&m, &m, 100).expect("no mismatch before budget");
        assert!(!stats.completed);
        assert!(stats.product_states > 100);
    }
}
