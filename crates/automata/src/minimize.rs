//! Automaton minimization by partition refinement.
//!
//! Proebsting & Fraser's construction yields *minimal* automata (6175
//! states for their MIPS R3000/R3010 description); the BFS construction
//! in [`Automaton::build`] does not minimize, so its raw state counts
//! overstate the approach. This module implements Moore-style partition
//! refinement with signature hashing: states are initially partitioned
//! by their per-symbol *admissibility* vector (which issues are legal),
//! then split until no symbol distinguishes two states of a block. All
//! states are accepting, so admissibility plus successor blocks fully
//! determine equivalence.

use crate::automaton::{Automaton, StateId};
use std::collections::HashMap;

/// The result of minimizing an automaton.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The minimal automaton.
    pub automaton: Automaton,
    /// For each original state, its state in the minimal automaton.
    pub state_map: Vec<StateId>,
}

/// Minimizes `a` by Moore partition refinement.
///
/// The returned automaton accepts exactly the same issue/advance
/// sequences (tested property), with the provably minimal number of
/// states for that language under the "all states accepting,
/// partiality distinguishes" convention.
pub fn minimize(a: &Automaton) -> Minimized {
    let n = a.num_states();
    let num_ops = a.num_ops();

    // Initial partition: by admissibility vector (which ops can issue).
    let mut block: Vec<u32> = Vec::with_capacity(n);
    {
        let mut index: HashMap<Vec<bool>, u32> = HashMap::new();
        for s in 0..n {
            let sig: Vec<bool> = (0..num_ops)
                .map(|op| a.can_issue(StateId(s as u32), rmd_machine::OpId(op as u32)))
                .collect();
            let next = index.len() as u32;
            let b = *index.entry(sig).or_insert(next);
            block.push(b);
        }
    }

    // Refine: signature = (own block, successor block per symbol).
    loop {
        let mut index: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut next_block: Vec<u32> = Vec::with_capacity(n);
        for s in 0..n {
            let sid = StateId(s as u32);
            let mut succ = Vec::with_capacity(num_ops + 1);
            for op in 0..num_ops {
                let t = a.issue(sid, rmd_machine::OpId(op as u32));
                succ.push(t.map_or(u32::MAX, |t| block[t.index()]));
            }
            succ.push(block[a.advance(sid).index()]);
            let key = (block[s], succ);
            let fresh = index.len() as u32;
            let b = *index.entry(key).or_insert(fresh);
            next_block.push(b);
        }
        let stable = index.len() as u32 == num_blocks(&block);
        block = next_block;
        if stable {
            break;
        }
    }

    // Build the quotient automaton. Block of the start state becomes
    // state 0 by renumbering.
    let nb = num_blocks(&block) as usize;
    let mut renumber: Vec<u32> = vec![u32::MAX; nb];
    let mut order: Vec<u32> = Vec::with_capacity(nb);
    // BFS order from the start block for a canonical numbering.
    let mut queue = std::collections::VecDeque::new();
    let start_block = block[0];
    renumber[start_block as usize] = 0;
    order.push(start_block);
    queue.push_back(start_block);
    // Representative original state per block.
    let mut rep: Vec<u32> = vec![u32::MAX; nb];
    for s in (0..n).rev() {
        rep[block[s] as usize] = s as u32;
    }
    while let Some(b) = queue.pop_front() {
        let s = StateId(rep[b as usize]);
        let visit = |tb: u32,
                     renumber: &mut Vec<u32>,
                     order: &mut Vec<u32>,
                     queue: &mut std::collections::VecDeque<u32>| {
            if renumber[tb as usize] == u32::MAX {
                renumber[tb as usize] = order.len() as u32;
                order.push(tb);
                queue.push_back(tb);
            }
        };
        for op in 0..num_ops {
            if let Some(t) = a.issue(s, rmd_machine::OpId(op as u32)) {
                visit(block[t.index()], &mut renumber, &mut order, &mut queue);
            }
        }
        visit(
            block[a.advance(s).index()],
            &mut renumber,
            &mut order,
            &mut queue,
        );
    }

    let reachable = order.len();
    let mut issue_t = vec![u32::MAX; reachable * num_ops];
    let mut advance_t = vec![0u32; reachable];
    for (new_idx, &b) in order.iter().enumerate() {
        let s = StateId(rep[b as usize]);
        for op in 0..num_ops {
            issue_t[new_idx * num_ops + op] = match a.issue(s, rmd_machine::OpId(op as u32)) {
                Some(t) => renumber[block[t.index()] as usize],
                None => u32::MAX,
            };
        }
        advance_t[new_idx] = renumber[block[a.advance(s).index()] as usize];
    }

    let automaton = Automaton::from_parts(a.direction(), num_ops, issue_t, advance_t);
    let state_map = block
        .iter()
        .map(|&b| StateId(renumber[b as usize]))
        .collect();
    Minimized {
        automaton,
        state_map,
    }
}

fn num_blocks(block: &[u32]) -> u32 {
    block.iter().copied().max().map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Direction;
    use rmd_machine::models::example_machine;
    use rmd_machine::{MachineBuilder, OpId};

    #[test]
    fn minimization_never_grows() {
        let m = example_machine();
        let a = Automaton::build(&m, Direction::Forward, 1 << 18).unwrap();
        let min = minimize(&a);
        assert!(min.automaton.num_states() <= a.num_states());
        assert!(min.automaton.num_states() > 1);
        assert_eq!(min.state_map.len(), a.num_states());
    }

    #[test]
    fn minimized_accepts_same_language_on_scripts() {
        let m = example_machine();
        let a = Automaton::build(&m, Direction::Forward, 1 << 18).unwrap();
        let min = minimize(&a).automaton;
        let ops = [OpId(0), OpId(1)];
        // Exhaustive scripts of length 6 over {A, B, advance}.
        let mut stack = vec![(a.start(), min.start(), 0u32)];
        while let Some((sa, sm, depth)) = stack.pop() {
            if depth == 6 {
                continue;
            }
            for &op in &ops {
                let ta = a.issue(sa, op);
                let tm = min.issue(sm, op);
                assert_eq!(ta.is_some(), tm.is_some(), "divergence at depth {depth}");
                if let (Some(ta), Some(tm)) = (ta, tm) {
                    stack.push((ta, tm, depth + 1));
                }
            }
            stack.push((a.advance(sa), min.advance(sm), depth + 1));
        }
    }

    #[test]
    fn redundant_resources_collapse_states() {
        // Two ops on duplicated resources: the automaton sees identical
        // behaviour whether one or both resources are modeled.
        let mut b = MachineBuilder::new("dup");
        let r0 = b.resource("r0");
        let r1 = b.resource("r1"); // shadow of r0
        b.operation("x")
            .usage(r0, 0)
            .usage(r1, 0)
            .usage(r0, 2)
            .usage(r1, 2)
            .finish();
        let dup = b.build().unwrap();
        let mut b = MachineBuilder::new("single");
        let r0 = b.resource("r0");
        b.operation("x").usage(r0, 0).usage(r0, 2).finish();
        let single = b.build().unwrap();

        let a_dup = minimize(&Automaton::build(&dup, Direction::Forward, 1 << 16).unwrap());
        let a_single = minimize(&Automaton::build(&single, Direction::Forward, 1 << 16).unwrap());
        assert_eq!(
            a_dup.automaton.num_states(),
            a_single.automaton.num_states(),
            "equivalent machines must minimize to equal-size automata"
        );
    }
}
