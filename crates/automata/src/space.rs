//! Lazy reachable-state enumeration over resource-commitment states.
//!
//! [`StateSpace`] exposes the commitment-state transition system of a
//! machine description *without* building an explicit [`Automaton`]
//! transition table: callers hold packed states as `&[u64]` words and
//! ask for successors one at a time, written into a buffer they own.
//! This is the enumeration API behind `rmd certify`'s global product
//! pass, where the interesting object is the product of two state spaces
//! — materializing either side's full automaton first would defeat the
//! purpose (the Cydra 5 commitment space exceeds 5 million states even
//! after reduction). A [`StateArena`] interns the reached states.
//!
//! A state is a commitment matrix packed over its live cells,
//! resource-major: resource `r` owns one bit per cycle up to the last
//! cycle any of the machine's tables reserves it, and a bit is set iff
//! `r` is committed that many cycles from now. Issuing an operation ORs
//! in its reservation-table mask (legal only when disjoint); one cycle
//! of time shifts every commitment toward the present, which in this
//! layout is a one-bit right shift of the words that clears the last
//! bit of each resource's run. The start state (an empty pipeline) is
//! all zero words.
//!
//! [`Automaton`]: crate::Automaton
//! [`StateArena`]: crate::StateArena

use crate::state::{self, StateShape};
use rmd_machine::{MachineDescription, OpId};

/// The commitment-state transition system of one machine description,
/// enumerated lazily (no transition table is built).
pub struct StateSpace {
    shape: StateShape,
    /// Operation `op`'s table mask is words `op * w..(op + 1) * w`, for
    /// `w` words per state.
    masks: Vec<u64>,
    num_ops: usize,
}

impl StateSpace {
    /// Build the state space of `machine`. Cost is one mask per
    /// operation; no reachability is performed.
    pub fn new(machine: &MachineDescription) -> Self {
        let tables = machine.operations().iter().map(|op| op.table());
        let (shape, masks) = StateShape::with_masks(machine.num_resources(), tables, None);
        StateSpace {
            shape,
            masks,
            num_ops: machine.num_operations(),
        }
    }

    fn mask(&self, op: OpId) -> &[u64] {
        let w = self.shape.blocks;
        &self.masks[op.index() * w..][..w]
    }

    /// Number of operations (valid `OpId` indexes for
    /// [`can_issue`](StateSpace::can_issue)).
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// Number of `u64` words in each state's packed representation; the
    /// start state is this many zero words.
    pub fn state_words(&self) -> usize {
        self.shape.blocks
    }

    /// Whether `op` can issue in `state` (its reservation table is
    /// disjoint from the current commitments).
    pub fn can_issue(&self, state: &[u64], op: OpId) -> bool {
        !state::conflicts(state, self.mask(op))
    }

    /// Writes the state after issuing `op` in `state` into `out`. Only
    /// a transition when [`can_issue`](StateSpace::can_issue) holds.
    pub fn issue(&self, state: &[u64], op: OpId, out: &mut [u64]) {
        state::union(state, self.mask(op), out);
    }

    /// Writes the state one cycle later into `out` (commitments at
    /// cycle 0 expire).
    pub fn advance(&self, state: &[u64], out: &mut [u64]) {
        self.shape.advance(state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Automaton, Direction};
    use rmd_machine::models;
    use std::collections::{HashSet, VecDeque};

    /// BFS over the lazy space must reach exactly as many states as the
    /// eagerly built forward automaton.
    #[test]
    fn reachable_count_matches_automaton() {
        let m = models::example_machine();
        let auto = Automaton::build(&m, Direction::Forward, 1 << 20).expect("fig1 fits");

        let space = StateSpace::new(&m);
        let start = vec![0; space.state_words()];
        let mut seen = HashSet::from([start.clone()]);
        let mut queue = VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            let mut push = |n: &[u64]| {
                if seen.insert(n.to_vec()) {
                    queue.push_back(n.to_vec());
                }
            };
            let mut next = vec![0; s.len()];
            space.advance(&s, &mut next);
            push(&next);
            for op in 0..space.num_ops() {
                let op = OpId(op as u32);
                if space.can_issue(&s, op) {
                    space.issue(&s, op, &mut next);
                    push(&next);
                }
            }
        }
        assert_eq!(seen.len(), auto.num_states());
    }

    /// States carry only the cells some table can reserve: 315 of
    /// alpha21064's 54 × 62 resource-cycle cells (5 words, not 53), 42
    /// of vliw_dsp's 11 × 13 (1 word, not 3).
    #[test]
    fn states_pack_live_cells_only() {
        let vliw = include_str!("../../../machines/vliw_dsp.mdl");
        let (vliw, _) = rmd_machine::mdl::parse_machine(vliw).expect("shipped machine parses");
        assert_eq!(StateSpace::new(&models::alpha21064()).state_words(), 5);
        assert_eq!(StateSpace::new(&vliw).state_words(), 1);
    }

    #[test]
    fn issue_then_advance_frees_resources() {
        let m = models::example_machine();
        let space = StateSpace::new(&m);
        let start = vec![0; space.state_words()];
        let op = OpId(0);
        assert!(space.can_issue(&start, op), "empty state is free");
        let mut cur = start.clone();
        space.issue(&start, op, &mut cur);
        assert!(!space.can_issue(&cur, op), "table self-conflicts at cycle 0");
        let mut next = start.clone();
        for _ in 0..m.max_table_length() {
            space.advance(&cur, &mut next);
            cur.copy_from_slice(&next);
        }
        assert_eq!(cur, start, "all commitments expire");
    }
}
