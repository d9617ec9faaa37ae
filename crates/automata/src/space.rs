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
//! A state is a commitment matrix packed cycle-major: bit
//! `cycle * num_resources + r` set iff resource `r` is committed that
//! many cycles from now. Issuing an operation ORs in its
//! reservation-table mask (legal only when disjoint); one cycle of time
//! shifts every commitment toward the present, which in this layout is
//! a right shift of the words by `num_resources` bits. The start state
//! (an empty pipeline) is all zero words.
//!
//! [`Automaton`]: crate::Automaton
//! [`StateArena`]: crate::StateArena

use crate::state::{self, StateShape};
use rmd_machine::{MachineDescription, OpId};

/// The commitment-state transition system of one machine description,
/// enumerated lazily (no transition table is built).
pub struct StateSpace {
    shape: StateShape,
    masks: Vec<Vec<u64>>,
}

impl StateSpace {
    /// Build the state space of `machine`. Cost is one mask per
    /// operation; no reachability is performed.
    pub fn new(machine: &MachineDescription) -> Self {
        let shape = StateShape::for_machine(machine);
        let masks = machine
            .operations()
            .iter()
            .map(|op| shape.table_mask(op.table(), None))
            .collect();
        StateSpace { shape, masks }
    }

    /// Number of operations (valid `OpId` indexes for
    /// [`can_issue`](StateSpace::can_issue)).
    pub fn num_ops(&self) -> usize {
        self.masks.len()
    }

    /// Number of `u64` words in each state's packed representation; the
    /// start state is this many zero words.
    pub fn state_words(&self) -> usize {
        self.shape.blocks
    }

    /// Whether `op` can issue in `state` (its reservation table is
    /// disjoint from the current commitments).
    pub fn can_issue(&self, state: &[u64], op: OpId) -> bool {
        !state::conflicts(state, &self.masks[op.index()])
    }

    /// Writes the state after issuing `op` in `state` into `out`. Only
    /// a transition when [`can_issue`](StateSpace::can_issue) holds.
    pub fn issue(&self, state: &[u64], op: OpId, out: &mut [u64]) {
        state::union(state, &self.masks[op.index()], out);
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
