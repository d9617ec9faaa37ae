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
//! [`StateSpace::admitted`] answers "which operations can issue here?"
//! for all operations at once, as a bit set of `u64` words, in one pass
//! over the masks (stored op-major, back to back).
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

    /// Number of operations: valid `OpId` indexes, and the bits of an
    /// [`admitted`](StateSpace::admitted) set.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// Number of `u64` words in each state's packed representation; the
    /// start state is this many zero words.
    pub fn state_words(&self) -> usize {
        self.shape.blocks
    }

    /// Number of `u64` words in an [`admitted`](StateSpace::admitted)
    /// set: one bit per operation.
    pub fn op_words(&self) -> usize {
        self.num_ops.div_ceil(64)
    }

    /// Writes the set of operations that can issue in `state` into
    /// `out`, [`op_words`](StateSpace::op_words) words wide: bit
    /// `op % 64` of word `op / 64` is set iff `op`'s reservation table
    /// is disjoint from the current commitments. One pass over the
    /// op-major masks.
    pub fn admitted(&self, state: &[u64], out: &mut [u64]) {
        // Every operation reserves some cell, so a state is at least
        // one word wide.
        let w = self.shape.blocks;
        for (word, masks) in out.iter_mut().zip(self.masks.chunks(64 * w)) {
            *word = masks
                .chunks_exact(w)
                .enumerate()
                .fold(0, |set, (bit, mask)| {
                    set | u64::from(!state::conflicts(state, mask)) << bit
                });
        }
    }

    /// Writes the state after issuing `op` in `state` into `out`. Only
    /// a transition when `op` is [`admitted`](StateSpace::admitted).
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
    use rmd_machine::{models, MachineBuilder};
    use std::collections::{HashSet, VecDeque};

    /// Whether bit `op` of a [`StateSpace::admitted`] set is set.
    fn admits(space: &StateSpace, state: &[u64], op: usize) -> bool {
        let mut set = vec![0; space.op_words()];
        space.admitted(state, &mut set);
        set[op / 64] >> (op % 64) & 1 == 1
    }

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
            for op in (0..space.num_ops()).filter(|&op| admits(&space, &s, op)) {
                space.issue(&s, OpId(op as u32), &mut next);
                push(&next);
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
        assert!(admits(&space, &start, 0), "empty state is free");
        let mut cur = start.clone();
        space.issue(&start, OpId(0), &mut cur);
        assert!(!admits(&space, &cur, 0), "table self-conflicts at cycle 0");
        let mut next = start.clone();
        for _ in 0..m.max_table_length() {
            space.advance(&cur, &mut next);
            cur.copy_from_slice(&next);
        }
        assert_eq!(cur, start, "all commitments expire");
    }

    /// Admitted sets against the tables themselves, on machines of 1,
    /// 63, 64, 65 and 130 operations (sets of one to three words, full
    /// and partial last words): a seeded walk issues admitted ops and
    /// advances, tracking the committed `(resource, cycles from now)`
    /// cells in a set; at every step an op must be admitted iff none of
    /// its usages is committed, and bits past the last op stay clear.
    #[test]
    fn admitted_sets_match_the_tables() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for num_ops in [1usize, 63, 64, 65, 130] {
            let mut b = MachineBuilder::new("ops");
            let res: Vec<_> = (0..9).map(|r| b.resource(format!("r{r}"))).collect();
            for op in 0..num_ops {
                let mut o = b.operation(format!("op{op}"));
                for _ in 0..1 + next() % 3 {
                    o = o.usage(res[(next() % 9) as usize], (next() % 6) as u32);
                }
                o.finish();
            }
            let m = b.build().expect("every op reserves a cell");
            let space = StateSpace::new(&m);
            assert_eq!(space.op_words(), num_ops.div_ceil(64));
            let mut state = vec![0; space.state_words()];
            let mut succ = state.clone();
            let mut set = vec![0; space.op_words()];
            let mut committed = HashSet::new();
            for _ in 0..200 {
                space.admitted(&state, &mut set);
                let mut fits = Vec::new();
                for (op, desc) in m.operations().iter().enumerate() {
                    let want = desc
                        .table()
                        .usages()
                        .iter()
                        .all(|u| !committed.contains(&(u.resource.index(), u.cycle)));
                    assert_eq!(set[op / 64] >> (op % 64) & 1 == 1, want, "op {op}");
                    if want {
                        fits.push(op);
                    }
                }
                let ones: u32 = set.iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones as usize, fits.len(), "no bit past the last op");
                if fits.is_empty() || next() % 3 == 0 {
                    space.advance(&state, &mut succ);
                    committed = committed
                        .into_iter()
                        .filter(|&(_, cycle)| cycle > 0)
                        .map(|(r, cycle)| (r, cycle - 1))
                        .collect();
                } else {
                    let op = fits[(next() % fits.len() as u64) as usize];
                    space.issue(&state, OpId(op as u32), &mut succ);
                    for u in m.operations()[op].table().usages() {
                        committed.insert((u.resource.index(), u.cycle));
                    }
                }
                state.copy_from_slice(&succ);
            }
        }
    }
}
