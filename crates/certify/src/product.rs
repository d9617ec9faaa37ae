//! Exhaustive pairwise product reachability over conflict-mask states.
//!
//! For a pair of operations `(x, y)` the certifier tracks, per machine,
//! one *future-conflict mask* per candidate: bit `t` of `x`'s mask set
//! iff issuing `x` at `now + t` would conflict with something already
//! placed. This is the observational quotient of the resource-commitment
//! automaton — two commitment states that restrict the candidates
//! identically collapse to one mask state — so the product stays tiny
//! even for machines whose commitment automata exceed millions of states
//! (Cydra 5). The transition relation is exact:
//!
//! * advance one cycle: every mask shifts right by one;
//! * issue `o` (legal iff bit 0 of `o`'s mask is clear): OR the
//!   precomputed conflict vector `cv[o][z]` into each candidate `z`.
//!
//! At every reachable product state the prover checks *contention
//! bisimulation*: both machines must admit exactly the same candidates
//! right now. Any disagreement is materialized as a counterexample trace
//! by walking BFS parent pointers back to the empty-pipeline state.
//!
//! A product state is stored as nine `u64` words — the four masks, low
//! half first, then the placement count — interned in a
//! [`StateArena`] that one [`PairScratch`] lends to every pair of a
//! certification run, cleared in between.

use crate::cex::{CexKind, Counterexample};
use crate::conflict::ConflictVectors;
use crate::{CertifyError, CertifyFailure, ISSUE_CAP};
use rmd_automata::StateArena;
use rmd_machine::OpId;

/// How a product state was reached from its parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Root,
    Advance,
    /// Issue candidate 0 (`x`) or 1 (`y`).
    Issue(u8),
}

/// One product state: the conflict masks of both candidates on both
/// machines — `(a_x, a_y, b_x, b_y)` — plus the number of placements
/// already made on the path that reached it.
///
/// The placement count is part of the state because exploration is
/// bounded by it. The bound loses nothing: a candidate's mask is the OR
/// of one shifted conflict vector per placement, so the two machines
/// disagree on some multi-placement state iff they disagree on some
/// *single*-placement state (project the divergent OR bit to the one
/// placement that contributes it — legal alone by monotonicity). The
/// certifier explores up to [`ISSUE_CAP`] = 2 placements anyway, one more
/// than a minimal witness needs, as redundancy against that very lemma.
type PairState = ([u128; 4], u8);

/// Words of a packed [`PairState`].
const PAIR_WORDS: usize = 9;

fn pack((masks, issued): PairState) -> [u64; PAIR_WORDS] {
    let mut words = [0; PAIR_WORDS];
    for (i, mask) in masks.into_iter().enumerate() {
        words[2 * i] = mask as u64;
        words[2 * i + 1] = (mask >> 64) as u64;
    }
    words[8] = u64::from(issued);
    words
}

fn unpack(words: &[u64]) -> PairState {
    let mask = |i: usize| u128::from(words[2 * i]) | u128::from(words[2 * i + 1]) << 64;
    ([mask(0), mask(1), mask(2), mask(3)], words[8] as u8)
}

/// The BFS storage of the linear pass, reused by every pair: the
/// interned product states and how each was first reached.
pub(crate) struct PairScratch {
    states: StateArena,
    parents: Vec<(u32, Step)>,
}

impl PairScratch {
    pub fn new() -> Self {
        PairScratch {
            states: StateArena::new(PAIR_WORDS),
            parents: Vec::new(),
        }
    }
}

/// Exhaustively explore the product of the two conflict-mask systems
/// for candidates `x` and `y` (possibly equal), checking contention
/// bisimulation at every reachable state (up to [`ISSUE_CAP`] placements
/// per path — complete; see [`PairState`]).
///
/// Returns the number of reachable product states, or the first
/// mismatch as a counterexample, or a budget error if the state count
/// exceeds `max_states` (which indicates a pathological description,
/// not a proof failure — the caller reports it as such).
pub(crate) fn certify_pair_linear(
    a: &ConflictVectors,
    b: &ConflictVectors,
    x: usize,
    y: usize,
    max_states: u64,
    scratch: &mut PairScratch,
) -> Result<u64, CertifyFailure> {
    let PairScratch { states, parents } = scratch;
    states.clear();
    parents.clear();
    states.intern(&pack(([0, 0, 0, 0], 0)));
    parents.push((0, Step::Root));

    // Ids are handed out in discovery order and only fresh states are
    // expanded, so visiting ids in order is breadth-first.
    let mut id = 0u32;
    while (id as usize) < states.len() {
        let (s, issued) = unpack(states.get(id));
        // Contention bisimulation: both machines must admit exactly
        // the same candidates in this state.
        for (slot, op) in [(0usize, x), (1usize, y)] {
            if slot == 1 && y == x {
                break;
            }
            let left = s[slot] & 1 == 0;
            let right = s[2 + slot] & 1 == 0;
            if left != right {
                return Err(CertifyFailure::Mismatch(Box::new(build_cex(
                    parents, id, x, y, op, left, right,
                ))));
            }
        }
        // Expand: one cycle of time, then each both-sides-legal issue.
        let mut push = |next: PairState, step: Step| {
            if states.intern(&pack(next)).1 {
                parents.push((id, step));
            }
        };
        // Once every mask is empty, further advances revisit the
        // start of an already-explored suffix — don't re-enqueue.
        if s != [0, 0, 0, 0] {
            push(
                ([s[0] >> 1, s[1] >> 1, s[2] >> 1, s[3] >> 1], issued),
                Step::Advance,
            );
        }
        for (slot, op) in [(0usize, x), (1usize, y)] {
            if slot == 1 && y == x {
                break;
            }
            if issued >= ISSUE_CAP || s[slot] & 1 != 0 {
                continue; // bisimulation above guarantees both agree
            }
            let next = [
                s[0] | a.get(op, x),
                s[1] | a.get(op, y),
                s[2] | b.get(op, x),
                s[3] | b.get(op, y),
            ];
            push((next, issued + 1), Step::Issue(slot as u8));
        }
        if states.len() as u64 > max_states {
            return Err(CertifyFailure::Error(CertifyError::StateBudget {
                pair: (x, y),
                budget: max_states,
            }));
        }
        id += 1;
    }
    Ok(states.len() as u64)
}

/// Reconstruct the issue/advance path from the root to `id` and convert
/// it into placements at absolute cycles plus the divergent probe.
fn build_cex(
    parents: &[(u32, Step)],
    id: u32,
    x: usize,
    y: usize,
    probe_op: usize,
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
            Step::Issue(slot) => {
                let op = if slot == 0 { x } else { y };
                places.push((OpId(op as u32), cycle));
            }
        }
    }
    Counterexample {
        kind: CexKind::Linear,
        places,
        probe: (OpId(probe_op as u32), cycle),
        left_admits: left,
        right_admits: right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models;

    #[test]
    fn identical_machines_certify_with_small_state_counts() {
        let m = models::example_machine();
        let cv = ConflictVectors::compute(&m).expect("span fits");
        let n = cv.num_ops();
        let mut scratch = PairScratch::new();
        for x in 0..n {
            for y in x..n {
                let states = certify_pair_linear(&cv, &cv, x, y, 1 << 20, &mut scratch)
                    .expect("machine equals itself");
                assert!(states >= 2, "at least the empty and one successor");
                assert!(states < 4096, "pair ({x},{y}) blew up: {states}");
            }
        }
    }
}
