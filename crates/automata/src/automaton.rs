//! Deterministic hazard-detection automata.

use crate::state::{self, StateArena, StateShape};
use core::fmt;
use rmd_machine::{MachineDescription, OpId};

/// Index of an automaton state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether the automaton reads the schedule forward or backward
/// (Bala & Rubin use a pair of them for unrestricted scheduling).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// States track commitments of already-issued operations into the
    /// future; scheduling proceeds in nondecreasing cycle order.
    Forward,
    /// Built over time-reversed reservation tables; recognizes schedules
    /// read from the last cycle backward.
    Reverse,
}

/// Construction failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// The state count exceeded the caller's limit; the machine is too
    /// complex for an explicit automaton (the paper's §2 size concern).
    TooManyStates {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooManyStates { limit } => {
                write!(f, "automaton exceeds {limit} states")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A deterministic automaton recognizing contention-free schedules
/// (Proebsting & Fraser style).
///
/// States are resource-commitment matrices. `issue` transitions exist for
/// every operation placeable in the current cycle; `advance` moves to the
/// next cycle. The automaton is exact: a cycle-ordered sequence of issues
/// and advances is accepted iff the same placements are contention-free
/// under direct reservation-table simulation (tested property).
#[derive(Clone, Debug)]
pub struct Automaton {
    direction: Direction,
    num_ops: usize,
    /// `issue_t[state * num_ops + op]`: next state or `u32::MAX`.
    issue_t: Vec<u32>,
    /// `advance_t[state]`: next state after a cycle advance.
    advance_t: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl Automaton {
    /// Builds the automaton for `machine`, exploring states by BFS.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TooManyStates`] when more than `max_states`
    /// states are discovered.
    pub fn build(
        machine: &MachineDescription,
        direction: Direction,
        max_states: usize,
    ) -> Result<Self, BuildError> {
        Self::build_restricted(machine, direction, max_states, None)
    }

    /// Like [`build`](Self::build) but only tracking the resources for
    /// which `keep[r]` is true — the building block of
    /// [`FactoredAutomata`](crate::FactoredAutomata).
    pub fn build_restricted(
        machine: &MachineDescription,
        direction: Direction,
        max_states: usize,
        keep: Option<&[bool]>,
    ) -> Result<Self, BuildError> {
        let tables: Vec<_> = match direction {
            Direction::Forward => machine
                .operations()
                .iter()
                .map(|o| o.table().clone())
                .collect(),
            Direction::Reverse => machine
                .operations()
                .iter()
                .map(|o| o.table().reversed())
                .collect(),
        };
        let (shape, masks) = StateShape::with_masks(machine.num_resources(), &tables, keep);
        let num_ops = tables.len();

        let mut states = StateArena::new(shape.blocks);
        let mut issue_t: Vec<u32> = Vec::new();
        let mut advance_t: Vec<u32> = Vec::new();
        let mut state = vec![0; shape.blocks];
        let mut succ = vec![0; shape.blocks];
        states.intern(&state);

        let mut next = 0u32;
        while (next as usize) < states.len() {
            if states.len() > max_states {
                return Err(BuildError::TooManyStates { limit: max_states });
            }
            state.copy_from_slice(states.get(next));
            // Issue transitions.
            for op in 0..num_ops {
                let mask = &masks[op * shape.blocks..][..shape.blocks];
                if state::conflicts(&state, mask) {
                    issue_t.push(NONE);
                } else {
                    state::union(&state, mask, &mut succ);
                    issue_t.push(states.intern(&succ).0);
                }
            }
            // Advance transition.
            shape.advance(&state, &mut succ);
            advance_t.push(states.intern(&succ).0);
            next += 1;
        }

        Ok(Automaton {
            direction,
            num_ops,
            issue_t,
            advance_t,
        })
    }

    /// Assembles an automaton from raw transition tables (used by the
    /// minimizer). `issue_t` is `states × num_ops` with `u32::MAX` for
    /// hazards; `advance_t` has one entry per state.
    pub(crate) fn from_parts(
        direction: Direction,
        num_ops: usize,
        issue_t: Vec<u32>,
        advance_t: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(issue_t.len(), advance_t.len() * num_ops);
        Automaton {
            direction,
            num_ops,
            issue_t,
            advance_t,
        }
    }

    /// The build direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of operations in the alphabet.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    /// The initial (empty-pipeline) state.
    pub fn start(&self) -> StateId {
        StateId(0)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.advance_t.len()
    }

    /// Attempts to issue `op` in the current cycle; `None` on a
    /// structural hazard.
    #[inline]
    pub fn issue(&self, s: StateId, op: OpId) -> Option<StateId> {
        let t = self.issue_t[s.index() * self.num_ops + op.index()];
        (t != NONE).then_some(StateId(t))
    }

    /// Whether `op` can issue in the current cycle — the automaton's
    /// one-table-lookup `check`.
    #[inline]
    pub fn can_issue(&self, s: StateId, op: OpId) -> bool {
        self.issue_t[s.index() * self.num_ops + op.index()] != NONE
    }

    /// Moves to the next cycle.
    #[inline]
    pub fn advance(&self, s: StateId) -> StateId {
        StateId(self.advance_t[s.index()])
    }

    /// Transition-table memory in bytes (4-byte entries, issue +
    /// advance), the automaton side of the paper's §6 memory comparison.
    pub fn table_bytes(&self) -> usize {
        (self.issue_t.len() + self.advance_t.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::{example_machine, mips_r3000};

    #[test]
    fn example_machine_automaton_enforces_forbidden_latencies() {
        let m = example_machine();
        let fsa = Automaton::build(&m, Direction::Forward, 1 << 16).unwrap();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        // Schedule B at cycle 0.
        let s = fsa.issue(fsa.start(), b).unwrap();
        // A at cycle 0 is fine (0 ∉ F[A][B]).
        assert!(fsa.can_issue(s, a));
        // B again at 0 conflicts.
        assert!(!fsa.can_issue(s, b));
        // Advance to cycle 1: B conflicts (1 ∈ F[B][B]); at cycle 4 free.
        let s1 = fsa.advance(s);
        assert!(!fsa.can_issue(s1, b));
        let s4 = fsa.advance(fsa.advance(fsa.advance(s1)));
        assert!(fsa.can_issue(s4, b));
    }

    #[test]
    fn state_count_is_finite_and_positive() {
        let m = example_machine();
        let fsa = Automaton::build(&m, Direction::Forward, 1 << 16).unwrap();
        assert!(fsa.num_states() > 1);
        assert!(fsa.table_bytes() > 0);
    }

    #[test]
    fn reverse_automaton_mirrors_forward() {
        let m = example_machine();
        let fwd = Automaton::build(&m, Direction::Forward, 1 << 16).unwrap();
        let rev = Automaton::build(&m, Direction::Reverse, 1 << 16).unwrap();
        let b = m.op_by_name("B").unwrap();
        // B then B one cycle later is illegal in both readings
        // (F[B][B] is symmetric here).
        let s = fwd.issue(fwd.start(), b).unwrap();
        assert!(!fwd.can_issue(fwd.advance(s), b));
        let s = rev.issue(rev.start(), b).unwrap();
        assert!(!rev.can_issue(rev.advance(s), b));
    }

    #[test]
    fn build_limit_is_honored() {
        let m = mips_r3000();
        let e = Automaton::build(&m, Direction::Forward, 10).unwrap_err();
        assert_eq!(e, BuildError::TooManyStates { limit: 10 });
        assert!(e.to_string().contains("10 states"));
    }

    #[test]
    fn single_issue_machine_forbids_dual_issue() {
        let m = mips_r3000();
        let fsa = Automaton::build(&m, Direction::Forward, 1 << 22).unwrap();
        let alu = m.op_by_name("alu").unwrap();
        let load = m.op_by_name("load").unwrap();
        let s = fsa.issue(fsa.start(), alu).unwrap();
        // Same-cycle second issue always conflicts on fetch/issue stages.
        assert!(!fsa.can_issue(s, load));
        // Next cycle is fine.
        assert!(fsa.can_issue(fsa.advance(s), load));
    }
}
