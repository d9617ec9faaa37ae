//! Cycle-ordered scheduling over an automaton.

use crate::automaton::{Automaton, StateId};
use rmd_machine::OpId;

/// A cursor that walks an [`Automaton`] in schedule order: issue
/// operations into the current cycle, advance to the next.
///
/// This is the scheduling model automata support natively (operations in
/// nondecreasing cycle order); supporting *unrestricted* schedulers
/// requires caching one state per schedule cycle and replaying — exactly
/// the overhead the paper's §2/§6 quantify.
///
/// # Example
///
/// ```
/// use rmd_automata::{Automaton, Cursor, Direction};
/// use rmd_machine::models::example_machine;
///
/// let m = example_machine();
/// let fsa = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
/// let b = m.op_by_name("B").unwrap();
/// let mut cur = Cursor::new(&fsa);
/// assert!(cur.try_issue(b));
/// cur.advance_to(4);
/// assert!(cur.try_issue(b)); // 4 ∉ F[B][B]
/// assert_eq!(cur.cycle(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    fsa: &'a Automaton,
    state: StateId,
    cycle: u32,
    issues: u64,
    lookups: u64,
}

impl<'a> Cursor<'a> {
    /// Starts at cycle 0 with an empty pipeline.
    pub fn new(fsa: &'a Automaton) -> Self {
        Cursor {
            fsa,
            state: fsa.start(),
            cycle: 0,
            issues: 0,
            lookups: 0,
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Whether `op` can issue in the current cycle (one table lookup).
    pub fn can_issue(&mut self, op: OpId) -> bool {
        self.lookups += 1;
        self.fsa.can_issue(self.state, op)
    }

    /// Issues `op` in the current cycle if legal; returns success.
    pub fn try_issue(&mut self, op: OpId) -> bool {
        self.lookups += 1;
        match self.fsa.issue(self.state, op) {
            Some(next) => {
                self.state = next;
                self.issues += 1;
                true
            }
            None => false,
        }
    }

    /// Advances one cycle.
    pub fn advance(&mut self) {
        self.state = self.fsa.advance(self.state);
        self.cycle += 1;
    }

    /// Advances to the given (current or later) cycle.
    pub fn advance_to(&mut self, cycle: u32) {
        while self.cycle < cycle {
            self.advance();
        }
    }

    /// Table lookups performed so far (the automaton's work metric:
    /// one lookup ≈ one query).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Successful issues so far.
    pub fn issues(&self) -> u64 {
        self.issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::Direction;
    use rmd_machine::models::example_machine;

    #[test]
    fn cursor_walks_cycles() {
        let m = example_machine();
        let fsa = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        let mut cur = Cursor::new(&fsa);
        assert!(cur.try_issue(b));
        assert!(cur.try_issue(a)); // same cycle, no conflict
        cur.advance();
        assert!(!cur.try_issue(b)); // 1 ∈ F[B][B]
        cur.advance_to(4);
        assert!(cur.try_issue(b));
        assert_eq!(cur.cycle(), 4);
        assert_eq!(cur.issues(), 3);
        assert_eq!(cur.lookups(), 4);
    }
}
