//! Unrestricted (arbitrary-order) scheduling over a forward/reverse
//! automaton pair — Bala & Rubin's scheme, which the paper's §2/§6
//! compare against.
//!
//! A forward automaton only supports nondecreasing-cycle placement. To
//! insert an operation into the *middle* of a partial schedule, Bala &
//! Rubin keep a **pair** of automata (forward and reverse) and cache one
//! state of each **per schedule cycle**; a cycle is contention-free for
//! an operation iff both automata accept it there. Each insertion must
//! then *propagate* new states through the adjacent cycles — the memory
//! and update overhead the reservation-table approach avoids.
//!
//! [`PairScheduler`] implements the scheme exactly (its answers are
//! property-tested against direct reservation-table simulation) and
//! meters the overhead: per-query automaton lookups and per-insert
//! cached-state writes.

use crate::automaton::{Automaton, Direction, StateId};
use rmd_machine::{MachineDescription, OpId};

/// Overhead counters for the pair scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PairStats {
    /// Automaton transition-table lookups.
    pub lookups: u64,
    /// Cached per-cycle states (re)written by insertions.
    pub state_writes: u64,
    /// Checks issued.
    pub checks: u64,
    /// Insertions performed.
    pub inserts: u64,
}

/// An unrestricted scheduler over a forward/reverse automaton pair.
///
/// # Example
///
/// ```
/// use rmd_automata::{unrestricted::PairScheduler, Automaton, Direction};
/// use rmd_machine::models::example_machine;
///
/// let m = example_machine();
/// let fwd = Automaton::build(&m, Direction::Forward, 1 << 20).unwrap();
/// let rev = Automaton::build(&m, Direction::Reverse, 1 << 20).unwrap();
/// let b = m.op_by_name("B").unwrap();
/// let a = m.op_by_name("A").unwrap();
///
/// let mut s = PairScheduler::new(&m, &fwd, &rev, 32);
/// // Out-of-order placement: cycle 8 first, then insert at 0.
/// assert!(s.check(b, 8));
/// s.insert(b, 8);
/// assert!(s.check(b, 0));
/// s.insert(b, 0);
/// // -1 ∈ F[A][B]: A one cycle *before* a B conflicts — only the
/// // reverse automaton can see the B at cycle 8 from cycle 7.
/// assert!(!s.check(a, 7));
/// assert!(s.check(a, 9));
/// // 2 ∈ F[B][B]: another B two cycles after the B at 0 conflicts.
/// assert!(!s.check(b, 2));
/// assert!(s.check(b, 4));
/// ```
#[derive(Clone, Debug)]
pub struct PairScheduler<'a> {
    machine: &'a MachineDescription,
    fwd: &'a Automaton,
    rev: &'a Automaton,
    horizon: u32,
    /// Operations issued per forward cycle.
    ops_at: Vec<Vec<OpId>>,
    /// `fwd_states[c]`: forward state at the start of cycle `c`.
    fwd_states: Vec<StateId>,
    /// Operations per *reversed* cycle.
    rev_ops_at: Vec<Vec<OpId>>,
    /// `rev_states[c']`: reverse state at the start of reversed cycle.
    rev_states: Vec<StateId>,
    stats: PairStats,
}

impl<'a> PairScheduler<'a> {
    /// Creates an empty schedule over cycles `0..horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the automata were not built as a Forward/Reverse pair
    /// for machines with this operation count.
    pub fn new(
        machine: &'a MachineDescription,
        fwd: &'a Automaton,
        rev: &'a Automaton,
        horizon: u32,
    ) -> Self {
        assert_eq!(fwd.direction(), Direction::Forward);
        assert_eq!(rev.direction(), Direction::Reverse);
        assert_eq!(fwd.num_ops(), machine.num_operations());
        assert_eq!(rev.num_ops(), machine.num_operations());
        let h = horizon as usize;
        PairScheduler {
            machine,
            fwd,
            rev,
            horizon,
            ops_at: vec![Vec::new(); h],
            fwd_states: vec![fwd.start(); h + 1],
            rev_ops_at: vec![Vec::new(); h],
            rev_states: vec![rev.start(); h + 1],
            stats: PairStats::default(),
        }
    }

    /// The overhead counters.
    pub fn stats(&self) -> PairStats {
        self.stats
    }

    /// Bytes of cached automaton state this schedule holds (the §6
    /// memory overhead: two states per schedule cycle).
    pub fn cached_state_bytes(&self) -> usize {
        (self.fwd_states.len() + self.rev_states.len()) * core::mem::size_of::<StateId>()
    }

    /// The reversed issue cycle of `op` placed at forward cycle `t`.
    fn rev_cycle(&self, op: OpId, t: u32) -> u32 {
        let len = self.machine.operation(op).table().length().max(1);
        self.horizon - t - len
    }

    /// Whether `op` fits within the horizon at `t`.
    fn in_horizon(&self, op: OpId, t: u32) -> bool {
        let len = self.machine.operation(op).table().length().max(1);
        t.checked_add(len).is_some_and(|end| end <= self.horizon)
    }

    /// Can `op` issue at cycle `t` without contention?
    ///
    /// The fast path is Bala & Rubin's: one transition from the cached
    /// forward state at `t` (conflicts with operations issued at or
    /// before `t`) and one from the cached reverse state at the
    /// operation's reversed cycle (conflicts with operations *ending* at
    /// or after it ends). Those two lookups miss exactly one case: an
    /// already-scheduled operation whose span nests *strictly inside*
    /// the new operation's span (issued later, finished earlier) — it is
    /// behind both cached states. A forward replay across the new
    /// operation's span (the same state propagation an insertion
    /// performs) closes that hole; its cost is metered, which is
    /// precisely the update overhead the PLDI paper's §2 attributes to
    /// the automata approach.
    pub fn check(&mut self, op: OpId, t: u32) -> bool {
        self.stats.checks += 1;
        if !self.in_horizon(op, t) {
            return false;
        }
        // Forward fast path: conflicts with ops at cycles <= t.
        let mut s = self.fwd_states[t as usize];
        for &prev in &self.ops_at[t as usize] {
            self.stats.lookups += 1;
            s = self.fwd.issue(s, prev).expect("cached schedule is legal");
        }
        self.stats.lookups += 1;
        let Some(mut s) = self.fwd.issue(s, op) else {
            return false;
        };
        // Reverse fast path: conflicts with ops ending at or after this
        // op's end.
        let rc = self.rev_cycle(op, t);
        let mut rs = self.rev_states[rc as usize];
        for &prev in &self.rev_ops_at[rc as usize] {
            self.stats.lookups += 1;
            rs = self.rev.issue(rs, prev).expect("cached schedule is legal");
        }
        self.stats.lookups += 1;
        if self.rev.issue(rs, op).is_none() {
            return false;
        }
        // Span replay: catch nested ops invisible to both fast paths.
        let len = self.machine.operation(op).table().length().max(1);
        for c in (t + 1)..(t + len).min(self.horizon) {
            s = self.fwd.advance(s);
            for &prev in &self.ops_at[c as usize] {
                self.stats.lookups += 1;
                match self.fwd.issue(s, prev) {
                    Some(next) => s = next,
                    None => return false,
                }
            }
        }
        true
    }

    /// Inserts `op` at cycle `t` (must be contention-free), propagating
    /// the cached states of both automata.
    ///
    /// # Panics
    ///
    /// Panics if the placement conflicts — call [`check`](Self::check)
    /// first, as a scheduler would.
    pub fn insert(&mut self, op: OpId, t: u32) {
        assert!(self.in_horizon(op, t), "placement beyond horizon");
        self.stats.inserts += 1;
        let rc = self.rev_cycle(op, t);
        self.ops_at[t as usize].push(op);
        self.rev_ops_at[rc as usize].push(op);
        self.propagate_forward(t);
        self.propagate_reverse(rc);
    }

    fn propagate_forward(&mut self, from: u32) {
        for c in from as usize..self.ops_at.len() {
            let mut s = self.fwd_states[c];
            for &o in &self.ops_at[c] {
                self.stats.lookups += 1;
                s = self
                    .fwd
                    .issue(s, o)
                    .expect("insert called on a conflicting placement");
            }
            let next = self.fwd.advance(s);
            self.stats.state_writes += 1;
            if self.fwd_states[c + 1] == next {
                return; // states converged; later cycles unaffected
            }
            self.fwd_states[c + 1] = next;
        }
    }

    fn propagate_reverse(&mut self, from: u32) {
        for c in from as usize..self.rev_ops_at.len() {
            let mut s = self.rev_states[c];
            for &o in &self.rev_ops_at[c] {
                self.stats.lookups += 1;
                s = self
                    .rev
                    .issue(s, o)
                    .expect("insert called on a conflicting placement");
            }
            let next = self.rev.advance(s);
            self.stats.state_writes += 1;
            if self.rev_states[c + 1] == next {
                return;
            }
            self.rev_states[c + 1] = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmd_machine::models::example_machine;

    fn pair(m: &MachineDescription) -> (Automaton, Automaton) {
        (
            Automaton::build(m, Direction::Forward, 1 << 20).unwrap(),
            Automaton::build(m, Direction::Reverse, 1 << 20).unwrap(),
        )
    }

    #[test]
    fn out_of_order_insertion_sees_later_conflicts() {
        let m = example_machine();
        let (f, r) = pair(&m);
        let b = m.op_by_name("B").unwrap();
        let mut s = PairScheduler::new(&m, &f, &r, 40);
        s.insert(b, 10);
        // 1,2,3 ∈ F[B][B]: cycles 7..=9 conflict *forward in time* —
        // only the reverse automaton can see that.
        assert!(!s.check(b, 9));
        assert!(!s.check(b, 8));
        assert!(!s.check(b, 7));
        assert!(s.check(b, 6));
        // ... and 11..=13 conflict via the forward automaton.
        assert!(!s.check(b, 11));
        assert!(s.check(b, 14));
    }

    #[test]
    fn matches_reservation_tables_on_a_script() {
        use rmd_query::{ContentionQuery, DiscreteModule, OpInstance};
        let m = example_machine();
        let (f, r) = pair(&m);
        let mut pairsched = PairScheduler::new(&m, &f, &r, 64);
        let mut tables = DiscreteModule::new(&m);
        let a = m.op_by_name("A").unwrap();
        let b = m.op_by_name("B").unwrap();
        // Arbitrary-order script with interleaved checks.
        let script = [
            (b, 20u32),
            (a, 3),
            (b, 0),
            (a, 21),
            (b, 8),
            (a, 9),
            (b, 30),
            (a, 0),
        ];
        let mut inst = 0u32;
        for &(op, t) in &script {
            let x = pairsched.check(op, t);
            let y = tables.check(op, t);
            assert_eq!(x, y, "{op:?} @ {t}");
            if x {
                pairsched.insert(op, t);
                tables.assign(OpInstance(inst), op, t);
                inst += 1;
            }
        }
        // Exhaustive agreement after the script.
        for t in 0..40 {
            for op in [a, b] {
                assert_eq!(pairsched.check(op, t), tables.check(op, t), "{op:?} @ {t}");
            }
        }
    }

    #[test]
    fn insertion_overhead_is_metered() {
        let m = example_machine();
        let (f, r) = pair(&m);
        let b = m.op_by_name("B").unwrap();
        let mut s = PairScheduler::new(&m, &f, &r, 64);
        s.insert(b, 0);
        let st = s.stats();
        assert!(st.state_writes > 0, "insertions must touch cached states");
        assert_eq!(st.inserts, 1);
        assert!(s.cached_state_bytes() >= 2 * 65 * 4);
    }

    #[test]
    fn nested_span_conflicts_are_caught() {
        // A short op strictly inside a long op's span is invisible to
        // both cached fast paths (issued later, finished earlier); the
        // span replay must reject it. div.s nests inside div.d on the
        // MIPS divider.
        use rmd_query::{ContentionQuery, DiscreteModule};
        let m = rmd_machine::models::mips_r3000();
        let (f, r) = pair(&m);
        let dd = m.op_by_name("div.d").unwrap();
        let ds = m.op_by_name("div.s").unwrap();
        let mut s = PairScheduler::new(&m, &f, &r, 64);
        let mut tables = DiscreteModule::new(&m);
        // Place the SHORT op first, then probe the LONG op around it.
        s.insert(ds, 10);
        tables.assign(rmd_query::OpInstance(0), ds, 10);
        for t in 0..30u32 {
            assert_eq!(s.check(dd, t), tables.check(dd, t), "div.d @ {t}");
        }
        // In particular, issuing div.d a few cycles before the nested
        // div.s must conflict on the shared divider.
        assert!(!s.check(dd, 7));
    }

    #[test]
    fn horizon_is_enforced() {
        let m = example_machine();
        let (f, r) = pair(&m);
        let b = m.op_by_name("B").unwrap();
        let mut s = PairScheduler::new(&m, &f, &r, 10);
        // B is 8 cycles long: latest legal issue is cycle 2.
        assert!(s.check(b, 2));
        assert!(!s.check(b, 3));
        // A placement whose end is past u32::MAX is outside too.
        assert!(!s.check(b, u32::MAX));
    }
}
