//! Work-unit instrumentation (paper §8: "one unit of work handles a
//! single resource usage or a single non-empty word").
//!
//! These types used to live in `rmd-query`; they moved here so that
//! every backend — discrete, bitvector, modulo, automata —
//! shares one counting path ([`WorkCounters::record`]) and one bridge
//! into the metric registry ([`WorkCounters::export_to`]), while
//! `rmd-query` re-exports them unchanged for existing callers.

use crate::metrics::MetricRegistry;
use core::fmt;

/// The four query-protocol functions (paper §7), plus the batched
/// window query layered on top of `check`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryFn {
    /// `check` — contention test only.
    Check,
    /// `assign` — unconditional reservation.
    Assign,
    /// `assign&free` — reserve, unscheduling conflicting operations.
    AssignFree,
    /// `free` — release a scheduled operation's resources.
    Free,
    /// `check_window` — batched availability query over up to 64
    /// consecutive cycles. Units count distinct backend word loads;
    /// the per-cycle equivalent work is charged to `check` so Table-6
    /// columns stay comparable with the scalar path.
    CheckWindow,
}

impl QueryFn {
    /// All metered functions: the four protocol functions in protocol
    /// order, then the derived window query.
    pub const ALL: [QueryFn; 5] = [
        QueryFn::Check,
        QueryFn::Assign,
        QueryFn::AssignFree,
        QueryFn::Free,
        QueryFn::CheckWindow,
    ];

    /// Stable snake_case name used for metric keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            QueryFn::Check => "check",
            QueryFn::Assign => "assign",
            QueryFn::AssignFree => "assign_free",
            QueryFn::Free => "free",
            QueryFn::CheckWindow => "check_window",
        }
    }
}

/// Calls and work units of one query-module function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FnCounter {
    /// Number of calls.
    pub calls: u64,
    /// Total work units across all calls.
    pub units: u64,
}

impl FnCounter {
    /// Average work units per call (0.0 when never called).
    pub fn avg(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.units as f64 / self.calls as f64
        }
    }
}

/// Work-unit counters for the four basic functions, plus the
/// optimistic→update transition overhead of `assign&free`.
///
/// Table 6 of the paper is the per-function average of these counters
/// over a full scheduling run, with the transition overhead folded into
/// `assign&free` ("the overhead incurred in the transition ... is also
/// taken into account").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkCounters {
    /// `check` — contention test only.
    pub check: FnCounter,
    /// `assign` — unconditional reservation.
    pub assign: FnCounter,
    /// `assign&free` — reserve, unscheduling conflicting operations.
    /// Units include transition overhead.
    pub assign_free: FnCounter,
    /// `free` — release a scheduled operation's resources.
    pub free: FnCounter,
    /// `check_window` — batched window queries. Calls count windows
    /// probed; units count distinct backend word loads. The equivalent
    /// per-cycle work is *also* charged to `check` (via
    /// [`charge_equivalent_checks`](Self::charge_equivalent_checks)),
    /// so this counter is a parallel view, not a fifth column of the
    /// paper's totals: [`total_calls`](Self::total_calls) and
    /// [`total_units`](Self::total_units) deliberately exclude it.
    pub check_window: FnCounter,
    /// Number of optimistic→update mode transitions (bitvector only).
    pub transitions: u64,
}

impl WorkCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets everything to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The counter of one function.
    pub fn of(&self, f: QueryFn) -> &FnCounter {
        match f {
            QueryFn::Check => &self.check,
            QueryFn::Assign => &self.assign,
            QueryFn::AssignFree => &self.assign_free,
            QueryFn::Free => &self.free,
            QueryFn::CheckWindow => &self.check_window,
        }
    }

    fn of_mut(&mut self, f: QueryFn) -> &mut FnCounter {
        match f {
            QueryFn::Check => &mut self.check,
            QueryFn::Assign => &mut self.assign,
            QueryFn::AssignFree => &mut self.assign_free,
            QueryFn::Free => &mut self.free,
            QueryFn::CheckWindow => &mut self.check_window,
        }
    }

    /// Records one completed call of `f` that performed `units` work
    /// units — the single counting path shared by every query backend.
    #[inline]
    pub fn record(&mut self, f: QueryFn, units: u64) {
        let c = self.of_mut(f);
        c.calls += 1;
        c.units += units;
    }

    /// Charges extra work units to `f` without counting a call (used
    /// for the optimistic→update transition overhead, which the paper
    /// folds into `assign&free`).
    #[inline]
    pub fn charge_units(&mut self, f: QueryFn, units: u64) {
        self.of_mut(f).units += units;
    }

    /// Counts one optimistic→update mode transition.
    #[inline]
    pub fn record_transition(&mut self) {
        self.transitions += 1;
    }

    /// Charges the `check` counter with the scalar-equivalent cost of a
    /// window query: `calls` per-cycle probes performing `units` work
    /// units in total. A backend's window override calls this with
    /// exactly what the equivalent loop of `check` calls would have
    /// recorded, keeping Table-6 work units byte-identical between the
    /// scalar and window paths.
    #[inline]
    pub fn charge_equivalent_checks(&mut self, calls: u64, units: u64) {
        self.check.calls += calls;
        self.check.units += units;
    }

    /// Total calls over the four protocol functions. Window queries are
    /// excluded: their scalar-equivalent cost is already folded into
    /// `check` by [`charge_equivalent_checks`](Self::charge_equivalent_checks).
    pub fn total_calls(&self) -> u64 {
        self.check.calls + self.assign.calls + self.assign_free.calls + self.free.calls
    }

    /// Total work units over the four protocol functions (window
    /// queries excluded; see [`total_calls`](Self::total_calls)).
    pub fn total_units(&self) -> u64 {
        self.check.units + self.assign.units + self.assign_free.units + self.free.units
    }

    /// The paper's bottom-line metric: average work units per call,
    /// weighting each function by its actual call frequency.
    pub fn weighted_avg_units(&self) -> f64 {
        if self.total_calls() == 0 {
            0.0
        } else {
            self.total_units() as f64 / self.total_calls() as f64
        }
    }

    /// Merges another counter set into this one (for aggregating over a
    /// benchmark suite).
    pub fn merge(&mut self, other: &WorkCounters) {
        self.check.calls += other.check.calls;
        self.check.units += other.check.units;
        self.assign.calls += other.assign.calls;
        self.assign.units += other.assign.units;
        self.assign_free.calls += other.assign_free.calls;
        self.assign_free.units += other.assign_free.units;
        self.free.calls += other.free.calls;
        self.free.units += other.free.units;
        self.check_window.calls += other.check_window.calls;
        self.check_window.units += other.check_window.units;
        self.transitions += other.transitions;
    }

    /// Exports the counters into `reg` under `prefix`: for each
    /// function `f`, counters `{prefix}.{f}.calls` and
    /// `{prefix}.{f}.units`, plus `{prefix}.transitions`. The view is
    /// additive: exporting twice (or exporting two counter sets) merges
    /// exactly like [`merge`](Self::merge).
    pub fn export_to(&self, reg: &mut MetricRegistry, prefix: &str) {
        for f in QueryFn::ALL {
            let c = self.of(f);
            reg.inc(&format!("{prefix}.{}.calls", f.name()), c.calls);
            reg.inc(&format!("{prefix}.{}.units", f.name()), c.units);
        }
        reg.inc(&format!("{prefix}.transitions"), self.transitions);
    }
}

impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "check {:.2}/{} assign {:.2}/{} assign&free {:.2}/{} free {:.2}/{} (weighted {:.2})",
            self.check.avg(),
            self.check.calls,
            self.assign.avg(),
            self.assign.calls,
            self.assign_free.avg(),
            self.assign_free.calls,
            self.free.avg(),
            self.free.calls,
            self.weighted_avg_units(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_weighting() {
        let mut w = WorkCounters::new();
        w.check = FnCounter { calls: 4, units: 8 };
        w.free = FnCounter { calls: 1, units: 7 };
        assert!((w.check.avg() - 2.0).abs() < 1e-12);
        assert_eq!(w.total_calls(), 5);
        assert_eq!(w.total_units(), 15);
        assert!((w.weighted_avg_units() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_average_zero() {
        let w = WorkCounters::new();
        assert_eq!(w.weighted_avg_units(), 0.0);
        assert_eq!(w.check.avg(), 0.0);
    }

    #[test]
    fn record_and_charge_are_the_field_increments() {
        let mut w = WorkCounters::new();
        w.record(QueryFn::Check, 3);
        w.record(QueryFn::Check, 0);
        w.record(QueryFn::AssignFree, 2);
        w.charge_units(QueryFn::AssignFree, 5);
        w.record_transition();
        assert_eq!(w.check, FnCounter { calls: 2, units: 3 });
        assert_eq!(w.assign_free, FnCounter { calls: 1, units: 7 });
        assert_eq!(w.transitions, 1);
        let via_accessor: u64 = QueryFn::ALL.iter().map(|&f| w.of(f).calls).sum();
        assert_eq!(via_accessor, w.total_calls());
        // Window-query calls are a parallel view: the equivalent scalar
        // work is folded into `check`, so the totals exclude them.
        w.record(QueryFn::CheckWindow, 9);
        assert_eq!(w.check_window, FnCounter { calls: 1, units: 9 });
        assert_eq!(w.total_calls(), 3);
        assert_eq!(w.total_units(), 10);
    }

    #[test]
    fn equivalent_checks_charge_the_check_counter() {
        let mut w = WorkCounters::new();
        w.charge_equivalent_checks(4, 6);
        w.record(QueryFn::CheckWindow, 2);
        assert_eq!(w.check, FnCounter { calls: 4, units: 6 });
        assert_eq!(w.check_window, FnCounter { calls: 1, units: 2 });
        // Byte-identity: the derived view produces the same Table-6
        // totals as four scalar `check` calls would.
        let mut scalar = WorkCounters::new();
        scalar.record(QueryFn::Check, 2);
        scalar.record(QueryFn::Check, 1);
        scalar.record(QueryFn::Check, 2);
        scalar.record(QueryFn::Check, 1);
        assert_eq!(w.total_calls(), scalar.total_calls());
        assert_eq!(w.total_units(), scalar.total_units());
        assert_eq!(w.check, scalar.check);
    }

    #[test]
    fn export_to_registry_is_additive() {
        let mut a = WorkCounters::new();
        a.record(QueryFn::Check, 4);
        a.record(QueryFn::Free, 1);
        a.record_transition();
        let mut b = WorkCounters::new();
        b.record(QueryFn::Check, 6);

        let mut reg = MetricRegistry::new();
        a.export_to(&mut reg, "query");
        b.export_to(&mut reg, "query");
        assert_eq!(reg.counter("query.check.calls"), 2);
        assert_eq!(reg.counter("query.check.units"), 10);
        assert_eq!(reg.counter("query.free.calls"), 1);
        assert_eq!(reg.counter("query.transitions"), 1);

        // Exporting the merged counters gives the identical registry.
        let mut merged = a;
        merged.merge(&b);
        let mut reg2 = MetricRegistry::new();
        merged.export_to(&mut reg2, "query");
        assert_eq!(reg, reg2);
    }

    /// Deterministically scrambled counters for the associativity test.
    fn sample(seed: u64) -> WorkCounters {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 1_000_003
        };
        let mut w = WorkCounters::new();
        w.check = FnCounter {
            calls: next(),
            units: next(),
        };
        w.assign = FnCounter {
            calls: next(),
            units: next(),
        };
        w.assign_free = FnCounter {
            calls: next(),
            units: next(),
        };
        w.free = FnCounter {
            calls: next(),
            units: next(),
        };
        w.check_window = FnCounter {
            calls: next(),
            units: next(),
        };
        w.transitions = next();
        w
    }

    /// Counters merge per attempt inside IMS and per loop in the suite
    /// runner; totals must not depend on the grouping. Merge is plain
    /// `u64` addition, so this pins associativity and
    /// commutativity rather than fixing drift — any future non-linear
    /// field (say, a max or an average cached as a float) would fail
    /// here.
    #[test]
    fn merge_is_associative_and_commutative() {
        let parts: Vec<WorkCounters> = (0..7).map(sample).collect();

        // Left fold: ((a + b) + c) + ...
        let mut left = WorkCounters::new();
        for p in &parts {
            left.merge(p);
        }

        // Right-nested grouping: a + (b + (c + ...)).
        let mut right = WorkCounters::new();
        for p in parts.iter().rev() {
            let mut acc = *p;
            acc.merge(&right);
            right = acc;
        }
        assert_eq!(left, right, "grouping changed merge totals");

        // Arbitrary permutation (reversed and interleaved shards).
        let order = [3usize, 0, 6, 2, 5, 1, 4];
        let mut permuted = WorkCounters::new();
        for &i in &order {
            permuted.merge(&parts[i]);
        }
        assert_eq!(left, permuted, "shard order changed merge totals");

        // Pairwise tree reduction.
        let mut level: Vec<WorkCounters> = parts.clone();
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for pair in level.chunks(2) {
                let mut acc = pair[0];
                if let Some(b) = pair.get(1) {
                    acc.merge(b);
                }
                next_level.push(acc);
            }
            level = next_level;
        }
        assert_eq!(left, level[0], "tree reduction changed merge totals");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = WorkCounters::new();
        a.check = FnCounter { calls: 1, units: 2 };
        a.transitions = 1;
        let mut b = WorkCounters::new();
        b.check = FnCounter { calls: 3, units: 4 };
        b.assign_free = FnCounter { calls: 5, units: 6 };
        a.merge(&b);
        assert_eq!(a.check, FnCounter { calls: 4, units: 6 });
        assert_eq!(a.assign_free, FnCounter { calls: 5, units: 6 });
        assert_eq!(a.transitions, 1);
    }
}
