//! [`MeteredQuery`] — per-function latency metering around any
//! contention query backend.
//!
//! [`WorkCounters`] measure *work units*, the paper's machine-neutral
//! cost model. `MeteredQuery` adds the wall-clock side: one log2
//! histogram of call latencies per protocol function, recorded only
//! while [`rmd_obs`] tracing is enabled so the wrapper is free in
//! normal runs (one relaxed atomic load per call, no clock reads, no
//! allocation). The work counters stay byte-identical to the inner
//! module's — the wrapper delegates `counters()` untouched.

use crate::counters::{QueryFn, WorkCounters};
use crate::registry::OpInstance;
use crate::traits::ContentionQuery;
use rmd_machine::OpId;
use rmd_obs::{Histogram, MetricRegistry};
use std::time::Instant;

/// Wraps a [`ContentionQuery`] with per-function latency histograms.
///
/// Timing is gated on [`rmd_obs::is_enabled`]: when tracing is off,
/// every call is a plain delegation. The histograms live directly in
/// the struct (no map lookups on the hot path) and merge associatively,
/// so per-worker wrappers can be combined like the counters they extend.
///
/// # Example
///
/// ```
/// use rmd_machine::models::example_machine;
/// use rmd_query::{ContentionQuery, DiscreteModule, MeteredQuery, OpInstance, QueryFn};
///
/// let m = example_machine();
/// let b = m.op_by_name("B").unwrap();
/// let mut q = MeteredQuery::new(DiscreteModule::new(&m));
/// rmd_obs::set_enabled(true);
/// q.assign(OpInstance(0), b, 0);
/// assert!(!q.check(b, 1));
/// rmd_obs::set_enabled(false);
/// assert_eq!(q.latency(QueryFn::Check).count(), 1);
/// assert_eq!(q.counters().check.calls, 1); // work units: untouched
/// ```
#[derive(Clone, Debug)]
pub struct MeteredQuery<Q> {
    inner: Q,
    check_ns: Histogram,
    assign_ns: Histogram,
    assign_free_ns: Histogram,
    free_ns: Histogram,
    check_window_ns: Histogram,
}

impl<Q> MeteredQuery<Q> {
    /// Wraps `inner` with empty latency histograms.
    pub fn new(inner: Q) -> Self {
        MeteredQuery {
            inner,
            check_ns: Histogram::new(),
            assign_ns: Histogram::new(),
            assign_free_ns: Histogram::new(),
            free_ns: Histogram::new(),
            check_window_ns: Histogram::new(),
        }
    }

    /// The wrapped module.
    pub fn inner(&self) -> &Q {
        &self.inner
    }

    /// Unwraps the module, discarding the histograms.
    pub fn into_inner(self) -> Q {
        self.inner
    }

    /// The latency histogram (nanoseconds per call) of one function.
    /// For [`QueryFn::CheckWindow`] one sample covers a whole window
    /// query, however many cycles it probed.
    pub fn latency(&self, f: QueryFn) -> &Histogram {
        match f {
            QueryFn::Check => &self.check_ns,
            QueryFn::Assign => &self.assign_ns,
            QueryFn::AssignFree => &self.assign_free_ns,
            QueryFn::Free => &self.free_ns,
            QueryFn::CheckWindow => &self.check_window_ns,
        }
    }

    #[inline]
    fn hist_mut(&mut self, f: QueryFn) -> &mut Histogram {
        match f {
            QueryFn::Check => &mut self.check_ns,
            QueryFn::Assign => &mut self.assign_ns,
            QueryFn::AssignFree => &mut self.assign_free_ns,
            QueryFn::Free => &mut self.free_ns,
            QueryFn::CheckWindow => &mut self.check_window_ns,
        }
    }

    #[inline]
    fn timed<R>(&mut self, f: QueryFn, body: impl FnOnce(&mut Q) -> R) -> R {
        if rmd_obs::is_enabled() {
            let t0 = Instant::now();
            let r = body(&mut self.inner);
            let ns = t0.elapsed().as_nanos() as u64;
            self.hist_mut(f).record(ns);
            r
        } else {
            body(&mut self.inner)
        }
    }
}

impl<Q: ContentionQuery> MeteredQuery<Q> {
    /// Exports everything this wrapper knows into a fresh registry:
    /// latency histograms `{prefix}.{fn}.latency_ns` plus the inner
    /// module's work counters under `{prefix}` (see
    /// [`WorkCounters::export_to`]).
    pub fn export_registry(&self, prefix: &str) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        for f in QueryFn::ALL {
            reg.merge_histogram(
                &format!("{prefix}.{}.latency_ns", f.name()),
                self.latency(f),
            );
        }
        self.inner.counters().export_to(&mut reg, prefix);
        reg
    }
}

impl<Q: ContentionQuery> ContentionQuery for MeteredQuery<Q> {
    fn check(&mut self, op: OpId, cycle: u32) -> bool {
        self.timed(QueryFn::Check, |q| q.check(op, cycle))
    }

    fn assign(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.timed(QueryFn::Assign, |q| q.assign(inst, op, cycle));
    }

    fn assign_free_into(
        &mut self,
        inst: OpInstance,
        op: OpId,
        cycle: u32,
        evicted: &mut Vec<OpInstance>,
    ) {
        self.timed(QueryFn::AssignFree, |q| {
            q.assign_free_into(inst, op, cycle, evicted)
        });
    }

    fn free(&mut self, inst: OpInstance, op: OpId, cycle: u32) {
        self.timed(QueryFn::Free, |q| q.free(inst, op, cycle));
    }

    fn check_window(&mut self, op: OpId, start: u32, len: u32) -> u64 {
        self.timed(QueryFn::CheckWindow, |q| q.check_window(op, start, len))
    }

    fn first_free_in(&mut self, op: OpId, start: u32, len: u32) -> Option<u32> {
        // One sample per slot search, even when the inner module chunks
        // a long window into several `check_window`-metered scans.
        self.timed(QueryFn::CheckWindow, |q| q.first_free_in(op, start, len))
    }

    fn counters(&self) -> &WorkCounters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut WorkCounters {
        self.inner.counters_mut()
    }

    fn num_scheduled(&self) -> usize {
        self.inner.num_scheduled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete::DiscreteModule;
    use rmd_machine::models::example_machine;

    /// Serializes tests that toggle the global tracing flag.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = LOCK.lock().unwrap();
        rmd_obs::set_enabled(true);
        let r = f();
        rmd_obs::set_enabled(false);
        r
    }

    fn metered() -> (
        rmd_machine::MachineDescription,
        MeteredQuery<DiscreteModule>,
        OpId,
    ) {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let q = MeteredQuery::new(DiscreteModule::new(&m));
        (m, q, b)
    }

    #[test]
    fn latencies_record_only_while_enabled() {
        let (_, mut q, b) = metered();
        assert!(q.check(b, 0)); // disabled: no sample
        assert_eq!(q.latency(QueryFn::Check).count(), 0);
        with_tracing(|| {
            q.assign(OpInstance(0), b, 0);
            assert!(!q.check(b, 1));
            q.free(OpInstance(0), b, 0);
            let _ = q.assign_free(OpInstance(1), b, 0);
        });
        assert_eq!(q.latency(QueryFn::Check).count(), 1);
        assert_eq!(q.latency(QueryFn::Assign).count(), 1);
        assert_eq!(q.latency(QueryFn::Free).count(), 1);
        assert_eq!(q.latency(QueryFn::AssignFree).count(), 1);
        // Work counters saw every call, including the untimed one.
        assert_eq!(q.counters().check.calls, 2);
    }

    #[test]
    fn behaves_exactly_like_the_inner_module() {
        let m = example_machine();
        let b = m.op_by_name("B").unwrap();
        let mut plain = DiscreteModule::new(&m);
        let mut wrapped = MeteredQuery::new(DiscreteModule::new(&m));
        for (i, cycle) in [0u32, 4, 2].iter().enumerate() {
            let e1 = plain.assign_free(OpInstance(i as u32), b, *cycle);
            let e2 = wrapped.assign_free(OpInstance(i as u32), b, *cycle);
            assert_eq!(e1, e2);
        }
        for t in 0..12 {
            assert_eq!(plain.check(b, t), wrapped.check(b, t), "@{t}");
        }
        assert_eq!(plain.counters(), wrapped.counters());
        assert_eq!(plain.num_scheduled(), wrapped.num_scheduled());
    }

    #[test]
    fn export_registry_carries_latencies_and_counters() {
        let (_, mut q, b) = metered();
        with_tracing(|| {
            q.assign(OpInstance(0), b, 0);
            q.check(b, 1);
        });
        let reg = q.export_registry("query.discrete");
        assert_eq!(
            reg.histogram("query.discrete.check.latency_ns")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(reg.counter("query.discrete.assign.calls"), 1);
        assert_eq!(reg.counter("query.discrete.check.calls"), 1);
    }

    #[test]
    fn window_queries_record_one_latency_sample_each() {
        let (_, mut q, b) = metered();
        with_tracing(|| {
            q.assign(OpInstance(0), b, 0);
            let _ = q.check_window(b, 0, 8);
            let _ = q.first_free_in(b, 1, 10);
        });
        assert_eq!(q.latency(QueryFn::CheckWindow).count(), 2);
        // The inner module's work counters flow through untouched.
        assert_eq!(q.counters().check_window.calls, 2);
        let reg = q.export_registry("query.discrete");
        assert_eq!(
            reg.histogram("query.discrete.check_window.latency_ns")
                .unwrap()
                .count(),
            2
        );
        assert_eq!(reg.counter("query.discrete.check_window.calls"), 2);
    }
}
