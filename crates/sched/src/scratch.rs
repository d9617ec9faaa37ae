//! Reusable scheduling scratch state.
//!
//! The iterative modulo scheduler's per-attempt working set — height
//! priorities, partial-schedule vectors, the ready queue, eviction
//! buffers, and (on the bitvector path) the reservation-table
//! module itself — is sized by the loop being scheduled. A suite run
//! schedules thousands of loops back to back, and a serve daemon
//! schedules for hours; reallocating that working set per loop is pure
//! overhead. [`SchedScratch`] owns all of it so scheduling loop N+1
//! reuses every buffer loop N already sized: in steady state (a loop
//! shape and II the scratch has seen before) a schedule performs **zero
//! heap allocations**, a property pinned by the counting-allocator test
//! in `tests/scratch_alloc.rs`.
//!
//! Scratch never changes results: schedules, statistics, and work
//! counters are byte-identical with or without it (the buffers are
//! cleared and re-filled exactly as a fresh allocation would be). One
//! scratch per worker thread is the intended shape — the suite runner
//! threads one through each worker's state, and a serial run uses one
//! for the whole suite so the comparison stays honest.

use rmd_machine::OpId;
use rmd_query::{ModuloBitvecModule, OpInstance};
use std::collections::BinaryHeap;

use crate::ims::ImsResult;

/// Reusable buffers for [`IterativeModuloScheduler`] attempts; see the
/// module docs. Create one per worker thread with
/// [`new`](Self::new) and pass it to
/// [`schedule_with_mii_cached_scratch`]; [`recycle`](Self::recycle)
/// returns a consumed result's
/// vectors to the pool so even the output side allocates nothing in
/// steady state.
///
/// [`IterativeModuloScheduler`]: crate::IterativeModuloScheduler
/// [`schedule_with_mii_cached_scratch`]: crate::IterativeModuloScheduler::schedule_with_mii_cached_scratch
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Height-based priority per node (Rau's HeightR).
    pub(crate) height: Vec<i64>,
    /// Partial schedule: issue time per node, `None` while unscheduled.
    pub(crate) time: Vec<Option<u32>>,
    /// Previous placement per node, for Rau's forced-placement rule.
    pub(crate) prev_time: Vec<Option<u32>>,
    /// The operation currently placed per node (alternatives may differ
    /// from the graph's base op).
    pub(crate) node_ops: Vec<OpId>,
    /// Whether each node has a live entry in `queue`.
    pub(crate) queued: Vec<bool>,
    /// Max-heap on `(height, Reverse(node id))`; cleared per attempt.
    pub(crate) queue: BinaryHeap<(i64, core::cmp::Reverse<u32>)>,
    /// Eviction victims of the latest `assign_free_into`.
    pub(crate) evicted: Vec<OpInstance>,
    /// The reservation-table module reused across bitvector
    /// attempts (words, owner table, and registry keep their capacity).
    pub(crate) module: Option<ModuloBitvecModule>,
    /// Pools of returned result vectors (see [`recycle`](Self::recycle)).
    pub(crate) pool_times: Vec<Vec<u32>>,
    pub(crate) pool_ops: Vec<Vec<OpId>>,
    pub(crate) pool_ratios: Vec<Vec<f64>>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow to fit the loops scheduled
    /// through it and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the heap-owning vectors of a consumed [`ImsResult`] to
    /// the scratch's pools, so the next schedule's outputs are built in
    /// recycled capacity instead of fresh allocations. Purely an
    /// allocation optimization — results are value-identical whether or
    /// not callers recycle.
    pub fn recycle(&mut self, r: ImsResult) {
        self.pool_times.push(r.times);
        self.pool_ops.push(r.chosen);
        self.pool_ratios.push(r.per_attempt_ratio);
    }

    /// Returns just an op vector (e.g. a result's `chosen` field) to
    /// the pool — for callers that keep the other result vectors alive
    /// (the bench runner stores `times` in its per-loop record but
    /// drops `chosen`).
    pub fn recycle_ops(&mut self, ops: Vec<OpId>) {
        self.pool_ops.push(ops);
    }

    /// A cleared `Vec<u32>` from the pool (or a fresh one).
    pub(crate) fn take_times(&mut self) -> Vec<u32> {
        let mut v = self.pool_times.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A cleared `Vec<OpId>` from the pool (or a fresh one).
    pub(crate) fn take_ops(&mut self) -> Vec<OpId> {
        let mut v = self.pool_ops.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A cleared `Vec<f64>` from the pool (or a fresh one).
    pub(crate) fn take_ratios(&mut self) -> Vec<f64> {
        let mut v = self.pool_ratios.pop().unwrap_or_default();
        v.clear();
        v
    }
}
