//! Reusable scheduling scratch state.
//!
//! The iterative modulo scheduler's per-attempt working set — height
//! priorities, partial-schedule vectors, the ready queue, eviction
//! buffers, and (on the bitvector path) the reservation-table
//! module itself, whose instance registry is a slab indexed by node
//! id — is sized by the loop being scheduled. A suite run
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
//! scratch per scheduling thread is the intended shape: the suite
//! runner uses one for the whole suite, and each machine cached by the
//! serve daemon owns one that its schedule and suite frames share.

use core::cmp::Reverse;
use rmd_machine::OpId;
use rmd_query::{ModuloBitvecModule, OpInstance};

use crate::ims::ImsResult;

/// Reusable buffers for [`IterativeModuloScheduler`] attempts; see the
/// module docs. Create one per scheduling thread with
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
    /// The nodes waiting to be placed, in priority order.
    pub(crate) ready: ReadyQueue,
    /// Eviction victims of the latest `assign_free_into`.
    pub(crate) evicted: Vec<OpInstance>,
    /// The reservation-table module reused across bitvector
    /// attempts (words, owner table, and registry keep their capacity).
    pub(crate) module: Option<ModuloBitvecModule>,
    /// Decisions per node of each attempt of the schedule in progress;
    /// a result gets a copy, and the buffer stays here whether or not
    /// some II was feasible.
    pub(crate) ratios: Vec<f64>,
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

    /// A copy of the finished schedule's [`ratios`](Self::ratios) in a
    /// `Vec<f64>` from the pool (or a fresh one).
    pub(crate) fn copy_ratios(&mut self) -> Vec<f64> {
        let mut v = self.pool_ratios.pop().unwrap_or_default();
        v.clear();
        v.extend_from_slice(&self.ratios);
        v
    }
}

/// The ready queue of one attempt. Heights are fixed within an attempt,
/// so the nodes are ranked once, by height descending and then id
/// ascending, and a bitset over ranks marks the queued ones. A pop
/// takes the lowest set bit: the queued node of greatest height, the
/// lowest id among equals. Keys are unique, so this is the order a
/// max-heap on `(height, Reverse(id))` pops in, whatever the order of
/// the pushes.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    /// `by_rank[i]` is the node of rank `i`.
    by_rank: Vec<u32>,
    /// `rank[v]` is node `v`'s rank.
    rank: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff the node of rank `i`
    /// is queued.
    bits: Vec<u64>,
    /// Every word below this index is zero.
    low: usize,
}

impl ReadyQueue {
    /// Ranks the nodes `0..height.len()` by `height` and queues them
    /// all.
    pub(crate) fn fill(&mut self, height: &[i64]) {
        let n = height.len();
        self.by_rank.clear();
        self.by_rank.extend(0..n as u32);
        self.by_rank
            .sort_unstable_by_key(|&v| (Reverse(height[v as usize]), v));
        self.rank.clear();
        self.rank.resize(n, 0);
        for (i, &v) in self.by_rank.iter().enumerate() {
            self.rank[v as usize] = i as u32;
        }
        self.bits.clear();
        self.bits.resize(n.div_ceil(64), u64::MAX);
        if n % 64 != 0 {
            self.bits[n / 64] = (1u64 << (n % 64)) - 1;
        }
        self.low = 0;
    }

    /// Queues node `v`; queuing a queued node changes nothing.
    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        let r = self.rank[v as usize] as usize;
        self.bits[r / 64] |= 1u64 << (r % 64);
        self.low = self.low.min(r / 64);
    }

    /// Removes and returns the queued node of highest priority.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u32> {
        while let Some(&w) = self.bits.get(self.low) {
            if w != 0 {
                self.bits[self.low] = w & (w - 1);
                return Some(self.by_rank[self.low * 64 + w.trailing_zeros() as usize]);
            }
            self.low += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Drives the rank queue and the max-heap it replaces through one
    /// script of pops and pushes; with one entry per node they agree.
    #[test]
    fn ready_queue_pops_in_max_heap_order() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut q = ReadyQueue::default();
        for n in [0usize, 1, 5, 63, 64, 65, 130] {
            let height: Vec<i64> = (0..n).map(|_| (next() % 7) as i64 - 3).collect();
            q.fill(&height);
            let mut heap: BinaryHeap<(i64, Reverse<u32>)> = (0..n as u32)
                .map(|v| (height[v as usize], Reverse(v)))
                .collect();
            let mut queued = vec![true; n];
            for _ in 0..4 * n + 1 {
                if next() % 3 == 0 && n > 0 {
                    let v = (next() % n as u64) as u32;
                    q.push(v);
                    if !queued[v as usize] {
                        queued[v as usize] = true;
                        heap.push((height[v as usize], Reverse(v)));
                    }
                } else {
                    let want = heap.pop().map(|(_, Reverse(v))| v);
                    if let Some(v) = want {
                        queued[v as usize] = false;
                    }
                    assert_eq!(q.pop(), want, "n = {n}");
                }
            }
        }
    }
}
