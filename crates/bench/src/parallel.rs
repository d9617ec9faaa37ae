//! A minimal `std::thread::scope`-based work-stealing runner.
//!
//! Work items are the indices `0..n`, claimed from a shared atomic
//! counter — a worker that finishes a cheap item immediately steals the
//! next unclaimed one, so no static sharding can strand a slow shard on
//! one core. Each worker carries private state (e.g. a
//! [`rmd_query::ModuloMaskCache`]) created by an `init` closure, and
//! results are returned **in index order** regardless of which worker
//! computed them: determinism is positional, not temporal.
//!
//! [`run_indexed`] claims through a [`ClaimPlan`]: the index space is
//! ordered by a caller-supplied per-item cost estimate (expensive items
//! dispatch first, so the slowest item never starts last) and grouped
//! so that runs of cheap items are claimed by a single `fetch_add` —
//! tiny items stop paying a cache-line ping each. Neither the order nor
//! the grouping can change results: every index is claimed exactly once
//! and results land in their original positions, a property the
//! proptests below pin under random cost distributions, worker counts,
//! and grain sizes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of logical CPUs actually available to this process — the
/// worker-count ceiling [`run_indexed`] applies. Requesting more OS
/// threads than cores cannot add throughput; it only adds context
/// switching and duplicates per-worker caches, which is how a parallel
/// pass ends up *slower* than serial on a small host.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How many claim groups [`ClaimPlan::new`] targets per requested
/// thread. Enough granularity that work-stealing can rebalance (the
/// last groups are the cheapest), few enough that small items amortize
/// their claim.
const GROUPS_PER_THREAD: usize = 16;

/// A cost-aware dispatch plan over the index space `0..n`: the claim
/// order (descending cost estimate, ties by ascending index so the
/// plan is deterministic) and its partition into contiguous claim
/// groups. Workers claim one *group* per atomic `fetch_add`.
///
/// Expensive items lead the order and form singleton groups; cheap
/// items trail in runs whose summed cost reaches the grain. The plan
/// is pure dispatch metadata — results are always returned in the
/// original index order.
#[derive(Clone, Debug)]
pub struct ClaimPlan {
    /// Indices `0..n` in dispatch order.
    order: Vec<u32>,
    /// Start offset of each group in `order`, ascending; group `g`
    /// spans `order[starts[g]..starts[g+1]]` (last group to the end).
    starts: Vec<u32>,
}

impl ClaimPlan {
    /// Plans dispatch for items with the given cost estimates onto
    /// `threads` workers: the grain (minimum summed cost per group) is
    /// `total_cost / (threads * 16)`, so each worker has ~16 groups to
    /// steal and tiny items batch together.
    pub fn new(costs: &[u64], threads: usize) -> ClaimPlan {
        let total: u64 = costs.iter().fold(0u64, |a, &c| a.saturating_add(c.max(1)));
        let target_groups = (threads.max(1) * GROUPS_PER_THREAD) as u64;
        ClaimPlan::with_grain(costs, total / target_groups)
    }

    /// Plans dispatch with an explicit grain: groups are closed as soon
    /// as their summed cost reaches `grain` (clamped to at least 1, so
    /// zero-cost items still advance the partition).
    pub fn with_grain(costs: &[u64], grain: u64) -> ClaimPlan {
        let grain = grain.max(1);
        let mut order: Vec<u32> = (0..costs.len() as u32).collect();
        order.sort_by(|&a, &b| {
            costs[b as usize].cmp(&costs[a as usize]).then(a.cmp(&b))
        });
        let mut starts = Vec::new();
        let mut acc = 0u64;
        for (pos, &i) in order.iter().enumerate() {
            if acc == 0 {
                starts.push(pos as u32);
            }
            acc = acc.saturating_add(costs[i as usize].max(1));
            if acc >= grain {
                acc = 0;
            }
        }
        ClaimPlan { order, starts }
    }

    /// Number of claim groups.
    pub fn num_groups(&self) -> usize {
        self.starts.len()
    }

    /// The indices of group `g`, in dispatch order.
    ///
    /// # Panics
    ///
    /// Panics if `g >= num_groups()`.
    pub fn group(&self, g: usize) -> &[u32] {
        let s = self.starts[g] as usize;
        let e = self.starts.get(g + 1).map_or(self.order.len(), |&x| x as usize);
        &self.order[s..e]
    }

    /// The full dispatch order (descending cost, ties by index).
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// Runs `f` over the indices `0..n` and returns the results in index
/// order.
///
/// `threads` is a *parallelism budget* (rayon semantics), not an
/// OS-thread demand: workers are capped at [`host_parallelism`] (and at
/// `n`), since spawning more workers than cores only loses time to
/// oversubscription while changing no result. A budget that resolves to
/// a single worker runs inline on the calling thread in index order, so
/// "serial" is literally "call `f` in index order" — on a single-core
/// host this function *is* the serial path. Otherwise a [`ClaimPlan`]
/// built from the per-item `costs` dispatches the work.
///
/// Each worker gets its own state from `init`, threaded through every
/// call it claims — the hook for per-thread caches that must not be
/// shared across workers.
///
/// # Panics
///
/// Panics if `costs.len() != n`, and propagates a panic from any worker
/// after all workers have stopped.
pub fn run_indexed<S, R, I, F>(n: usize, threads: usize, costs: &[u64], init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert_eq!(costs.len(), n, "one cost estimate per work item");
    let workers = threads.min(host_parallelism()).min(n);
    if workers <= 1 {
        // A budget of one worker is the serial discipline: walk the
        // items in index (memory) order. Dispatching a lone worker in
        // cost order would stride randomly through the item array —
        // measurably slower on large suites — and buys nothing, since
        // cost order exists only to balance load *across* workers.
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    claim_groups(&ClaimPlan::new(costs, threads), workers, init, f)
}

/// The threaded half of [`run_indexed`]: `workers` scoped threads claim
/// one plan group per atomic `fetch_add` until the plan is exhausted,
/// and results merge by index — the plan affects only *when* each index
/// runs, never where its result lands.
fn claim_groups<S, R, I, F>(plan: &ClaimPlan, workers: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let n = plan.order.len();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        if g >= plan.num_groups() {
                            break;
                        }
                        for &i in plan.group(g) {
                            out.push((i as usize, f(&mut state, i as usize)));
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => {
                    for (i, r) in part {
                        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("plan covers every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        let costs = vec![1u64; 37];
        for threads in [1usize, 2, 3, 8, 64] {
            let got = run_indexed(37, threads, &costs, || (), |(), i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_items_and_zero_threads_are_fine() {
        assert_eq!(run_indexed(0, 4, &[], || (), |(), i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(3, 0, &[1, 1, 1], || (), |(), i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let _ = run_indexed(100, 8, &[1; 100], || (), |(), i| {
            counts[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker's state counts how many items it processed; the
        // per-item results record the worker-local sequence number.
        // Sequence numbers start at 0 and are contiguous, so the number
        // of 0s equals the number of workers that processed at least
        // one item.
        let seq = |seen: &mut usize, _i: usize| {
            let s = *seen;
            *seen += 1;
            s
        };
        let results = run_indexed(50, 4, &[1; 50], || 0usize, seq);
        assert_eq!(results.len(), 50);
        let zeros = results.iter().filter(|&&s| s == 0).count();
        assert!((1..=4).contains(&zeros), "zeros={zeros}");
        // Same on exactly four threads, whatever the host's core count.
        let plan = ClaimPlan::with_grain(&[1; 50], 1);
        let results = claim_groups(&plan, 4, || 0usize, seq);
        let zeros = results.iter().filter(|&&s| s == 0).count();
        assert!((1..=4).contains(&zeros), "zeros={zeros}");
    }

    #[test]
    fn worker_panics_propagate() {
        let boom = |_: &mut (), i: usize| {
            assert!(i != 5, "boom");
            i
        };
        assert!(std::panic::catch_unwind(|| run_indexed(8, 2, &[1; 8], || (), boom)).is_err());
        let plan = ClaimPlan::with_grain(&[1; 8], 1);
        assert!(std::panic::catch_unwind(|| claim_groups(&plan, 2, || (), boom)).is_err());
    }

    #[test]
    fn plan_orders_by_cost_desc_ties_by_index() {
        let costs = [3u64, 9, 9, 1, 7];
        let plan = ClaimPlan::with_grain(&costs, 1);
        assert_eq!(plan.order(), &[1, 2, 4, 0, 3]);
        // Grain 1: every item closes its own group.
        assert_eq!(plan.num_groups(), 5);
        for g in 0..plan.num_groups() {
            assert_eq!(plan.group(g).len(), 1);
        }
    }

    #[test]
    fn plan_batches_cheap_items_and_isolates_expensive_ones() {
        // One huge item, eight unit items, grain 4: the huge item is a
        // singleton group; the unit items batch four per group.
        let costs = [100u64, 1, 1, 1, 1, 1, 1, 1, 1];
        let plan = ClaimPlan::with_grain(&costs, 4);
        assert_eq!(plan.group(0), &[0]);
        assert_eq!(plan.num_groups(), 3);
        assert_eq!(plan.group(1).len(), 4);
        assert_eq!(plan.group(2).len(), 4);
    }

    #[test]
    fn plan_groups_partition_the_order() {
        let costs = [0u64, 5, 2, 2, 8, 0, 1];
        for grain in [0u64, 1, 3, 100] {
            let plan = ClaimPlan::with_grain(&costs, grain);
            let mut flat = Vec::new();
            for g in 0..plan.num_groups() {
                flat.extend_from_slice(plan.group(g));
            }
            assert_eq!(flat, plan.order(), "grain={grain}");
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            let want: Vec<u32> = (0..costs.len() as u32).collect();
            assert_eq!(sorted, want, "grain={grain}");
        }
    }

    #[test]
    fn plan_handles_empty_input() {
        let plan = ClaimPlan::new(&[], 8);
        assert_eq!(plan.num_groups(), 0);
        assert_eq!(plan.order(), &[] as &[u32]);
        let got: Vec<u32> = claim_groups(&plan, 4, || (), |(), i| i as u32);
        assert!(got.is_empty());
    }

    #[test]
    fn costed_results_come_back_in_index_order() {
        let costs: Vec<u64> = (0..37).map(|i| (i * 7 % 13) as u64).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = run_indexed(37, threads, &costs, || (), |(), i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn claim_plan_runner_claims_every_index_once() {
        let costs: Vec<u64> = (0..100).map(|i| (i * 31 % 17) as u64).collect();
        for workers in [1usize, 2, 8] {
            let plan = ClaimPlan::new(&costs, workers);
            let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let _ = claim_groups(&plan, workers, || (), |(), i| {
                counts[i].fetch_add(1, Ordering::Relaxed)
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "workers={workers} index={i}");
            }
        }
    }

    mod chunk_claim_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Random cost distributions × worker counts × grain sizes
            /// always yield every index claimed exactly once and
            /// positionally ordered results.
            #[test]
            fn chunked_claiming_is_positional_and_exhaustive(
                costs in prop::collection::vec(0u64..1_000, 0..120),
                workers in 1usize..9,
                grain in 0u64..500,
            ) {
                let n = costs.len();
                let plan = ClaimPlan::with_grain(&costs, grain);

                // The plan itself partitions 0..n.
                let mut flat = Vec::new();
                for g in 0..plan.num_groups() {
                    flat.extend_from_slice(plan.group(g));
                }
                prop_assert_eq!(&flat, plan.order());
                let mut sorted = flat;
                sorted.sort_unstable();
                let want: Vec<u32> = (0..n as u32).collect();
                prop_assert_eq!(sorted, want);

                // Dispatch order is descending cost, ties by index.
                for w in plan.order().windows(2) {
                    let (a, b) = (w[0] as usize, w[1] as usize);
                    prop_assert!(
                        costs[a] > costs[b] || (costs[a] == costs[b] && a < b),
                        "order not (cost desc, index asc) at {a} -> {b}"
                    );
                }

                // Running the plan claims every index exactly once and
                // returns results positionally.
                let counts: Vec<std::sync::atomic::AtomicUsize> =
                    (0..n).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
                let got = claim_groups(&plan, workers, || (), |(), i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                    i * 2 + 1
                });
                let want: Vec<usize> = (0..n).map(|i| i * 2 + 1).collect();
                prop_assert_eq!(got, want);
                for (i, c) in counts.iter().enumerate() {
                    prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {} claim count", i);
                }
            }
        }
    }
}
