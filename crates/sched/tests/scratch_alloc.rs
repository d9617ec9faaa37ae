//! Zero-allocation steady-state scheduling guard.
//!
//! The PR-4 counting-allocator guard pins the *query* hot path
//! (`check`) at zero allocations; this extends the guard one level up:
//! scheduling the same loop a second time through a warm
//! [`SchedScratch`] + [`ModuloMaskCache`] pair must perform **zero**
//! heap allocations — every buffer (heights, partial schedule, ready
//! queue, eviction list, reservation-table words/owner/registry, and
//! the result vectors via [`SchedScratch::recycle`]) was sized by the
//! first run and is reused in place.

use rmd_machine::models::cydra5_subset;
use rmd_machine::MachineDescription;
use rmd_query::{ModuloMaskCache, WordLayout};
use rmd_sched::{
    DepGraph, DepKind, ImsConfig, IterativeModuloScheduler, Representation, SchedScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator and counts every allocation call made by
/// the calling thread.
struct CountingAlloc;

thread_local! {
    /// Per-thread, so allocations by concurrently running tests cannot
    /// leak into a measured window. `const`-initialised with no
    /// destructor: touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a thread-local `Cell` and never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `body` and returns how many allocations it performed on this
/// thread.
fn allocations_during(body: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

fn chain(m: &MachineDescription, names: &[&str], delay: i32) -> DepGraph {
    let mut g = DepGraph::new();
    let nodes: Vec<_> = names
        .iter()
        .map(|n| g.add_node(m.op_by_name(n).expect("test setup")))
        .collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1], delay, 0, DepKind::Flow);
    }
    g
}

#[test]
fn warm_scratch_schedules_without_allocating() {
    assert!(
        !rmd_obs::is_enabled(),
        "tracing must be off for the allocation guard"
    );
    let m = cydra5_subset();
    let layout = WordLayout::widest(64, m.num_resources());
    let repr = Representation::Bitvec(layout);
    let mut cache = ModuloMaskCache::new(&m, layout);
    let mut scratch = SchedScratch::new();
    let ims = IterativeModuloScheduler::new(ImsConfig::default());

    // Shapes covering the interesting paths: a latency chain (window
    // slot search), resource pressure (forced placement, assign&free
    // eviction, the owner-table transition), and a recurrence (II
    // escalation from RecMII).
    let fadd = m.op_by_name("fadd").expect("test setup");
    let mut pressured = DepGraph::new();
    for _ in 0..6 {
        pressured.add_node(fadd);
    }
    let mut recurrence = DepGraph::new();
    let a = recurrence.add_node(fadd);
    let b = recurrence.add_node(fadd);
    recurrence.add_edge(a, b, 7, 0, DepKind::Flow);
    recurrence.add_edge(b, a, 7, 1, DepKind::Flow);
    let graphs = [
        chain(&m, &["load.w.0", "fadd", "store.w.0"], 8),
        pressured,
        recurrence,
    ];

    for (i, g) in graphs.iter().enumerate() {
        let mii = rmd_sched::mii::mii(g, &m);
        // First run: sizes every buffer (and expands this II's masks).
        let warm = ims
            .schedule_with_mii_cached_scratch(g, &m, repr, mii, &mut cache, &mut scratch)
            .expect("test setup");
        let expected_times = warm.times.clone();
        scratch.recycle(warm);
        // Second identical run: zero heap allocations.
        let mut times_match = false;
        let allocs = allocations_during(|| {
            let r = ims
                .schedule_with_mii_cached_scratch(g, &m, repr, mii, &mut cache, &mut scratch)
                .expect("test setup");
            times_match = r.times == expected_times;
            scratch.recycle(r);
        });
        assert!(times_match, "graph {i}: warm run changed the schedule");
        assert_eq!(allocs, 0, "graph {i}: warm run allocated");
    }
}

#[test]
fn cold_scratch_allocates_then_settles() {
    // Sanity check on the guard itself: the first run through a cold
    // scratch must be observed allocating (otherwise the zero assert
    // above would be vacuous).
    let m = cydra5_subset();
    let layout = WordLayout::widest(64, m.num_resources());
    let repr = Representation::Bitvec(layout);
    let mut cache = ModuloMaskCache::new(&m, layout);
    let mut scratch = SchedScratch::new();
    let ims = IterativeModuloScheduler::new(ImsConfig::default());
    let g = chain(&m, &["load.w.0", "fadd", "store.w.0"], 8);
    let mii = rmd_sched::mii::mii(&g, &m);
    let allocs = allocations_during(|| {
        let r = ims
            .schedule_with_mii_cached_scratch(&g, &m, repr, mii, &mut cache, &mut scratch)
            .expect("test setup");
        scratch.recycle(r);
    });
    assert!(allocs > 0, "cold run must allocate; the counter works");
}
