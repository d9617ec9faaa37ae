//! Heap-allocation guard for the reduction pipeline.
//!
//! Algorithm 1 decides each pair-versus-resource check in one pass that
//! allocates nothing, and builds a Rule 2 combination in a reused buffer,
//! so it allocates only for the resources it keeps; cover selection
//! numbers its targets and words densely instead of hashing them. Before
//! that, reducing the Cydra 5 for `rmd serve` (`reduce_with_fallback`
//! under the widest word layout) made 183,872 allocations, 138,668 of
//! them in `generating_set`. The bounds below are the counts measured
//! after the change, and after the equivalence check moved into the
//! pipeline, where it compares against the original's matrix that step
//! 1 computed instead of computing it again (13,629 before); a
//! regression past them fails here.

use rmd_core::{generating_set, reduce_with_fallback, Objective, ReduceOptions};
use rmd_latency::{ClassPartition, ForbiddenMatrix};
use rmd_machine::models::cydra5;
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
fn allocations_during<R>(body: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(body());
    ALLOCATIONS.with(Cell::get) - before
}

/// Measured for `reduce_with_fallback` on the Cydra 5 (was 183,872,
/// then 13,629).
const REDUCE_WITH_FALLBACK: u64 = 12_658;
/// Measured for `generating_set` on the Cydra 5 classes (was 138,668).
const GENERATING_SET: u64 = 3_879;

#[test]
fn cydra5_reduction_allocates_at_most_the_pinned_counts() {
    let m = cydra5();
    // The word size `rmd serve` admits a machine with:
    // `WordLayout::widest(64, resources)`.
    let k = (64 / m.num_resources() as u32).max(1);
    let reduce = allocations_during(|| {
        reduce_with_fallback(&m, Objective::KCycleWord { k }, &ReduceOptions::default())
    });
    assert!(
        reduce <= REDUCE_WITH_FALLBACK,
        "reduce_with_fallback made {reduce} allocations"
    );

    let f = ForbiddenMatrix::compute(&m);
    let classes = ClassPartition::compute(&m, &f);
    let matrix = classes.class_matrix(&f);
    let genset = allocations_during(|| generating_set(&matrix));
    assert!(
        genset <= GENERATING_SET,
        "generating_set made {genset} allocations"
    );
}
