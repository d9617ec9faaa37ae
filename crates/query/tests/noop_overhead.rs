//! Overhead guard for the observability layer: with tracing disabled
//! (the default), the `check` and `check_window`/`first_free_in` hot
//! paths — including the [`MeteredQuery`] wrapper — must perform
//! **zero heap allocations**.
//! Schedulers issue millions of checks per reduction, so any per-call
//! allocation introduced by instrumentation is a real regression, not a
//! style nit. A counting global allocator makes the claim testable.

use rmd_machine::models::{example_machine, mips_r3000};
use rmd_query::{
    BitvecModule, CompiledModule, ContentionQuery, DiscreteModule, MeteredQuery, WordLayout,
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
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
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

/// Issues a deterministic mix of `check` calls over every op and a
/// spread of cycles.
fn check_storm<Q: ContentionQuery>(q: &mut MeteredQuery<Q>, num_ops: usize) {
    let mut admitted = 0u64;
    for round in 0..200u32 {
        for op in 0..num_ops {
            if q.check(rmd_machine::OpId(op as u32), round % 37) {
                admitted += 1;
            }
        }
    }
    // Keep the loop observable so the optimizer cannot delete it.
    assert!(admitted > 0, "storm admitted nothing");
}

/// Issues batched window queries — `check_window` and `first_free_in` —
/// over every op and a spread of window starts.
fn window_storm<Q: ContentionQuery>(q: &mut MeteredQuery<Q>, num_ops: usize) {
    let mut occupancy = 0u64;
    for round in 0..200u32 {
        for op in 0..num_ops {
            let id = rmd_machine::OpId(op as u32);
            occupancy += q.check_window(id, round % 37, 64).count_ones() as u64;
            if q.first_free_in(id, round % 29, 32).is_some() {
                occupancy += 1;
            }
        }
    }
    // Keep the loop observable so the optimizer cannot delete it.
    assert!(occupancy > 0, "window storm saw no free cycles");
}

#[test]
fn metered_check_path_does_not_allocate_when_tracing_is_off() {
    assert!(
        !rmd_obs::is_enabled(),
        "tracing must be off for the overhead guard"
    );

    for m in [example_machine(), mips_r3000()] {
        let num_ops = m.num_operations();
        let layout = WordLayout::widest(64, m.num_resources());

        let mut discrete = MeteredQuery::new(DiscreteModule::new(&m));
        let mut bitvec = MeteredQuery::new(BitvecModule::new(&m, layout));
        let mut compiled = MeteredQuery::new(CompiledModule::new(&m, layout));

        // Warm-up pass: let lazy tables and counters reach steady state
        // before measuring.
        check_storm(&mut discrete, num_ops);
        check_storm(&mut bitvec, num_ops);
        check_storm(&mut compiled, num_ops);

        for (name, allocs) in [
            ("discrete", allocations_during(|| check_storm(&mut discrete, num_ops))),
            ("bitvec", allocations_during(|| check_storm(&mut bitvec, num_ops))),
            ("compiled", allocations_during(|| check_storm(&mut compiled, num_ops))),
        ] {
            assert_eq!(
                allocs, 0,
                "{name} check path allocated {allocs} times on `{}` with tracing off",
                m.name()
            );
        }
    }
}

#[test]
fn metered_window_path_does_not_allocate_when_tracing_is_off() {
    assert!(
        !rmd_obs::is_enabled(),
        "tracing must be off for the overhead guard"
    );

    for m in [example_machine(), mips_r3000()] {
        let num_ops = m.num_operations();
        let layout = WordLayout::widest(64, m.num_resources());

        let mut bitvec = MeteredQuery::new(BitvecModule::new(&m, layout));
        let mut compiled = MeteredQuery::new(CompiledModule::new(&m, layout));

        // Warm-up pass: let lazy tables and counters reach steady state
        // before measuring.
        window_storm(&mut bitvec, num_ops);
        window_storm(&mut compiled, num_ops);

        for (name, allocs) in [
            ("bitvec", allocations_during(|| window_storm(&mut bitvec, num_ops))),
            ("compiled", allocations_during(|| window_storm(&mut compiled, num_ops))),
        ] {
            assert_eq!(
                allocs, 0,
                "{name} window path allocated {allocs} times on `{}` with tracing off",
                m.name()
            );
        }
    }
}
