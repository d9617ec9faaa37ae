//! A minimal `std::thread::scope`-based work-stealing runner.
//!
//! Work items are the indices `0..n`, claimed one at a time from a
//! shared atomic counter — a worker that finishes a cheap item
//! immediately steals the next unclaimed one, so no static sharding can
//! strand a slow shard on one core. Each worker carries private state
//! (e.g. a [`rmd_query::ModuloMaskCache`]) created by an `init` closure,
//! and results are returned **in index order** regardless of which
//! worker computed them: determinism is positional, not temporal.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over the indices `0..n` and returns the results in index
/// order.
///
/// `threads` is a *parallelism budget* (rayon semantics), not an
/// OS-thread demand: workers are capped at the host's available
/// parallelism (and at `n`), since spawning more workers than cores only
/// loses time to oversubscription while changing no result. A budget
/// that resolves to a single worker runs inline on the calling thread in
/// index order, so "serial" is literally "call `f` in index order".
///
/// Each worker gets its own state from `init`, threaded through every
/// call it claims — the hook for per-thread caches that must not be
/// shared across workers.
///
/// # Panics
///
/// Propagates a panic from any worker after all workers have stopped.
pub fn run_indexed<S, R, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let workers = threads.min(cores).min(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    steal(n, workers, init, f)
}

/// The threaded half of [`run_indexed`]: `workers` scoped threads claim
/// one index per atomic `fetch_add` until `0..n` is exhausted, and
/// results merge by index — claim order affects only *when* each index
/// runs, never where its result lands.
fn steal<S, R, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
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
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut state, i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => {
                    for (i, r) in part {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = run_indexed(37, threads, || (), |(), i| i * i);
            assert_eq!(got, want, "threads={threads}");
        }
        // The same on exactly that many workers, whatever the host's
        // core count.
        for workers in [2usize, 3, 8] {
            let got = steal(37, workers, || (), |(), i| i * i);
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn zero_items_and_zero_threads_are_fine() {
        assert_eq!(run_indexed(0, 4, || (), |(), i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(3, 0, || (), |(), i| i), vec![0, 1, 2]);
        assert_eq!(steal(0, 4, || (), |(), i| i), Vec::<usize>::new());
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        for workers in [2usize, 8] {
            let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let _ = steal(
                100,
                workers,
                || (),
                |(), i| counts[i].fetch_add(1, Ordering::Relaxed),
            );
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "workers={workers} index={i}");
            }
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
        let results = run_indexed(50, 4, || 0usize, seq);
        assert_eq!(results.len(), 50);
        let zeros = results.iter().filter(|&&s| s == 0).count();
        assert!((1..=4).contains(&zeros), "zeros={zeros}");
        // Same on exactly four threads, whatever the host's core count.
        let results = steal(50, 4, || 0usize, seq);
        let zeros = results.iter().filter(|&&s| s == 0).count();
        assert!((1..=4).contains(&zeros), "zeros={zeros}");
    }

    #[test]
    fn worker_panics_propagate() {
        let boom = |_: &mut (), i: usize| {
            assert!(i != 5, "boom");
            i
        };
        assert!(std::panic::catch_unwind(|| run_indexed(8, 2, || (), boom)).is_err());
        assert!(std::panic::catch_unwind(|| steal(8, 2, || (), boom)).is_err());
    }
}
