//! jubench-pool: a deterministic work-stealing thread pool.
//!
//! The suite's sweeps — scaling studies, campaign probes, parameter-space
//! workflows — are embarrassingly parallel over *independent* points, yet
//! every layer promises byte-stable output. This crate supplies the
//! execution substrate that keeps both:
//!
//! - [`ThreadPool`]: per-worker deques plus a global injector; workers
//!   steal oldest-first, the submitting thread helps while it waits, and
//!   panics propagate without poisoning the pool.
//! - [`ThreadPool::scope`]: structured parallelism over borrowed data,
//!   mirroring [`std::thread::scope`].
//! - [`ThreadPool::par_map_indexed`]: the determinism workhorse — tasks
//!   run on any number of workers but results always come back in
//!   submission order, so tables, FOMs, and Chrome traces are
//!   byte-identical to a sequential run.
//! - [`run_dedicated`]: counted OS threads for rank programs that *block*
//!   on each other (channels, barriers) and therefore must not share a
//!   bounded pool.
//!
//! The global pool sizes itself from the `JUBENCH_POOL_THREADS`
//! environment variable (default: available parallelism); tests pin the
//! count per-call-tree with [`with_threads`].
//!
//! The pool self-reports its wall-clock behavior into `jubench-metrics`
//! under `pool/*`: task, spawn, steal, and pop counters, park/wake
//! counts, and the peak queue depth — observational only, never part of
//! any deterministic output.

mod dedicated;
mod map;
mod pool;

pub use dedicated::{
    dedicated_peak_in_flight, dedicated_spawned_total, run_dedicated, MAX_DEDICATED_THREADS,
};
pub use pool::{Scope, ThreadPool};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the global pool's worker count.
pub(crate) const THREADS_ENV: &str = "JUBENCH_POOL_THREADS";

/// Pools are cached per thread count: `with_threads(2, ..)` always hands
/// back the *same* 2-worker pool, which is what lets tests assert that a
/// pool stays usable after a panic rather than observing a fresh one.
fn pool_cache() -> &'static Mutex<BTreeMap<usize, ThreadPool>> {
    static CACHE: OnceLock<Mutex<BTreeMap<usize, ThreadPool>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn pool_with(threads: usize) -> ThreadPool {
    let threads = threads.max(1);
    pool_cache()
        .lock()
        .unwrap()
        .entry(threads)
        .or_insert_with(|| ThreadPool::new(threads))
        .clone()
}

/// Worker count of the global pool: `JUBENCH_POOL_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
fn env_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

thread_local! {
    /// Innermost `with_threads` override on this thread, if any.
    static OVERRIDE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The pool the current call tree should use, by precedence: the
/// innermost [`with_threads`] override, then the pool owning the current
/// worker thread (so tasks nest onto their own pool), then the global
/// `JUBENCH_POOL_THREADS`-sized pool.
pub fn current() -> ThreadPool {
    if let Some(n) = OVERRIDE.with(|o| o.borrow().last().copied()) {
        return pool_with(n);
    }
    if let Some(pool) = ThreadPool::of_current_worker() {
        return pool;
    }
    pool_with(env_threads())
}

/// Worker count of [`current`]'s pool.
pub fn current_threads() -> usize {
    current().threads()
}

/// Run `f` with the current thread's pool pinned to `threads` workers.
/// Overrides nest; the differential determinism harness uses this to
/// execute the same study at 1, 2, and 8 threads inside one process.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(threads.max(1)));
    let _pop = PopOnDrop;
    f()
}

/// [`ThreadPool::scope`] on the [`current`] pool.
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    current().scope(f)
}

/// [`ThreadPool::par_map_indexed`] on the [`current`] pool.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    current().par_map_indexed(n, f)
}

/// [`ThreadPool::par_map_over`] on the [`current`] pool.
pub fn par_map_over<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    current().par_map_over(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_indexed_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.par_map_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_over_maps_items_in_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let out = pool.par_map_over(&items, |s| s.len());
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..250 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    }

    #[test]
    fn nested_maps_complete_on_a_saturated_pool() {
        let pool = ThreadPool::new(2);
        let out = pool.par_map_indexed(6, |i| {
            let inner = pool.par_map_indexed(5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        let pool = ThreadPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(10, |i| {
                if i == 4 {
                    panic!("task 4 exploded");
                }
                i
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 4 exploded");
        // Same pool instance, next map is healthy.
        assert_eq!(pool.par_map_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn with_threads_pins_and_nests() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn with_threads_reuses_the_cached_pool_across_calls() {
        let first = with_threads(5, current);
        let second = with_threads(5, current);
        assert_eq!(first.threads(), 5);
        assert_eq!(second.threads(), 5);
    }

    #[test]
    fn run_dedicated_returns_results_in_rank_order() {
        use std::sync::Barrier;
        let barrier = Barrier::new(4);
        let out = run_dedicated(4, |rank| {
            // All four must be alive at once for this to return.
            barrier.wait();
            rank * 2
        });
        let values: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![0, 2, 4, 6]);
        assert!(dedicated_peak_in_flight() >= 4);
        assert!(dedicated_spawned_total() >= 4);
    }

    #[test]
    fn run_dedicated_captures_panics_per_rank() {
        let out = run_dedicated(3, |rank| {
            if rank == 1 {
                panic!("rank 1 down");
            }
            rank
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        let payload = out[1].as_ref().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 1 down"));
    }
}
