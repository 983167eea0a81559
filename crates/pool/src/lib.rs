//! jubench-pool: deterministic parallel maps on scoped threads.
//!
//! The suite's sweeps — scaling studies, campaign probes, parameter-space
//! workflows — are embarrassingly parallel over *independent* points, yet
//! every layer promises byte-stable output. This crate keeps both:
//!
//! - [`par_map_indexed`]: the determinism workhorse — `f(0) .. f(n-1)`
//!   run on up to [`current_threads`] threads, and every result lands in
//!   its index slot, so tables, FOMs, and Chrome traces are
//!   byte-identical to a sequential run. [`par_map_over`] and
//!   [`par_map_owned`] are the same map over a slice and over owned
//!   items.
//! - [`run_dedicated`]: counted OS threads for rank programs that *block*
//!   on each other (channels, barriers) and therefore must all be alive
//!   at once.
//!
//! A map opens a [`std::thread::scope`] for its own duration; no thread
//! outlives the call that spawned it. Maps do not nest: on a map task's
//! thread and on a dedicated rank thread, a map is the plain sequential
//! `(0..n).map(f)`, so sixteen ranks never fan out sixteen times.
//!
//! The width comes from the `JUBENCH_POOL_THREADS` environment variable
//! (default: available parallelism); tests pin it per call tree with
//! [`with_threads`]. Maps that fan out count their tasks into
//! `jubench-metrics` as `pool/tasks_executed` — observational only, never
//! part of any deterministic output.

#![forbid(unsafe_code)]

mod dedicated;
mod map;

pub use dedicated::{
    dedicated_peak_in_flight, dedicated_spawned_total, run_dedicated, MAX_DEDICATED_THREADS,
};
pub use map::{par_map_indexed, par_map_over, par_map_owned};

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Environment variable overriding the default map width.
const THREADS_ENV: &str = "JUBENCH_POOL_THREADS";

/// Map width outside any [`with_threads`]: `JUBENCH_POOL_THREADS` if set
/// to a positive integer, otherwise the machine's available parallelism.
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
    /// Set while this thread runs map tasks or a dedicated rank program:
    /// every map here is sequential.
    static SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread marked as a task thread, so maps inside it
/// run sequentially; the previous mark comes back afterwards.
pub(crate) fn as_task_thread<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SEQUENTIAL.set(self.0);
        }
    }
    let _restore = Restore(SEQUENTIAL.replace(true));
    f()
}

/// Width of a map started here: 1 on a map task's or dedicated rank's
/// thread, else the innermost [`with_threads`] override, else
/// `JUBENCH_POOL_THREADS` (or available parallelism).
pub fn current_threads() -> usize {
    if SEQUENTIAL.get() {
        return 1;
    }
    OVERRIDE
        .with(|o| o.borrow().last().copied())
        .unwrap_or_else(env_threads)
}

/// Run `f` with maps on this thread pinned to `threads` wide. Overrides
/// nest; the differential determinism harness uses this to execute the
/// same study at 1, 2, and 8 threads inside one process.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn par_map_indexed_preserves_order() {
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || par_map_indexed(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_over_maps_items_in_order() {
        let items: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let out = with_threads(4, || par_map_over(&items, |s| s.len()));
        assert_eq!(out, items.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_owned_moves_each_item_into_its_slot() {
        let items: Vec<String> = (0..20).map(|i| format!("x{i}")).collect();
        let out = with_threads(4, || par_map_owned(items.clone(), |s| s + "!"));
        assert_eq!(
            out,
            items.iter().map(|s| format!("{s}!")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_maps_complete_on_a_saturated_pool() {
        let out = with_threads(2, || {
            par_map_indexed(6, |i| {
                let inner = par_map_indexed(5, move |j| i * 10 + j);
                inner.iter().sum::<usize>()
            })
        });
        let expected: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        with_threads(2, || {
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map_indexed(10, |i| {
                    if i == 4 {
                        panic!("task 4 exploded");
                    }
                    i
                })
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "task 4 exploded");
            // The caller is a top-level thread again: the next map fans
            // out and is healthy.
            assert_eq!(current_threads(), 2);
            assert_eq!(par_map_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        });
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
    fn a_map_runs_on_at_most_its_width_of_threads() {
        for threads in [1, 2, 3, 8] {
            let seen = Mutex::new(HashSet::<ThreadId>::new());
            with_threads(threads, || {
                par_map_indexed(400, |i| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // Slow enough that the spawned threads claim work too.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    i
                })
            });
            let seen = seen.into_inner().unwrap();
            assert!(
                !seen.is_empty() && seen.len() <= threads,
                "width {threads} ran on {} threads",
                seen.len()
            );
        }
    }

    #[test]
    fn a_map_nested_in_a_task_runs_in_order_on_the_task_thread() {
        let outer = with_threads(4, || {
            par_map_indexed(8, |i| {
                let task = std::thread::current().id();
                let width = current_threads();
                let order = Mutex::new(Vec::new());
                let inner = par_map_indexed(50, |j| {
                    order.lock().unwrap().push(j);
                    (std::thread::current().id() == task, i * 100 + j)
                });
                (width, order.into_inner().unwrap(), inner)
            })
        });
        for (i, (width, order, inner)) in outer.into_iter().enumerate() {
            assert_eq!(width, 1, "task {i}: current_threads inside a task");
            assert_eq!(order, (0..50).collect::<Vec<_>>(), "task {i}: run order");
            for (j, (on_task_thread, value)) in inner.into_iter().enumerate() {
                assert!(on_task_thread, "task {i}: inner index {j} left its thread");
                assert_eq!(value, i * 100 + j);
            }
        }
    }

    #[test]
    fn a_map_inside_a_dedicated_rank_runs_on_the_rank_thread() {
        let out = with_threads(8, || {
            run_dedicated(3, |_| {
                let own = std::thread::current().id();
                let width = current_threads();
                let inner = par_map_indexed(40, |j| (std::thread::current().id() == own, j));
                (width, inner)
            })
        });
        for (rank, joined) in out.into_iter().enumerate() {
            let (width, inner) = joined.unwrap();
            assert_eq!(width, 1, "rank {rank}: current_threads inside a rank");
            for (j, (on_rank_thread, value)) in inner.into_iter().enumerate() {
                assert!(
                    on_rank_thread,
                    "rank {rank}: index {j} left the rank thread"
                );
                assert_eq!(value, j);
            }
        }
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
