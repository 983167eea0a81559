//! Dedicated (blocking) threads, one per rank.
//!
//! Simulated-MPI rank programs block on each other through channels and
//! barriers, so they must not wait for a bounded set of threads: with
//! fewer threads than ranks, a collective would deadlock waiting for
//! ranks that never get one. Rank execution therefore goes through
//! [`run_dedicated`], which spawns one *counted* OS thread per rank and
//! joins them in rank order. The counters make the workspace-wide spawn
//! policy — at most [`MAX_DEDICATED_THREADS`] concurrent rank threads per
//! world — observable and testable.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::as_task_thread;

/// Policy cap on concurrently-running dedicated rank threads per world.
///
/// Callers that execute rank programs for real (`apps-common`'s real
/// execution paths) clamp their world size to this before calling
/// [`run_dedicated`]; larger worlds stay in pure virtual time.
pub const MAX_DEDICATED_THREADS: u32 = 16;

static SPAWNED_TOTAL: AtomicUsize = AtomicUsize::new(0);
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
static PEAK_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Dedicated threads spawned since process start.
pub fn dedicated_spawned_total() -> usize {
    SPAWNED_TOTAL.load(Ordering::Acquire)
}

/// High-water mark of concurrently-running dedicated threads.
pub fn dedicated_peak_in_flight() -> usize {
    PEAK_IN_FLIGHT.load(Ordering::Acquire)
}

struct InFlightGuard;

impl InFlightGuard {
    fn enter() -> Self {
        SPAWNED_TOTAL.fetch_add(1, Ordering::AcqRel);
        let now = IN_FLIGHT.fetch_add(1, Ordering::AcqRel) + 1;
        PEAK_IN_FLIGHT.fetch_max(now, Ordering::AcqRel);
        InFlightGuard
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run `f(0) .. f(n-1)` each on its own OS thread, all concurrently, and
/// return their results (or panic payloads) **in index order**.
///
/// The closures may block on each other — that is the point. Threads are
/// real and counted; panics are captured per index, not propagated, so a
/// caller can attribute a panic to the rank that raised it. Maps called
/// inside `f` run sequentially on the rank's thread.
pub fn run_dedicated<T, F>(n: u32, f: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|index| {
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("jubench-rank-{index}"))
                    .spawn_scoped(scope, move || {
                        let _guard = InFlightGuard::enter();
                        as_task_thread(|| f(index))
                    })
                    .expect("spawn dedicated rank thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}
