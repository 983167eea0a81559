//! The deterministic-map primitive: parallel execution, sequential order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{as_task_thread, current_threads};

/// A map holds its locks only to move a value in or out, never across a
/// task, so no task's panic can poison one.
const UNPOISONED: &str = "a map's locks are never held across a task";

/// Apply `f` to `0..n` and return the results **in index order** —
/// always, whatever the width and however the threads interleaved.
///
/// At width `w = current_threads() > 1` and `n > 1`, the map opens a
/// [`std::thread::scope`], spawns `min(w, n) - 1` threads and works on
/// the calling thread too; each thread claims the next index from one
/// shared counter and writes `f(index)` into that index's slot, so the
/// output is the byte-identical sequence a sequential `(0..n).map(f)`
/// would have produced. Every task runs exactly once: a task's panic is
/// caught, the remaining tasks still run, and the first payload caught
/// is re-raised here once all have settled.
///
/// Anywhere else — width 1, `n <= 1`, or on a map task's or dedicated
/// rank's thread, where [`current_threads`] reads 1 — the map *is*
/// `(0..n).map(f)`, and a panic propagates at once.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = current_threads().min(n);
    if width <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let work = || {
        as_task_thread(|| {
            let mut executed = 0;
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(index))) {
                    Ok(value) => *slots[index].lock().expect(UNPOISONED) = Some(value),
                    Err(payload) => {
                        first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
                    }
                }
                executed += 1;
            }
            jubench_metrics::counter_add("pool/tasks_executed", executed);
        })
    };
    // The scope joins every spawned thread before it returns, so the
    // borrows of `f`, `slots` and `next` end after the last task.
    std::thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(work);
        }
        work();
    });
    if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect(UNPOISONED)
                .expect("every index ran")
        })
        .collect()
}

/// [`par_map_indexed`] over the items of a slice: `par_map_over(&xs, f)`
/// is the ordered parallel form of `xs.iter().map(f)`.
pub fn par_map_over<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// [`par_map_indexed`] over owned items: `par_map_owned(xs, f)` is the
/// ordered parallel form of `xs.into_iter().map(f)`, for items a task
/// must own — such as the disjoint `&mut` chunks of one buffer.
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map_indexed(items.len(), |i| {
        let item = items[i].lock().expect(UNPOISONED).take();
        f(item.expect("each index runs once"))
    })
}
