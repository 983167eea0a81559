//! A metrics shard lives as long as its thread — not as long as the
//! process.
//!
//! The campaign service never restarts, and `World::run` spawns a fresh
//! OS thread per rank per call, so anything the registry keeps per
//! thread that ever recorded is a leak with the slope of the workload.
//! A counting global allocator tracks live heap bytes while thousands of
//! recording threads come and go: what they recorded must still sum
//! exactly, and what they leave behind must not grow with their number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use jubench::prelude::*;

/// Forwards to [`System`], keeping the balance of live bytes.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is one
// relaxed atomic add that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, from this
        // allocator, which only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let delta = new_size as isize - layout.size() as isize;
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What exited threads may leave behind in total, however many there
/// were: slack for a `Vec` that doubled once, not a per-thread residue
/// (the registry used to keep ≈ 730 B per exited thread).
const RESIDUE_BUDGET: isize = 16 << 10;

fn counter(name: &str) -> u64 {
    let snapshot = jubench::metrics::snapshot();
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Run `round` 4 × `quarter` times and return live heap bytes after the
/// first and after the last quarter.
fn live_bytes_across(quarter: usize, mut round: impl FnMut()) -> (isize, isize) {
    let mut after_first = 0;
    for i in 1..=4 * quarter {
        round();
        if i == quarter {
            after_first = LIVE_BYTES.load(Ordering::Relaxed);
        }
    }
    (after_first, LIVE_BYTES.load(Ordering::Relaxed))
}

/// One test, so nothing else allocates in this process while it counts.
#[test]
fn exited_recording_threads_leave_their_counts_and_nothing_else() {
    if !jubench::metrics::enabled() {
        return; // JUBENCH_METRICS=0: nothing records, nothing to leak
    }

    // 4 000 short-lived threads, one counter increment each.
    let before = counter("t/leak");
    let (at_1000, at_4000) = live_bytes_across(1000, || {
        std::thread::spawn(|| jubench::metrics::counter_add("t/leak", 1))
            .join()
            .unwrap();
    });
    assert_eq!(counter("t/leak") - before, 4000, "every increment survives");
    assert!(
        (at_4000 - at_1000).abs() < RESIDUE_BUDGET,
        "live heap moved {at_1000} → {at_4000} B between the 1 000th and the 4 000th thread"
    );

    // 500 eight-rank worlds: a fresh OS thread per rank per `run`, each
    // flushing its message tallies into the registry as it exits.
    let world = World::per_node(Machine::juwels_booster().partition(8));
    let before = counter("simmpi/ops/allreduce");
    let (at_125, at_500) = live_bytes_across(125, || {
        let sums = world.run(|comm| comm.allreduce_scalar(1.0, ReduceOp::Sum).unwrap());
        assert!(sums.iter().all(|rank| rank.value == 8.0));
    });
    assert_eq!(
        counter("simmpi/ops/allreduce") - before,
        500 * 8,
        "every rank's flush survives its thread"
    );
    assert!(
        (at_500 - at_125).abs() < RESIDUE_BUDGET,
        "live heap moved {at_125} → {at_500} B between the 125th and the 500th world"
    );
}
