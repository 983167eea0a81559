//! The `simmpi/*` traffic counters are flushed when a rank exits. This
//! binary holds the tests that read exact totals off the process-global
//! registry, so nothing else in the process may run a world.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jubench_cluster::Machine;
use jubench_metrics::{self as metrics, MetricsSnapshot};
use jubench_simmpi::{ReduceOp, World};

fn with_registry(f: impl FnOnce()) -> MetricsSnapshot {
    let _guard = metrics::registry::test_mutex()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    metrics::set_enabled(true);
    metrics::reset();
    f();
    let snap = metrics::snapshot();
    metrics::reset();
    snap
}

/// One node, four ranks: a ring exchange of 100 doubles, then a scalar
/// ring allreduce (six messages per rank, one 8-byte chunk circulating).
fn ring_then_allreduce(comm: &mut jubench_simmpi::Comm) {
    let (rank, size) = (comm.rank(), comm.size());
    comm.send_f64((rank + 1) % size, &[1.0; 100]).unwrap();
    comm.recv_f64((rank + size - 1) % size).unwrap();
    comm.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
}

fn assert_ring_totals(snap: &MetricsSnapshot) {
    for dir in ["send", "recv"] {
        assert_eq!(snap.counters[&format!("simmpi/msgs/{dir}")], 4 + 4 * 6);
        assert_eq!(
            snap.counters[&format!("simmpi/bytes/{dir}")],
            4 * 800 + 6 * 8
        );
    }
    assert_eq!(snap.counters["simmpi/ops/allreduce"], 4);
    assert_eq!(snap.counters["simmpi/bytes/allreduce"], 4 * 8);
}

#[test]
fn totals_are_the_per_message_sums() {
    let world = World::new(Machine::juwels_booster().partition(1));
    let snap = with_registry(|| {
        world.run(ring_then_allreduce);
    });
    assert_ring_totals(&snap);
    // Only what happened gets a name.
    assert!(!snap.counters.contains_key("simmpi/ops/allgather"));
}

#[test]
fn a_panicking_rank_still_reports() {
    let world = World::new(Machine::juwels_booster().partition(1));
    let snap = with_registry(|| {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                ring_then_allreduce(comm);
                assert_ne!(comm.rank(), 2, "rank 2 gives up");
            })
        }));
        assert!(outcome.is_err());
    });
    assert_ring_totals(&snap);
}
