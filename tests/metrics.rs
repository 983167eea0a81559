//! Integration tests of the wall-clock self-observability layer:
//! instrumentation coverage across the runtime crates, the
//! `JUBENCH_METRICS` kill switch, and the profiling scopes.
//!
//! Registry state is process-global, so every test here serializes on
//! `metrics::registry::test_mutex()` and leaves metrics enabled behind.

use std::sync::Arc;

use jubench::metrics::{self, MetricsSnapshot};
use jubench::prelude::*;
use jubench::profile_scope;
use jubench::sched::{registry_jobs, run_campaign};

/// Run `f` with exclusive ownership of the global registry, freshly
/// reset and enabled; restores the enabled state afterwards.
fn with_registry<T>(f: impl FnOnce() -> T) -> T {
    let _guard = metrics::registry::test_mutex().lock().unwrap();
    metrics::set_enabled(true);
    metrics::reset();
    let out = f();
    metrics::reset();
    out
}

#[test]
fn simmpi_instrumentation_counts_messages_and_bytes() {
    let snap = with_registry(|| {
        // One node of the modeled machine runs four ranks (one per GPU).
        let w = World::new(Machine::juwels_booster().partition(1));
        w.run(|comm| {
            let peer = (comm.rank() + 1) % comm.size();
            comm.send_f64(peer, &[1.0; 100]).unwrap();
            comm.recv_f64((comm.rank() + comm.size() - 1) % comm.size())
                .unwrap();
            comm.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
            comm.barrier();
        });
        metrics::snapshot()
    });
    // 4 explicit sends of 800 bytes each, plus the allreduce's ring
    // traffic underneath.
    assert!(snap.counters["simmpi/msgs/send"] >= 4);
    assert!(snap.counters["simmpi/bytes/send"] >= 4 * 800);
    assert_eq!(
        snap.counters["simmpi/msgs/recv"],
        snap.counters["simmpi/msgs/send"]
    );
    assert_eq!(snap.counters["simmpi/ops/allreduce"], 4);
    assert_eq!(snap.counters["simmpi/ops/barrier"], 4);
}

#[test]
fn sched_instrumentation_profiles_the_backfill_scan() {
    let snap = with_registry(|| {
        let registry = full_registry();
        let jobs = registry_jobs(&registry, 0.05);
        run_campaign(
            Machine::juwels_booster().partition(144),
            NetModel::juwels_booster(),
            SchedulerConfig::new(
                QueuePolicy::ConservativeBackfill,
                PlacementPolicy::Contiguous,
                2024,
            ),
            &jobs,
            &FaultPlan::new(0),
        );
        metrics::snapshot()
    });
    assert!(snap.counters["sched/backfill_scans"] >= 1);
    assert!(snap.counters["sched/events_processed"] >= 2);
    // The backfill scope nests under the advance scope in the profile.
    assert!(snap
        .scopes
        .keys()
        .any(|path| path.ends_with("sched/advance;sched/backfill")));
}

#[test]
fn pool_and_trace_instrumentation_observe_the_hot_paths() {
    let snap = with_registry(|| {
        jubench::pool::with_threads(4, || {
            let out = jubench::pool::par_map_indexed(64, |i| i * 3);
            assert_eq!(out[63], 189);
        });
        let rec = Recorder::new();
        let w = World::new(Machine::juwels_booster().partition(2)).with_recorder(Arc::new(rec));
        w.run(|comm| {
            comm.advance_compute(1e-3);
            comm.barrier();
        });
        metrics::snapshot()
    });
    assert!(snap.counters["pool/tasks_executed"] >= 64);
    assert!(snap.counters["pool/spawns"] >= 64);
    assert!(snap.gauges["pool/queue_depth_peak"] >= 1);
    assert!(snap.counters["trace/events_recorded"] >= 4);
}

#[test]
fn ckpt_instrumentation_times_seal_and_open() {
    let snap = with_registry(|| {
        let payload = vec![0xABu8; 1 << 16];
        let sealed = jubench::ckpt::seal("test-blob", &payload);
        let back = jubench::ckpt::open("test-blob", &sealed).unwrap();
        assert_eq!(back, payload);
        assert!(jubench::ckpt::open("wrong-kind", &sealed).is_err());
        metrics::snapshot()
    });
    assert_eq!(snap.counters["ckpt/seals"], 1);
    assert_eq!(snap.counters["ckpt/opens"], 2);
    assert_eq!(snap.counters["ckpt/open_errors"], 1);
    assert!(snap.counters["ckpt/snapshot_bytes"] >= 1 << 16);
    assert_eq!(snap.histograms["ckpt/seal_ns"].count, 1);
    assert_eq!(snap.histograms["ckpt/open_ns"].count, 2);
}

#[test]
fn kill_switch_disables_every_layer_at_runtime() {
    let snap = with_registry(|| {
        metrics::set_enabled(false);
        let w = World::new(Machine::juwels_booster().partition(2));
        w.run(|comm| {
            comm.allreduce_scalar(1.0, ReduceOp::Sum).unwrap();
            comm.barrier();
        });
        let _ = jubench::ckpt::seal("t", b"x");
        {
            profile_scope!("t/dead");
        }
        let snap = metrics::snapshot();
        metrics::set_enabled(true);
        snap
    });
    assert_eq!(snap, MetricsSnapshot::default());
}

/// Recording is observational over the real-track store too: one
/// campaign of application points on each of two backends whose layouts
/// are equal drains to the same frames with metrics on and off, and at
/// 1 and 8 pool threads. With metrics on, every executed point is either
/// an executed or a shared real track; with metrics off the registry
/// stays empty and the server's own tally still counts.
#[test]
fn a_two_backend_drain_is_byte_identical_with_metrics_on_and_off() {
    let registry = full_registry();
    let drain = || {
        let mut server = Server::new(2, 64);
        for backend in [Machine::juwels_booster(), Machine::jupiter_proposal()] {
            let spec = CampaignSpec::new("t", "twin", 8, 3)
                .with_backend(backend)
                .with_point(RunPoint::test("SOMA", 4, 1))
                .with_point(RunPoint::test("ParFlow", 4, 2))
                .with_point(RunPoint::test("PIConGPU", 4, 1));
            server.submit(1, spec, &registry).unwrap();
        }
        let emits = server.drain_parallel(&registry).unwrap();
        (emits, server.real_tracks())
    };
    let (on, off) = with_registry(|| {
        let reference = jubench::pool::with_threads(1, drain);
        let on = (reference.clone(), metrics::snapshot());
        metrics::set_enabled(false);
        metrics::reset();
        for threads in [1, 8] {
            let got = jubench::pool::with_threads(threads, drain);
            assert_eq!(got.0, reference.0, "metrics off at {threads} pool threads");
            assert_eq!((got.1.executed, got.1.shared), (3, 3));
        }
        let off = metrics::snapshot();
        metrics::set_enabled(true);
        (on, off)
    });
    assert_eq!(off, MetricsSnapshot::default());
    let ((_, tally), snap) = on;
    assert_eq!((tally.executed, tally.shared), (3, 3));
    assert_eq!(snap.counters["serve/real_tracks/executed"], tally.executed);
    assert_eq!(snap.counters["serve/real_tracks/shared"], tally.shared);
    assert_eq!(
        snap.counters["serve/points_executed"],
        tally.executed + tally.shared,
        "every point of this population is a split proxy's"
    );
    assert_eq!(
        snap.counters.get("serve/real_tracks/waited").copied(),
        (tally.waited > 0).then_some(tally.waited)
    );
}

#[test]
fn prometheus_and_json_expositions_cover_the_snapshot() {
    let (text, json) = with_registry(|| {
        metrics::counter_add("t/count", 3);
        metrics::gauge_max("t/peak", 42);
        metrics::observe("t/lat_ns", 1500);
        {
            profile_scope!("t/outer");
            profile_scope!("t/inner");
        }
        (
            metrics::snapshot().render_prometheus(),
            metrics::snapshot().to_json(),
        )
    });
    assert!(text.contains("# TYPE t_count counter\nt_count 3"));
    assert!(text.contains("# TYPE t_peak gauge\nt_peak 42"));
    assert!(text.contains("t_lat_ns_count 1"));
    assert!(text.contains("scope_t_outer_t_inner_inclusive_ns"));
    assert!(json.contains("\"t/count\": 3"));
    assert!(json.contains("\"t/outer;t/inner\""));
}

#[test]
fn self_profile_exports_collapsed_stacks() {
    let collapsed = with_registry(|| {
        {
            profile_scope!("campaign/run");
            {
                profile_scope!("sched/scan");
            }
            {
                profile_scope!("sched/scan");
            }
        }
        metrics::self_profile_collapsed()
    });
    let line = collapsed
        .lines()
        .find(|l| l.starts_with("campaign/run;sched/scan "))
        .expect("nested stack line present");
    let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    let _ = value; // exclusive ns; any non-negative value is valid
    assert!(collapsed.lines().any(|l| l.starts_with("campaign/run ")));
}
