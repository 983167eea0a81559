//! Integration tests of the campaign service (`jubench-serve`): the
//! determinism contract end to end.
//!
//! The headline invariant: for a fixed campaign, the result table and
//! Chrome trace are byte-identical across warm vs cold caches, every
//! pool width (1/2/8), kill-and-restore of a shard mid-run, and
//! resubmission after a partial spec change. The cache moves *when*
//! work happens, never *what* is produced.

use jubench::ckpt::Checkpointable;
use jubench::pool::with_threads;
use jubench::prelude::*;
use jubench::serve::{Emit, Frame, ShardState};

const THREADS: [usize; 3] = [1, 2, 8];

fn campaign(name: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("integration", name, 16, seed)
        .with_point(RunPoint::test("STREAM", 2, seed))
        .with_point(RunPoint::test("OSU", 2, seed + 1))
        .with_point(RunPoint::test("LinkTest", 4, seed + 2));
    spec.slice_s = 5.0;
    spec
}

/// The `(table, chrome_trace)` artifacts of every completed campaign,
/// in campaign order.
fn artifacts(emits: &[Emit]) -> Vec<(String, String)> {
    emits
        .iter()
        .filter_map(|e| match &e.frame {
            Frame::Done {
                table,
                chrome_trace,
                ..
            } => Some((table.clone(), chrome_trace.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn warm_and_cold_campaigns_are_byte_identical_at_every_pool_width() {
    let per_width: Vec<_> = THREADS
        .iter()
        .map(|&t| {
            with_threads(t, || {
                let registry = full_registry();
                let mut server = Server::new(2, 64);
                server.submit(1, campaign("nightly", 7), &registry).unwrap();
                let cold = artifacts(&server.drain(&registry).unwrap());
                // Same spec again: every point answers from the cache.
                let (_, shard) = server.submit(1, campaign("nightly", 7), &registry).unwrap();
                let warm = artifacts(&server.drain(&registry).unwrap());
                let hits = server.shard(shard).cache().stats().hits;
                assert!(hits >= 3, "warm resubmission must hit, got {hits} hits");
                assert_eq!(warm, cold, "warm != cold at {t} pool threads");
                cold
            })
        })
        .collect();
    for (&t, arts) in THREADS[1..].iter().zip(&per_width[1..]) {
        assert_eq!(
            arts, &per_width[0],
            "artifacts at {t} pool threads diverged from sequential"
        );
    }
}

#[test]
fn kill_and_restore_of_a_shard_mid_run_is_byte_identical() {
    let registry = full_registry();
    let submit_all = |server: &mut Server| {
        for (i, seed) in [3u64, 11, 19].iter().enumerate() {
            server
                .submit(1, campaign(&format!("c{i}"), *seed), &registry)
                .unwrap();
        }
    };
    let reference = {
        let mut server = Server::new(4, 64);
        submit_all(&mut server);
        server.drain(&registry).unwrap()
    };
    for kill_at in [1usize, 3, 6] {
        let mut server = Server::new(4, 64);
        submit_all(&mut server);
        let mut emits = Vec::new();
        for _ in 0..kill_at {
            emits.extend(server.step(&registry).unwrap());
        }
        // Snapshot every shard, lose them all (the crash), then restore
        // each into a shard constructed with wrong parameters.
        for s in 0..4u32 {
            let snapshot = server.shard(s).snapshot();
            *server.shard_mut(s) = ShardState::new(99, 1);
            server.shard_mut(s).restore(&snapshot).unwrap();
        }
        emits.extend(server.drain(&registry).unwrap());
        assert_eq!(emits, reference, "kill at step {kill_at} diverged");
    }
}

#[test]
fn resubmission_reexecutes_only_the_changed_points() {
    let registry = full_registry();
    let mut server = Server::new(1, 64);
    let spec = campaign("sweep", 5);
    server.submit(1, spec.clone(), &registry).unwrap();
    server.drain(&registry).unwrap();
    let cold = server.shard(0).cache().stats();
    assert_eq!((cold.hits, cold.misses), (0, 3));

    // Change one point's seed: two points stay cached, one re-executes.
    let mut changed = spec;
    changed.points[1].seed ^= 0x5eed;
    server.submit(1, changed, &registry).unwrap();
    server.drain(&registry).unwrap();
    let warm = server.shard(0).cache().stats();
    assert_eq!(warm.hits - cold.hits, 2, "unchanged points must hit");
    assert_eq!(warm.misses - cold.misses, 1, "the changed point must miss");
}

#[test]
fn bounded_cache_evicts_deterministically_without_changing_bytes() {
    let registry = full_registry();
    let run = |capacity: usize| {
        let mut server = Server::new(1, capacity);
        server.submit(1, campaign("evict", 2), &registry).unwrap();
        let first = artifacts(&server.drain(&registry).unwrap());
        server.submit(1, campaign("evict", 2), &registry).unwrap();
        let second = artifacts(&server.drain(&registry).unwrap());
        assert_eq!(first, second, "capacity {capacity} changed bytes");
        (first, server)
    };
    // A 2-entry cache under a 3-point campaign must evict, stay within
    // its bound, and still produce the bytes of the unbounded run.
    let (unbounded, _) = run(64);
    let (bounded, server) = run(2);
    assert_eq!(bounded, unbounded);
    let cache = server.shard(0).cache();
    assert!(cache.len() <= 2, "bound violated: {} entries", cache.len());
    assert!(cache.stats().evictions > 0, "eviction never triggered");

    // Replaying the same workload replays the same evictions: the final
    // shard states (cache contents, recency clock, tallies) agree.
    let (_, replay) = run(2);
    assert_eq!(server.shard(0), replay.shard(0));
}

#[test]
fn migration_mid_campaign_preserves_artifacts() {
    let registry = full_registry();
    let reference = {
        let mut server = Server::new(4, 64);
        server.submit(1, campaign("mig", 13), &registry).unwrap();
        artifacts(&server.drain(&registry).unwrap())
    };
    let mut server = Server::new(4, 64);
    let (id, shard) = server.submit(1, campaign("mig", 13), &registry).unwrap();
    server.step(&registry).unwrap();
    assert!(server.migrate(id, (shard + 2) % 4).unwrap());
    assert_eq!(artifacts(&server.drain(&registry).unwrap()), reference);
}

/// A backend no model can be computed on is refused at submit, even
/// when it arrives as wire bytes: it never reaches the shard it would
/// have shared with another tenant, whose artifacts are those of a solo
/// run under both the plain and the supervised drain.
#[test]
fn an_uncomputable_backend_is_rejected_and_cannot_sink_its_co_tenant() {
    use jubench::serve::{RejectReason, SupervisorConfig};
    let registry = full_registry();
    let alice = || {
        let mut spec = campaign("alice-nightly", 5);
        spec.tenant = "alice".to_string();
        spec
    };
    let mut forged = campaign("mallory-probe", 6);
    forged.tenant = "mallory".to_string();
    forged.backend.cell_nodes = 0;
    let Ok(Frame::Submit { spec: mallory }) =
        Frame::decode(&Frame::Submit { spec: forged }.encode())
    else {
        panic!("a zero cell size is the validator's to refuse, not the decoder's");
    };

    type Drain = fn(&mut Server, &Registry) -> Vec<Emit>;
    let drains: [Drain; 2] = [
        |server, registry| server.drain(registry).unwrap(),
        |server, registry| {
            let outcome = server
                .drain_supervised(registry, &SupervisorConfig::default(), None)
                .unwrap();
            assert_eq!(outcome.restarts, 0, "nothing to restart");
            assert!(outcome.cancelled.is_empty() && !outcome.degraded());
            outcome.emits
        },
    ];
    for drain in drains {
        let mut solo = Server::new(1, 64);
        solo.submit(1, alice(), &registry).unwrap();
        let solo_frames: Vec<Vec<u8>> = drain(&mut solo, &registry)
            .iter()
            .map(|e| e.frame.encode())
            .collect();

        let mut shared = Server::new(1, 64);
        shared.submit(1, alice(), &registry).unwrap();
        let rejection = shared.submit(2, mallory.clone(), &registry).unwrap_err();
        assert_eq!(rejection.tenant, "mallory");
        assert!(
            matches!(&rejection.reason, RejectReason::Invalid { what } if what.contains("cell_nodes")),
            "refused as invalid: {rejection:?}"
        );
        let shared_frames: Vec<Vec<u8>> = drain(&mut shared, &registry)
            .iter()
            .map(|e| e.frame.encode())
            .collect();
        assert!(
            matches!(
                Frame::decode(shared_frames.last().unwrap()),
                Ok(Frame::Done { .. })
            ),
            "alice finishes"
        );
        assert_eq!(
            shared_frames, solo_frames,
            "alice's stream is her solo run's"
        );
    }
}

/// Sum of the counters whose name starts with `prefix`.
fn counted(prefix: &str) -> u64 {
    let snapshot = jubench::metrics::snapshot().filter_prefix(prefix);
    snapshot.counters.values().sum()
}

/// A campaign retires when its terminal frame is emitted — on every road
/// to one: the quota it held is refunded, its route is gone, and its
/// tenant's completion counter moves once per `Done`, however many
/// attempts a supervised drain took to produce it.
#[test]
fn quota_is_refunded_and_completions_counted_once_on_every_retirement_path() {
    use jubench::serve::wire::CancelReason;
    let registry = full_registry();
    let cfg = SupervisorConfig::default();
    // Three campaigns on one partition — one shard, `home` — and one
    // elsewhere, all of the path's own tenant.
    let populated = |tenant: &str| {
        let mut server = Server::new(4, 64);
        let spec = |name: &str, nodes: u32, seed: u64| {
            let mut spec = campaign(name, seed);
            (spec.tenant, spec.nodes) = (tenant.to_string(), nodes);
            spec
        };
        let home = server.route(&spec("a", 8, 3));
        let elsewhere = [16, 24, 48, 96]
            .into_iter()
            .find(|&n| server.route(&spec("d", n, 27)) != home);
        for (name, nodes, seed) in [
            ("a", 8, 3),
            ("b", 8, 11),
            ("c", 8, 19),
            ("d", elsewhere.unwrap(), 27),
        ] {
            server
                .submit(1, spec(name, nodes, seed), &registry)
                .unwrap();
        }
        (server, home)
    };
    // Units `home` takes to go idle: a crash at `units - 1` discards an
    // attempt in which campaigns had already finished.
    let units = {
        let (server, home) = populated("retire-probe");
        let mut shard = server.shard(home).clone();
        let mut units = 0;
        while !shard.idle() {
            shard.step(&registry);
            units += 1;
        }
        units
    };

    type Path<'a> = (&'a str, Box<dyn Fn(&mut Server, u32) -> Vec<Emit> + 'a>);
    let paths: Vec<Path> = vec![
        (
            "step",
            Box::new(|server, _| {
                let mut emits = Vec::new();
                while !server.idle() {
                    emits.extend(server.step(&registry).unwrap());
                }
                emits
            }),
        ),
        (
            "drain",
            Box::new(|server, _| server.drain(&registry).unwrap()),
        ),
        (
            "drain_parallel",
            Box::new(|server, _| server.drain_parallel(&registry).unwrap()),
        ),
        (
            "two_crashes",
            Box::new(|server, home| {
                let plan = ChaosPlan::new(1)
                    .with_shard_crash(home, units - 2)
                    .with_shard_crash(home, units - 1);
                let outcome = server.drain_supervised(&registry, &cfg, Some(&plan));
                let outcome = outcome.unwrap();
                assert_eq!((outcome.restarts, outcome.degraded()), (2, false));
                outcome.emits
            }),
        ),
        (
            "give_up",
            Box::new(|server, home| {
                let mut plan = ChaosPlan::new(2);
                for _ in 0..=cfg.max_restarts {
                    plan = plan.with_shard_crash(home, units - 1);
                }
                let outcome = server.drain_supervised_parallel(&registry, &cfg, Some(&plan));
                let outcome = outcome.unwrap();
                assert!(outcome.degraded());
                assert_eq!(outcome.cancelled.len(), 3, "all of `home` is given up on");
                outcome.emits
            }),
        ),
        (
            "deadline",
            Box::new(|server, _| {
                let mut doomed = campaign("doomed", 5).with_deadline(1.0);
                doomed.tenant = "retire-deadline".to_string();
                doomed.slice_s = 0.75;
                server.submit(1, doomed, &registry).unwrap();
                let emits = server.drain(&registry).unwrap();
                let reasons: Vec<_> = emits
                    .iter()
                    .filter_map(|e| match &e.frame {
                        Frame::Cancelled { reason, .. } => Some(reason),
                        _ => None,
                    })
                    .collect();
                assert!(matches!(
                    reasons.as_slice(),
                    [CancelReason::DeadlineExceeded { .. }]
                ));
                emits
            }),
        ),
        (
            "migration",
            Box::new(|server, home| {
                let mut emits = server.step(&registry).unwrap();
                let moved = server.shard(home).active()[1];
                assert!(server.migrate(moved, (home + 1) % 4).unwrap());
                emits.extend(server.drain(&registry).unwrap());
                emits
            }),
        ),
    ];
    for (path, drive) in paths {
        let tenant = format!("retire-{path}");
        let series = format!("serve/tenant/{tenant}/campaigns");
        let (mut server, home) = populated(&tenant);
        let counted_before = counted(&series);
        let emits = drive(&mut server, home);
        assert!(server.idle(), "{path}");

        let usage = server.admission().usage(&tenant);
        assert_eq!(
            (usage.active, usage.tokens),
            (0, 0),
            "{path}: quota at idle"
        );
        let terminal = |done: bool| {
            let ids = emits.iter().filter_map(move |e| match e.frame {
                Frame::Done { campaign, .. } if done => Some(campaign),
                Frame::Cancelled { campaign, .. } if !done => Some(campaign),
                _ => None,
            });
            ids.collect::<Vec<u64>>()
        };
        let (done, cancelled) = (terminal(true), terminal(false));
        assert_eq!(
            done.len() + cancelled.len(),
            4 + usize::from(path == "deadline"),
            "{path}: one terminal frame per campaign"
        );
        for id in done.iter().chain(&cancelled) {
            assert!(
                !server.migrate(*id, 0).unwrap(),
                "{path}: route {id} is gone"
            );
        }
        if jubench::metrics::enabled() {
            assert_eq!(
                counted(&series) - counted_before,
                done.len() as u64,
                "{path}: one completion per `Done`, whatever the attempts"
            );
        }
    }
}

/// Tenant names come off the wire, so a session may invent one per
/// frame: the first 64 get a metric series of their own, the rest share
/// `_other`, and no count is lost — rejected specs included.
#[test]
fn invented_tenants_cannot_grow_the_metrics_registry() {
    use jubench::serve::{serve_session, DuplexPipe, Transport};
    if !jubench::metrics::enabled() {
        return;
    }
    let registry = full_registry();
    let (mut client_end, mut server_end) = DuplexPipe::pair();
    let server_thread = std::thread::spawn(move || {
        let mut server = Server::new(2, 64);
        serve_session(&mut server, &registry, &mut server_end, 1).unwrap();
    });
    // The series this session can move: its tenants' own and `_other`.
    let series = || {
        let snapshot = jubench::metrics::snapshot().filter_prefix("serve/tenant/");
        let ours = |name: &str| name.contains("/invented-") || name.contains("/_other/");
        let mut counters = snapshot.counters;
        counters.retain(|name, _| ours(name));
        counters
    };
    let before = series();
    let mut accepted = 0;
    for i in 0..1000 {
        let mut spec = CampaignSpec::new(&format!("invented-{i}"), "probe", 8, i)
            .with_point(RunPoint::test("STREAM", 2, 1));
        if i % 2 == 1 {
            spec.slice_s = -1.0; // fails validation
        }
        jubench::serve::write_frame(&mut client_end, &Frame::Submit { spec }).unwrap();
        match jubench::serve::read_frame(&mut client_end).unwrap() {
            Frame::Accepted { .. } => accepted += 1,
            Frame::Rejected { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(accepted, 500);
    jubench::serve::write_frame(&mut client_end, &Frame::Drain).unwrap();
    let mut done = 0;
    while done < accepted {
        if let Frame::Done { .. } = jubench::serve::read_frame(&mut client_end).unwrap() {
            done += 1;
        }
    }
    jubench::serve::write_frame(&mut client_end, &Frame::Bye).unwrap();
    client_end.shutdown();
    server_thread.join().unwrap();

    let mut moved = series();
    for (name, n) in &mut moved {
        *n -= before.get(name).copied().unwrap_or(0);
    }
    assert!(moved.len() <= 2 * 65, "{} tenant series", moved.len());
    let sum_of = |what: &str| -> u64 {
        let series = moved.iter().filter(|(name, _)| name.ends_with(what));
        series.map(|(_, n)| *n).sum()
    };
    assert_eq!((sum_of("/rejected"), sum_of("/campaigns")), (500, 500));
}
