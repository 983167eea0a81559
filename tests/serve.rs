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
