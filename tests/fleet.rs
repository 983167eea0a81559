//! Fleet-study determinism and cache-keying invariants.
//!
//! The fleet report is a procurement artifact: its bytes must not
//! depend on pool width, shard count, or cache temperature, and two
//! different catalog backends must never answer each other's cached
//! points.

use jubench::fleet::{standard_catalog, FleetStudy};
use jubench::pool::with_threads;
use jubench::prelude::*;
use jubench::scaling::full_registry;

/// The rendered report is byte-identical at 1, 2, and 8 pool threads —
/// the `JUBENCH_POOL_THREADS` matrix run in-process.
#[test]
fn fleet_report_is_pool_thread_invariant() {
    let registry = full_registry();
    let render = || FleetStudy::standard().run(&registry).unwrap().render();
    let sequential = with_threads(1, render);
    for threads in [2, 8] {
        let got = with_threads(threads, render);
        assert_eq!(
            got, sequential,
            "fleet report at {threads} pool threads diverged from sequential"
        );
    }
}

/// Re-running the study on the same service hits the warm result cache
/// and reproduces the cold report byte for byte.
#[test]
fn warm_cache_reproduces_the_cold_report() {
    let registry = full_registry();
    let study = FleetStudy::standard();
    let mut server = Server::new(study.n_shards, study.cache_capacity);
    let cold = study.run_on(&mut server, &registry).unwrap().render();
    let misses_after_cold: u64 = (0..study.n_shards)
        .map(|i| server.shard(i as u32).cache().stats().misses)
        .sum();
    let warm = study.run_on(&mut server, &registry).unwrap().render();
    let misses_after_warm: u64 = (0..study.n_shards)
        .map(|i| server.shard(i as u32).cache().stats().misses)
        .sum();
    assert_eq!(warm, cold, "warm cache changed the report bytes");
    assert_eq!(
        misses_after_warm, misses_after_cold,
        "warm pass should answer every point from the cache"
    );
    assert!(misses_after_cold > 0, "cold pass must actually execute");
}

/// The same run point on two different catalog backends never shares a
/// serve cache key — the regression the extended machine fingerprint
/// exists to prevent.
#[test]
fn catalog_backends_never_share_point_keys() {
    let registry = full_registry();
    let specs: Vec<CampaignSpec> = standard_catalog()
        .into_iter()
        .map(|model| {
            let mut spec =
                CampaignSpec::new("fleet", model.key, 96, 42).with_backend(model.machine);
            for bench in registry.iter() {
                spec = spec.with_point(RunPoint::test(
                    bench.meta().id.name(),
                    bench.reference_nodes(),
                    42,
                ));
            }
            spec
        })
        .collect();
    for point in 0..specs[0].points.len() {
        for (i, a) in specs.iter().enumerate() {
            for b in specs.iter().skip(i + 1) {
                assert_ne!(
                    a.point_key(point),
                    b.point_key(point),
                    "point {point} shares a cache key between `{}` and `{}`",
                    a.name,
                    b.name
                );
            }
        }
    }
}

/// The composite ranking of the standard catalog is a stable,
/// deterministic contract: fatter nodes win, the CPU cluster trails.
#[test]
fn standard_catalog_ranking_is_stable() {
    let registry = full_registry();
    let report = FleetStudy::standard().run(&registry).unwrap();
    assert_eq!(report.ranking(), vec!["nextgen", "cloud", "booster", "cpu"]);
    let reference = report.reference();
    assert!((reference.composite.score - 1.0).abs() < 1e-12);
}

/// A cold standard study runs 92 points (23 benchmarks × 4 backends)
/// but only 36 distinct real executions — the 29 application tracks
/// plus one per synthetic, whose serial layout is every backend's. The
/// other 56 are costed on a track another backend's campaign executed.
/// The store dies with its server, so a second study on a *fresh*
/// server executes the 36 again; on the *same* server the result cache
/// answers first and the store is never asked.
#[test]
fn a_cold_study_executes_each_distinct_real_track_once() {
    let registry = full_registry();
    let study = FleetStudy::standard();
    let points = registry.len() as u64 * study.catalog.len() as u64;
    assert_eq!(points, 92);
    let mut cold = None;
    for _ in 0..2 {
        let mut server = Server::new(study.n_shards, study.cache_capacity);
        let report = study.run_on(&mut server, &registry).unwrap().render();
        let tracks = server.real_tracks();
        assert_eq!((tracks.executed, tracks.shared), (36, 56));
        assert_eq!(tracks.executed + tracks.shared, points);
        assert!(tracks.waited <= tracks.shared);
        assert_eq!(*cold.get_or_insert(report.clone()), report);

        study.run_on(&mut server, &registry).unwrap();
        assert_eq!(server.real_tracks(), tracks, "a warm study never asks");
    }
}
