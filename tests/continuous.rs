//! Continuous Benchmarking end to end: record baselines on the "healthy"
//! system, re-measure, and detect an injected interconnect degradation.

use jubench::continuous::{BaselineStore, CheckStatus, Monitor};
use jubench::prelude::*;

const WATCHED: [BenchmarkId; 4] = [
    BenchmarkId::Arbor,
    BenchmarkId::Juqcs,
    BenchmarkId::NekRs,
    BenchmarkId::Hpl,
];

#[test]
fn healthy_system_stays_green() {
    let registry = full_registry();
    let monitor = Monitor::default();
    let baselines = monitor.record_baselines(&registry, &WATCHED);
    assert_eq!(baselines.len(), WATCHED.len());
    // Re-measuring the unchanged (deterministic) system: everything OK.
    let report = monitor.check(&registry, &baselines);
    assert!(report.healthy(), "{}", report.render());
    assert!(report.entries.iter().all(|e| e.status == CheckStatus::Ok));
}

#[test]
fn interconnect_degradation_is_detected() {
    let registry = full_registry();
    let monitor = Monitor {
        tolerance: 0.05,
        seed: 0xC1,
    };
    let baselines = monitor.record_baselines(&registry, &WATCHED);
    // A maintenance left the network 3× slower: communication-bound
    // virtual times inflate. Inject by scaling the comm share of fresh
    // measurements (the benchmarks separate compute and comm shares).
    let mut degraded = std::collections::BTreeMap::new();
    for &id in &WATCHED {
        let bench = registry.get(id).unwrap();
        let nodes = bench
            .closest_valid_nodes(bench.reference_nodes().min(16))
            .unwrap();
        let out = bench
            .run(&RunConfig {
                seed: 0xC1,
                ..RunConfig::test(nodes)
            })
            .unwrap();
        degraded.insert(id, Some(out.compute_time_s + 3.0 * out.comm_time_s));
    }
    let report = monitor.compare(&baselines, &degraded);
    assert!(!report.healthy(), "{}", report.render());
    // The communication-heavy benchmark (JUQCS: ~96 % comm) must be
    // flagged; the fully-overlapped one (Arbor: 0 % exposed comm) must not.
    assert!(report.regressions().contains(&BenchmarkId::Juqcs));
    let arbor = report
        .entries
        .iter()
        .find(|e| e.id == BenchmarkId::Arbor)
        .unwrap();
    assert_eq!(
        arbor.status,
        CheckStatus::Ok,
        "Arbor hides its communication"
    );
}

#[test]
fn baselines_survive_the_filesystem() {
    let registry = full_registry();
    let monitor = Monitor::default();
    let baselines = monitor.record_baselines(&registry, &[BenchmarkId::NekRs]);
    let dir = std::env::temp_dir().join("jubench-continuous-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baselines.tsv");
    baselines.save(&path).unwrap();
    let loaded = BaselineStore::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, baselines);
    assert!(monitor.check(&registry, &loaded).healthy());
}
