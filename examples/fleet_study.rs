//! The fleet study end to end: the full benchmark suite executed on
//! every backend of the standard machine catalog (JUWELS-Booster-like
//! baseline, CPU-only cluster, next-generation GPU node, cloud 8-GPU
//! instance) through the campaign service, condensed into the
//! procurement tables — per-benchmark FOMs, a HEPScore-style composite
//! score, TCO-based value for money with energy-to-solution, and the
//! 1 EFLOP/s sub-partition extrapolation.
//!
//! The printed report is deterministic: byte-identical at any
//! `JUBENCH_POOL_THREADS`, shard count, or cache temperature.
//!
//! Run with: `cargo run --release --example fleet_study`

use jubench::fleet::partition_tco_eur;
use jubench::fleet::FleetStudy;
use jubench::prelude::*;

fn main() {
    let registry = full_registry();
    let study = FleetStudy::standard();

    println!(
        "evaluating {} backends x {} benchmarks on a {}-shard campaign service...\n",
        study.catalog.len(),
        registry.len(),
        study.n_shards
    );
    let mut server = Server::new(study.n_shards, study.cache_capacity);
    let report = study.run_on(&mut server, &registry).expect("fleet study");
    println!("{}", report.render());
    // How the study was computed, not what it found — so on stderr: the
    // points of all backends share the real executions whose layouts
    // are equal (36 executed, 56 shared).
    let tracks = server.real_tracks();
    eprintln!(
        "real tracks: {} executed, {} shared",
        tracks.executed, tracks.shared
    );

    // Sub-partition economics: what the 1 EFLOP/s slice of each backend
    // would cost over its own horizon.
    println!("-- 1 EFLOP/s sub-partition TCO --");
    for backend in &report.backends {
        let nodes = backend.exascale_nodes.min(backend.model.machine.nodes);
        println!(
            "{:<10} {:>6} nodes  {:>10.1} M EUR{}",
            backend.model.key,
            nodes,
            partition_tco_eur(&backend.model.machine, nodes) / 1.0e6,
            if backend.exascale_fits {
                ""
            } else {
                "  (capped: backend smaller than the 1 EFLOP/s slice)"
            }
        );
    }

    println!("\ncomposite ranking: {}", report.ranking().join(" > "));
}
