//! Regenerates **Fig. 3**: weak-scaling efficiency of the five
//! High-Scaling benchmarks over the JUWELS Booster node range, with the
//! JUQCS computation/communication split.
//!
//! Run with: `cargo bench -p jubench-bench --bench fig3_weak_scaling`

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_core::{MemoryVariant, RunConfig};
use jubench_scaling::weak::{fig3_all_series, juqcs_split_series};

fn regenerate_figure() {
    banner("Fig. 3 — weak-scaling efficiency of the High-Scaling benchmarks");
    for series in fig3_all_series(1) {
        println!("{}", series.render());
    }
}

fn bench_fig3(c: &mut Criterion) {
    regenerate_figure();
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("juqcs_split_sweep", |b| {
        b.iter(|| {
            let [comp, comm] = juqcs_split_series(1);
            comp.points.len() + comm.points.len()
        });
    });
    group.bench_function("juqcs_single_point_512_nodes", |b| {
        b.iter(|| {
            jubench_core::Benchmark::run(
                &jubench_apps_quantum::Juqcs,
                &RunConfig::test(512).with_variant(MemoryVariant::Small),
            )
            .unwrap()
            .comm_time_s
        });
    });
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
