//! Regenerates **Fig. 2**: relative runtimes of the Base applications on
//! the reference system at 0.5/0.75/1/1.5/2 × the reference node count.
//!
//! Run with: `cargo bench -p jubench-bench --bench fig2_base_strong_scaling`

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_core::{Category, RunConfig};
use jubench_scaling::{full_registry, strong_scaling_series};

fn regenerate_figure() {
    banner("Fig. 2 — strong scaling of the Base applications (regenerated)");
    let registry = full_registry();
    for bench in registry.by_category(Category::Base) {
        let series = strong_scaling_series(bench, 1);
        println!("{}", series.render());
    }
    // Sub-benchmarks with their own reference node counts (Table II).
    println!("GROMACS test case C (27×STMV, 28 M atoms):");
    println!(
        "{}",
        strong_scaling_series(&jubench_apps_md::Gromacs::case_c(), 1).render()
    );
    println!("ICON R02B10 (2.5 km):");
    println!(
        "{}",
        strong_scaling_series(&jubench_apps_earth::Icon::r02b10(), 1).render()
    );
}

fn bench_fig2(c: &mut Criterion) {
    regenerate_figure();
    let registry = full_registry();
    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    // Time one representative sweep (Arbor: the figure's caption example).
    group.bench_function("arbor_strong_scaling_sweep", |b| {
        let arbor = registry.get(jubench_core::BenchmarkId::Arbor).unwrap();
        b.iter(|| strong_scaling_series(arbor, 1).points.len());
    });
    // Time one reference-point run end to end (model + real execution).
    group.bench_function("nekrs_reference_run", |b| {
        let nekrs = registry.get(jubench_core::BenchmarkId::NekRs).unwrap();
        b.iter(|| nekrs.run(&RunConfig::test(8)).unwrap().virtual_time_s);
    });
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
