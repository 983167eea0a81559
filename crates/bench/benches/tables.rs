//! Regenerates **Table I** (benchmarks → domains and Berkeley dwarfs) and
//! **Table II** (application features and execution targets).
//!
//! Run with: `cargo bench -p jubench-bench --bench tables`

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_scaling::{render_table1, render_table2};

fn regenerate_tables() {
    banner("Table I — domains and Berkeley dwarfs (regenerated)");
    println!("{}", render_table1());
    banner("Table II — application features and execution targets (regenerated)");
    println!("{}", render_table2());
}

fn bench_tables(c: &mut Criterion) {
    regenerate_tables();
    let mut group = c.benchmark_group("tables");
    group.bench_function("render_table1", |b| b.iter(|| render_table1().len()));
    group.bench_function("render_table2", |b| b.iter(|| render_table2().len()));
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
