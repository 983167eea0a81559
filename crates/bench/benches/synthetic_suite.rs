//! The seven synthetic benchmarks (§IV-B), run end to end and
//! micro-benchmarked — the measured counterpart of the paper's
//! hardware-feature tests.

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_core::{Benchmark, Fom, RunConfig};
use jubench_synthetic::{
    graph500::{bfs, kronecker_edges, Csr},
    hpcg::{hpcg_pcg, Stencil27},
    stream::stream_kernels,
    Graph500, Hpcg, Hpl, Ior, LinkTest, Osu, Stream,
};

fn regenerate_synthetic_results() {
    banner("Synthetic benchmark FOMs (regenerated)");
    let runs: Vec<(&str, Fom)> = vec![
        (
            "Graph500",
            Graph500 { scale: 10 }.run(&RunConfig::test(4)).unwrap().fom,
        ),
        ("HPCG", Hpcg { n: 12 }.run(&RunConfig::test(4)).unwrap().fom),
        ("HPL", Hpl { n: 64 }.run(&RunConfig::test(4)).unwrap().fom),
        (
            "IOR easy",
            Ior::easy().run(&RunConfig::test(65)).unwrap().fom,
        ),
        (
            "IOR hard",
            Ior::hard().run(&RunConfig::test(65)).unwrap().fom,
        ),
        ("LinkTest", LinkTest.run(&RunConfig::test(936)).unwrap().fom),
        ("OSU", Osu.run(&RunConfig::test(2)).unwrap().fom),
        (
            "STREAM",
            Stream { n: 500_000 }.run(&RunConfig::test(1)).unwrap().fom,
        ),
    ];
    for (name, fom) in runs {
        println!("  {name:<10} {:>14.4e} {}", fom.value(), fom.unit());
    }
    println!();
}

fn bench_synthetic(c: &mut Criterion) {
    regenerate_synthetic_results();
    let mut group = c.benchmark_group("synthetic");
    group.sample_size(10);

    // One BFS sweep scans the CSR adjacency once: 2¹²·16 edges, both
    // directions, 4-byte indices.
    group.bytes_per_iter(2 * (1 << 12) * 16 * 4);
    group.bench_function("graph500_bfs_scale12", |b| {
        let edges = kronecker_edges(12, 1);
        let csr = Csr::from_edges(1 << 12, &edges);
        b.iter(|| bfs(&csr, 0).1);
    });

    // One pass of the four kernels over 1M-element f64 arrays: copy and
    // scale move two arrays each, add and triad three — ten array
    // traversals, 80 MB. The three 8 MB allocations are inside the timing.
    group.bytes_per_iter(10 * 1_000_000 * 8);
    group.bench_function("stream_pass_1m", |b| {
        b.iter(|| stream_kernels(1_000_000, 1).unwrap().triad);
    });

    // The LU panel sweep reads and writes the 96×96 matrix.
    group.bytes_per_iter(2 * 96 * 96 * 8);
    group.bench_function("hpl_lu_96", |b| {
        b.iter(|| Hpl { n: 96 }.run(&RunConfig::test(1)).unwrap().fom.value());
    });

    // The PCG iteration is dominated by the 27-point SpMV over the 12³
    // grid: 27 reads plus one write per point.
    group.bytes_per_iter(28 * 12 * 12 * 12 * 8);
    group.bench_function("hpcg_pcg_n12", |b| {
        b.iter(|| Hpcg { n: 12 }.run(&RunConfig::test(1)).unwrap().fom.value());
    });

    // The shipped default. Per point and iteration the solver touches
    // 28 values in the SpMV, 2 × 28 in the two Gauss-Seidel sweeps and 16
    // in its dots and updates; one more smoother application precedes the
    // loop.
    let op = Stencil27 { n: 16 };
    let point_bytes = (op.len() * 8) as u64;
    let iters = hpcg_pcg(&op, &vec![1.0; op.len()], 1e-8, 200).0 as u64;
    group.bytes_per_iter((iters * (28 + 56 + 16) + 56) * point_bytes);
    group.bench_function("hpcg_pcg_n16", |b| {
        b.iter(|| {
            Hpcg::default()
                .run(&RunConfig::test(1))
                .unwrap()
                .fom
                .value()
        });
    });

    // The two kernels alone on 16³, scratch allocation included: 27 reads
    // and one write per point, once for the SpMV and once per sweep.
    let x: Vec<f64> = (0..op.len()).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut y = vec![0.0; op.len()];
    group.bytes_per_iter(28 * point_bytes);
    group.bench_function("stencil27_apply_16", |b| {
        b.iter(|| {
            op.apply(&x, &mut y);
            y[0]
        });
    });
    group.bytes_per_iter(2 * 28 * point_bytes);
    group.bench_function("stencil27_sgs_16", |b| {
        b.iter(|| {
            y.fill(0.0);
            op.sym_gauss_seidel(&mut y, &x);
            y[0]
        });
    });
}

criterion_group!(benches, bench_synthetic);
criterion_main!(benches);
