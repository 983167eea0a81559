//! Micro-benchmarks of the shared numeric kernels — the measured
//! (non-virtual) performance substrate of the suite.
//!
//! GEMM, LU, CG and the 3-D FFT are timed by the repo benchmark alone
//! (`kernels.{gemm_128, lu_96, cg_64, fft3d_32}_us` in `benchmark/`), one
//! home per id.

use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_kernels::{poisson_vcycle, thomas_solve, Grid3};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    // The V-cycle smooths and computes residuals on every level of the
    // 16→8→4→2 hierarchy: Σn³ = 4680 points, each read and written once
    // per traversal.
    group.bytes_per_iter(2 * 4680 * 8);
    group.bench_function("multigrid_vcycle_16", |b| {
        let n = 16;
        let rhs = vec![1.0; n * n * n];
        b.iter(|| {
            let mut x = vec![0.0; n * n * n];
            poisson_vcycle(n, &mut x, &rhs);
            x[0]
        });
    });

    // One 24³ interior read through the 7-point stencil, one written
    // (ghost-layer padding excluded from the denomination).
    group.bytes_per_iter(2 * 24 * 24 * 24 * 8);
    group.bench_function("laplacian_grid3_24", |b| {
        let mut g = Grid3::from_fn(24, 24, 24, |i, j, k| (i + 2 * j + 3 * k) as f64);
        g.wrap_periodic();
        let mut out = Grid3::zeros(24, 24, 24);
        b.iter(|| {
            g.laplacian_into(&mut out);
            out.at(0, 0, 0)
        });
    });

    // Four 1024-element bands/rhs read, one solution vector written.
    group.bytes_per_iter(5 * 1024 * 8);
    group.bench_function("thomas_solve_1024", |b| {
        let n = 1024;
        let lower = vec![-1.0; n];
        let upper = vec![-1.0; n];
        let diag = vec![2.5; n];
        let rhs = vec![1.0; n];
        b.iter(|| thomas_solve(&lower, &diag, &upper, &rhs)[n / 2]);
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
