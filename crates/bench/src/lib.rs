//! # jubench-bench
//!
//! The benchmark harness crate: one bench target per table and figure of
//! the paper (see DESIGN.md §5 for the experiment index), plus
//! micro-benchmarks of the application and multigrid/stencil kernels.
//! Workloads the repo benchmark (`benchmark/`) already times per layer —
//! GEMM, LU, CG, the 3-D FFT, the event queue, the sparse scheduler
//! campaign — are timed there only, so every perf id has one home.
//!
//! Each figure/table bench *prints the regenerated rows or series once*
//! (the reproduction artifact) and then times the generating computation
//! so regressions in the models and kernels are visible in CI.
//!
//! The timing harness ([`harness`]) is a small in-repo replacement for the
//! subset of the Criterion API the bench targets use — the suite carries
//! no external dependencies so it builds in offline containers.
//!
//! Besides its printed summary, every benchmark emits a structured
//! `PerfRecord` (median/p10/p90, sample count, bytes-per-iteration when
//! declared). Set `JUBENCH_BENCH_JSON=<file>` to append records as JSON
//! lines, then fold them into the `BENCH_<n>.json` baseline with the
//! `bench` binary (`bench merge`), and gate a new run against a
//! committed baseline with `bench compare` — see `jubench_metrics`.

pub mod harness;

/// Print a banner separating the regenerated artifact from the harness's
/// timing output.
pub fn banner(title: &str) {
    println!("\n================================================================");
    println!("  {title}");
    println!("================================================================\n");
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_prints() {
        super::banner("test");
    }
}
