//! # jubench-synthetic
//!
//! The seven synthetic benchmarks of the suite (§IV-B), "selected to test
//! individual features of the hardware components, such as compute
//! performance, memory bandwidth, I/O throughput, and network design":
//!
//! | Benchmark | Feature | Implementation here |
//! |---|---|---|
//! | Graph500 | graph traversal | Kronecker (R-MAT) generator + level-synchronized BFS with parent-tree validation |
//! | HPCG | sparse LA | CG with a symmetric-Gauss-Seidel-smoothed operator on the 27-point stencil |
//! | HPL | dense LA | blocked LU with partial pivoting + residual check |
//! | IOR | filesystem | easy (16 MiB transfers, file-per-process) and hard (4 KiB shared-file) modes |
//! | LinkTest | network topology | bisection test on the modeled DragonFly+ topology |
//! | OSU | point-to-point | latency/bandwidth sweeps through the simulated MPI layer |
//! | STREAM | memory | copy/scale/add/triad kernels (CPU measured, GPU modeled) |

pub(crate) mod graph500;
pub(crate) mod hpcg;
pub mod hpl;
pub(crate) mod ior;
pub(crate) mod linktest;
pub(crate) mod osu;
pub mod stream;

pub use graph500::Graph500;
pub use hpcg::Hpcg;
pub use hpl::Hpl;
pub use ior::{Ior, IorMode};
pub use linktest::LinkTest;
pub use osu::Osu;
pub use stream::Stream;

use jubench_core::{RealTrack, VerificationOutcome};

/// The host rate `execute` reported under `name` — what a compute
/// synthetic's FOM is read off.
fn host_rate(track: &RealTrack, name: &str) -> f64 {
    let rate = track.metrics.iter().find(|(n, _)| n == name);
    rate.unwrap_or_else(|| panic!("a track without `{name}` is not this benchmark's"))
        .1
}

/// The track of a benchmark whose measurement *is* the target machine's
/// network (OSU, LinkTest): empty and passing — its `cost` verifies.
fn nothing_executed() -> RealTrack {
    RealTrack {
        verification: VerificationOutcome::Exact { checked_values: 0 },
        metrics: Vec::new(),
    }
}
