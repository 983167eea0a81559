//! # jubench-kernels
//!
//! Shared numerical kernels used by the application proxies and synthetic
//! benchmarks: complex FFTs (the dominant kernel of Quantum ESPRESSO and
//! GROMACS-PME), dense linear algebra (GEMM and LU for the AI proxies and
//! HPL), Krylov solvers (Chroma, DynQCD, ParFlow, HPCG), geometric
//! multigrid, tridiagonal solvers (Arbor's cable equation), and
//! deterministic per-rank random streams.
//!
//! All kernels are implemented from scratch and validated against closed
//! forms or naive reference implementations in their unit tests.

#![forbid(unsafe_code)]

pub mod cg;
pub mod complex;
pub mod fft;
pub mod linalg;
pub mod multigrid;
pub mod rng;
pub mod tridiag;

pub use cg::{cg_solve, CgResult, LinOp};
pub use complex::C64;
pub use fft::{fft_1d, fft_3d, ifft_1d, ifft_3d};
pub use linalg::{gemm, lu_factor, lu_solve, Matrix};
pub use multigrid::poisson_vcycle;
pub use rng::{rank_rng, DetRng};
pub use tridiag::thomas_solve;
