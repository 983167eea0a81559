//! # jubench-apps-cfd
//!
//! Proxy for **nekRS** (§IV-A2d), the GPU spectral-element Navier-Stokes
//! solver. The proxy implements nekRS's computational core for real:
//!
//! - high-order spectral elements on Gauss-Lobatto-Legendre (GLL) nodes,
//!   with "the solution, data, and test functions represented as locally
//!   structured N-th-order tensor product polynomials",
//! - tensor-product **sum factorization**, whose "leading order O(nN) work
//!   terms can be cast as small dense matrix-matrix products",
//! - matrix-free elliptic solves by CG with direct-stiffness
//!   (gather-scatter) summation across element boundaries — distributed
//!   over ranks with slab decomposition (substitution for nekRS's general
//!   unstructured partition: same kernels, simplified connectivity),
//! - verification by comparing key metrics of the computed solution to a
//!   known model (spectral convergence on a manufactured solution).
//!
//! The benchmark workload mirrors the Rayleigh-Bénard *sheet* case:
//! polynomial order 9, 600 time steps, Base 719,104 elements (22,472 per
//! GPU), High-Scaling small/large with ~11,229 / ~22,492 elements per GPU,
//! and the 7000–8000 elements-per-GPU strong-scaling limit.

pub mod bench;
pub mod perf_model;
pub(crate) mod sem;
pub mod solver;

pub use bench::NekRs;
pub use perf_model::{predict_run, SettlingFit, StepProfile};
pub use sem::DiffMatrix;
