//! # jubench-apps-lattice
//!
//! Proxies for the two Lattice-QCD benchmarks of the suite:
//!
//! - **Chroma-QCD** (§IV-A2b, High-Scaling): Hybrid-Monte-Carlo update
//!   trajectories whose cost is dominated by "solving very large, regular,
//!   sparse linear systems" — here a genuinely distributed SU(3) lattice
//!   with a staggered-fermion Dirac operator (the substitution for the
//!   paper's 3+1-flavour Clover Wilson fermions: same sparsity structure,
//!   same SU(3) link algebra, same 4D halo communication, simpler spin
//!   structure), solved by CG on the normal equations with the paper's
//!   iteration-cap rule and residual verification (1e-10 Base / 1e-8
//!   High-Scaling).
//! - **DynQCD** (Base, CPU-only): the same operator and the same plain CG
//!   on its normal equations (no even/odd preconditioning), run one rank
//!   per node, generating quark propagators — "with high demands to the
//!   memory sub-system". Both solve through `kernels::cg`.
//!
//! The benchmark also reproduces the >2³¹-site concern: lattice volumes are
//! tracked in `u64` site indices, tested beyond 2³¹.

pub mod bench;
pub(crate) mod dirac;
pub mod hmc;
pub mod lattice;
pub(crate) mod su3;

pub use bench::{ChromaQcd, DynQcd};
pub use hmc::{GaugeField, HmcChain};
pub use lattice::LocalLattice;
pub use su3::{ColorVector, Su3};
