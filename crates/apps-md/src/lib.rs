//! # jubench-apps-md
//!
//! Proxies for the molecular-dynamics benchmarks:
//!
//! - **GROMACS** (§IV-A1a): "integrates Newton's equations of motion for
//!   systems with hundreds to millions of particles". Two sub-benchmarks
//!   from the UEABS: test case A (GluCl ion channel, 3 reference nodes)
//!   and test case C (27 replicas of the STMV virus, ≈ 28,000,000 atoms,
//!   128 reference nodes, stressing "the scalability of system-supplied
//!   FFT libraries" through the PME long-range part).
//! - **Amber** (prepared but not used): the STMV case with 1,067,095
//!   atoms, "mainly optimized for single GPU calculations and not intended
//!   to scale beyond a single node".
//!
//! The engine is a real distributed Lennard-Jones MD code: cell-list
//! neighbour search, velocity-Verlet integration, slab domain
//! decomposition with ghost-particle exchange and migration; the PME
//! reciprocal-space part enters the performance model as the distributed
//! 3D-FFT transpose (all-to-all) it is on the real machine.

#![forbid(unsafe_code)]

pub mod bench;
pub mod md;

pub use bench::{Amber, Gromacs, GromacsCase};
pub use md::MdSystem;
