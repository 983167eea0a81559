//! # jubench-apps-bio
//!
//! Proxies for the biology/soft-matter benchmarks:
//!
//! - **NAStJA** (§IV-A1f): the Cellular Potts Model tissue simulator —
//!   "relies on nearest neighbour interactions and is parallelized by
//!   dividing the overall workload into multiple sub-regions, called
//!   blocks [...] with boundaries being exchanged". The test case is
//!   adhesion-driven cell sorting; the paper's workload runs the first
//!   5050 Monte Carlo steps of a 720 × 720 × 1152 µm³ system with roughly
//!   600,000 cells. CPU-only: "an irregular memory access pattern at each
//!   iteration, which is not suitable for GPU execution".
//! - **SOMA** (prepared but not used): Monte Carlo for the "Single Chain
//!   in Mean Field" model of soft coarse-grained polymer chains — bead
//!   chains interacting only through grid-accumulated density fields.

pub(crate) mod nastja;
pub mod potts;
pub mod soma;

pub use nastja::Nastja;
pub use potts::PottsBlock;
pub use soma::Soma;
