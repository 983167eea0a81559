//! # jubench-apps-plasma
//!
//! Proxy for **PIConGPU** (§IV-A2e), the relativistic particle-in-cell
//! code. The proxy implements the PIC cycle the paper describes —
//! "particle initialization, charge calculations using grid interpolation,
//! field calculations using densities, and time-marching due to Lorentz
//! force. This approach allows particles to interact via fields on the
//! grid rather than direct pairwise interactions, reducing computational
//! steps from N² to N" — as an electrostatic PIC with cloud-in-cell
//! deposition/interpolation, an iterative grid field solve, leapfrog
//! pushing, and particle migration between domain-decomposed ranks
//! (substitution for the full electromagnetic FDTD solver: same data
//! paths, same communication structure).
//!
//! The benchmark case is the Kelvin-Helmholtz instability: a pre-ionized
//! plasma with periodic boundaries and two counter-streaming shear
//! regions, "the number of particles per cell is kept constant to 25",
//! grids (4096, 2048, 1024) (S), (4096, 2048, 2048) (M), and
//! (4096, 4096, 2560) (L), and a node limit of 640 from the 3D domain
//! decomposition.

pub mod bench;
pub(crate) mod pic;

pub use bench::PiconGpu;
pub use pic::Particle;
