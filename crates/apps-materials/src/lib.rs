//! # jubench-apps-materials
//!
//! Proxy for **Quantum ESPRESSO** (§IV-A1e), the plane-wave
//! density-functional-theory code. "The dominant kernel in QE performs a
//! three-dimensional FFT, which is usually a memory-bound kernel and is
//! communication-bound for large systems."
//!
//! The proxy implements exactly that kernel for real: a **distributed 3D
//! FFT** with slab decomposition and an all-to-all transpose (the
//! communication structure of QE's parallel FFT), plus a plane-wave
//! electronic-structure minimizer (subspace gradient iteration with
//! Gram-Schmidt orthonormalization — the dense-linear-algebra/ELPA part)
//! whose eigenvalues are verified against the exactly known free-particle
//! spectrum. The benchmark workload is the Car-Parrinello MD case for a
//! ZrO₂ slab with 792 atoms from the MaX project.

#![forbid(unsafe_code)]

pub(crate) mod dist_fft;
pub(crate) mod planewave;
pub(crate) mod qe;

pub use qe::QuantumEspresso;
