//! # jubench-core
//!
//! Core abstractions of the JUPITER Benchmark Suite reproduction: the
//! [`Benchmark`] trait, Figure-of-Merit ([`Fom`]) normalization, memory
//! variants ([`MemoryVariant`]), benchmark categories, the Berkeley-dwarf
//! taxonomy, per-benchmark metadata (the data behind Tables I and II of the
//! paper), verification outcomes, and the suite [`Registry`].
//!
//! The JUPITER Benchmark Suite (Herten et al., SC 2024) contains 23
//! benchmarks: 16 applications and 7 synthetic codes, grouped into *Base*,
//! *High-Scaling*, and *Synthetic* categories. This crate holds everything
//! that is common to all of them and independent of any particular machine
//! model or numerical kernel.

#![forbid(unsafe_code)]

pub mod benchmark;
pub mod checklist;
pub mod error;
pub mod fom;
pub mod hash;
pub mod meta;
pub mod registry;
pub mod variant;
pub mod verify;

pub use benchmark::{
    Benchmark, RealLayout, RealTrack, RealWorld, RunConfig, RunOutcome, WorkloadScale,
};
pub use checklist::{Checklist, ChecklistItem};
pub use error::SuiteError;
pub use fom::{Fom, TimeMetric};
pub use hash::{content_key128, fnv1a64, fnv1a64_with};
pub use meta::{suite_meta, BenchmarkId, BenchmarkMeta, Category, Domain, Dwarf, ExecutionTarget};
pub use registry::Registry;
pub use variant::MemoryVariant;
pub use verify::VerificationOutcome;
