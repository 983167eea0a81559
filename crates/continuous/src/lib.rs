//! # jubench-continuous
//!
//! Continuous Benchmarking — the paper's stated future work (§VI):
//!
//! > "Running the suite at regular intervals (e.g., after maintenances),
//! > we will ensure that the system does not see performance degradation
//! > over its lifetime or after updates."
//!
//! This crate provides the pieces: a durable [`BaselineStore`] of accepted
//! reference results, a [`Monitor`] that re-measures the suite and
//! compares against the baselines with per-benchmark tolerances, and a
//! [`RegressionReport`] that classifies each benchmark as OK, regressed,
//! improved, missing, or failed.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod monitor;

pub use baseline::BaselineStore;
pub use monitor::{CheckEntry, CheckStatus, MetricProvenance, Monitor, RegressionReport};
