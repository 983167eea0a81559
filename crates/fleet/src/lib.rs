//! # jubench-fleet — heterogeneous machine catalog + cross-backend campaigns
//!
//! The paper benchmarks one machine (JUWELS Booster) to procure one
//! successor (JUPITER). This crate generalizes that workflow to a
//! *fleet*: a declarative catalog of machine backends — different node
//! architectures, interconnect fabrics, power envelopes, and economics
//! (owned vs rented) — and a study runner that executes the full
//! benchmark registry on every backend through the same pool /
//! scheduler / serve machinery, then condenses the results into
//! procurement-grade tables:
//!
//! - per-benchmark FOMs normalized against a reference backend,
//! - a HEPScore-style composite score (weighted geometric mean),
//! - TCO-based value-for-money with energy-to-solution columns,
//! - the 1 EFLOP/s sub-partition extrapolation per backend.
//!
//! Everything is deterministic: the rendered report is byte-identical
//! across pool widths (`JUBENCH_POOL_THREADS`), shard counts, and warm
//! vs cold serve caches, because the study rides on the serve layer's
//! determinism contract and every backend keys its own cache entries
//! (the machine fingerprint covers topology and cost).
//!
//! Start with [`FleetStudy::standard`] and
//! [`catalog::standard_catalog`]; see `examples/fleet_study.rs` for the
//! end-to-end flow.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod study;

pub use catalog::{standard_catalog, MachineModel};
pub use study::{partition_tco_eur, BackendReport, BenchRun, FleetReport, FleetStudy};
