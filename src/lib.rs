//! # jubench — a Rust reproduction of the JUPITER Benchmark Suite
//!
//! This crate is the facade over the workspace implementing
//! *"Application-Driven Exascale: The JUPITER Benchmark Suite"* (Herten et
//! al., SC 2024): the 23 benchmarks (16 applications + 7 synthetic codes),
//! the JUBE-like workflow engine, the machine/network model substituting
//! the JUWELS Booster preparation system, the simulated MPI runtime, and
//! the TCO/value-for-money procurement methodology.
//!
//! ## Quick start
//!
//! ```
//! use jubench::prelude::*;
//!
//! // Run the JUQCS Base benchmark (n = 36 qubits) on an 8-node partition
//! // of the modeled JUWELS Booster.
//! let registry = jubench::scaling::full_registry();
//! let juqcs = registry.get(BenchmarkId::Juqcs).unwrap();
//! let out = juqcs.run(&RunConfig::test(8)).unwrap();
//! assert!(out.verification.passed());
//! assert_eq!(out.metric("qubits"), Some(36.0));
//! ```
//!
//! ## Crate map
//!
//! - [`core`]: suite abstractions — [`prelude::Benchmark`], FOMs,
//!   categories, dwarfs, Tables I/II metadata.
//! - [`jube`]: the workflow engine (parameters, tags, steps, result
//!   tables).
//! - [`cluster`]: the machine, topology, network, and roofline models.
//! - [`simmpi`]: the simulated MPI runtime with virtual-time clocks.
//! - [`faults`]: deterministic fault injection — seeded fault plans
//!   (degraded/flapping links, stragglers, message drops, rank crashes)
//!   and the retry policies that make runs resilient to them.
//! - [`kernels`]: shared numerics (FFT, LU, CG, multigrid, stencils).
//! - `apps_*`: the sixteen application proxies.
//! - [`synthetic`]: the seven synthetic benchmarks.
//! - [`procurement`]: TCO, commitments, High-Scaling assessment.
//! - [`scaling`]: the Fig. 2 / Fig. 3 studies and table renderers.
//! - [`sched`]: the topology-aware batch scheduler and suite campaign
//!   runner — placement policies, conservative backfill, fault-driven
//!   preemption, utilization/fairness reporting.
//! - [`trace`]: virtual-time tracing — structured events from the
//!   runtime and workflow engine, run reports, Chrome trace export.
//! - [`pool`]: the deterministic work-stealing thread pool every sweep
//!   runs on — ordered `par_map_indexed`, structured `scope`, counted
//!   dedicated rank threads, and the `JUBENCH_POOL_THREADS` knob.
//! - [`ckpt`]: checkpoint/restart — the versioned, checksummed snapshot
//!   envelope, the `Checkpointable` trait implemented by the iterative
//!   apps, the workflow, and the scheduler, and the Young/Daly
//!   optimal-interval formulas.
//! - [`serve`]: the multi-tenant campaign service — a deterministic
//!   long-running daemon sharding campaigns across worker shards, with
//!   a content-addressed result cache in front of execution, a
//!   length-prefixed wire protocol, incremental result streaming, and
//!   crash-safe durability via `ckpt` snapshots (kill/restore and live
//!   migration are byte-transparent). Guarded by an admission gate
//!   (per-tenant quotas, typed rejections), a shard supervisor
//!   (restore-and-retry with seeded bounded backoff, typed-cancellation
//!   degrade), and a deterministic chaos harness (seeded crash points,
//!   stragglers, wire faults).
//! - [`metrics`]: wall-clock self-observability — the sharded metrics
//!   registry (counters/gauges/histograms), `profile_scope!` collapsed-
//!   stack self-profiles, and their Prometheus/JSON expositions.
//!   Observational only; the `JUBENCH_METRICS=0` kill switch disables
//!   recording at runtime. Speed is measured by the repo benchmark
//!   (`benchmark/`, `BENCHMARK.json`), not here.
//! - [`fleet`]: the heterogeneous machine catalog and the cross-backend
//!   fleet study — the full suite executed on every catalog backend via
//!   [`serve`], condensed into FOM/composite-score/value-for-money
//!   tables with 1 EFLOP/s sub-partition extrapolation.
//! - [`events`]: a deterministic timestamped event queue (total-order
//!   tie-breaking on `(time, class, rank, seq)`). No engine uses it:
//!   [`sched`] and [`simmpi`] read the next instant off their own
//!   state.

pub use jubench_apps_ai as apps_ai;
pub use jubench_apps_bio as apps_bio;
pub use jubench_apps_cfd as apps_cfd;
pub use jubench_apps_common as apps_common;
pub use jubench_apps_earth as apps_earth;
pub use jubench_apps_lattice as apps_lattice;
pub use jubench_apps_materials as apps_materials;
pub use jubench_apps_md as apps_md;
pub use jubench_apps_neuro as apps_neuro;
pub use jubench_apps_plasma as apps_plasma;
pub use jubench_apps_quantum as apps_quantum;
pub use jubench_ckpt as ckpt;
pub use jubench_cluster as cluster;
pub use jubench_continuous as continuous;
pub use jubench_core as core;
pub use jubench_events as events;
pub use jubench_faults as faults;
pub use jubench_fleet as fleet;
pub use jubench_jube as jube;
pub use jubench_kernels as kernels;
pub use jubench_metrics as metrics;
pub use jubench_metrics::profile_scope;
pub use jubench_pool as pool;
pub use jubench_procurement as procurement;
pub use jubench_scaling as scaling;
pub use jubench_sched as sched;
pub use jubench_serve as serve;
pub use jubench_simmpi as simmpi;
pub use jubench_synthetic as synthetic;
pub use jubench_trace as trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use jubench_ckpt::{Checkpointable, CkptError};
    pub use jubench_cluster::{Machine, NetModel, Placement, Roofline, Work};
    pub use jubench_core::{
        suite_meta, Benchmark, BenchmarkId, Category, Fom, MemoryVariant, Registry, RunConfig,
        RunOutcome, SuiteError, TimeMetric, VerificationOutcome,
    };
    pub use jubench_faults::{FaultPlan, RetryPolicy};
    pub use jubench_jube::{ParameterSet, ResultTable, Step, Workflow};
    pub use jubench_metrics::MetricsSnapshot;
    pub use jubench_procurement::{Commitment, Proposal, ReferenceSet, TcoModel};
    pub use jubench_scaling::full_registry;
    pub use jubench_sched::{Job, PlacementPolicy, QueuePolicy, Scheduler, SchedulerConfig};
    pub use jubench_serve::{
        AdmissionConfig, CampaignSpec, ChaosPlan, Rejection, RunPoint, ServeError, Server,
        SupervisorConfig,
    };
    pub use jubench_simmpi::{Comm, ReduceOp, World};
    pub use jubench_trace::{chrome_trace_json, Recorder, RunReport, TraceSink};
}
