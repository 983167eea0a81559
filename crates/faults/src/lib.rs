//! # jubench-faults — deterministic fault injection for the simulated runtime
//!
//! An exascale machine where degraded cables, straggler nodes, and failed
//! ranks are a fact of life needs benchmarks whose behaviour under those
//! faults is *predictable*: a faulted run must cost what its faults
//! explain, and an empty plan nothing at all. This crate provides the
//! vocabulary:
//!
//! - [`FaultPlan`]: a seeded, declarative schedule of faults in **virtual
//!   time** — multi-link degradation, flapping links, per-node slowdown
//!   (stragglers / thermal throttle), probabilistic message drop, and
//!   rank crashes at a fixed virtual time. Every stochastic draw comes
//!   from a [`DetRng`] stream derived from the plan seed, so identical
//!   seeds reproduce identical runs bit for bit.
//! - [`RetryPolicy`]: bounded retry with exponential backoff, shared by
//!   the simulated MPI layer (`jubench-simmpi`, where backoff is charged
//!   to the virtual clock) and the workflow engine (`jubench-jube`,
//!   where step retries are recorded in result tables).
//!
//! The plan itself is pure data: it never touches a clock or a channel.
//! The runtime (`World` / `Comm`) queries it at operation boundaries —
//! [`FaultPlan::link_factor`], [`FaultPlan::compute_factor`],
//! [`FaultPlan::drop_probability`], [`FaultPlan::crash_time`] — and an
//! **empty plan answers every query with the identity**, so the
//! zero-fault path is exactly the unfaulted runtime (a property test in
//! the workspace pins this: bit-identical per-rank clocks).

#![forbid(unsafe_code)]

pub mod plan;
pub mod retry;

pub use jubench_kernels::rng::{rank_rng, DetRng};
pub use plan::{Fault, FaultPlan};
pub use retry::{OnExhaustion, RetryPolicy};
