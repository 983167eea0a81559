//! # jubench-sched — topology-aware batch scheduling and suite campaigns
//!
//! The layer between the machine model and the suite: how 23 benchmarks
//! actually get onto a DragonFly+ machine. The paper's reference numbers
//! were produced by campaigns of SLURM jobs on JUWELS Booster, where
//! node placement inside 48-node cells directly shaped the High-Scaling
//! results (§II-C, Figs. 2/3). This crate models that layer as a
//! deterministic, virtual-time batch scheduler plus a campaign runner.
//!
//! ## Model
//!
//! - [`Job`]: a node request with priority, submit time, and a cost
//!   model — ideal service time plus the communication fraction that
//!   placement can inflate.
//! - [`PlacementPolicy`]: `Contiguous` cell-packing vs `Scatter`
//!   round-robin. The choice feeds the netmodel congestion factor
//!   through [`Allocation::slowdown`], so placement measurably changes
//!   job runtimes and campaign makespans.
//! - [`Scheduler`]: FIFO or conservative backfill over a
//!   [`Machine`](jubench_cluster::Machine). Backfill reservations use
//!   worst-case runtimes, so a backfilled job can never delay a
//!   higher-priority reservation — the conservative guarantee holds by
//!   construction.
//! - Faults: a [`FaultPlan`](jubench_faults::FaultPlan) read at node
//!   granularity — `SlowNode` windows drain capacity, `RankCrash`
//!   removes nodes permanently; preempted jobs requeue under their
//!   [`RetryPolicy`](jubench_faults::RetryPolicy).
//! - [`Schedule`]: per-job wait/start/end records, the machine
//!   utilization timeline, campaign makespan, fairness stats, a
//!   bit-identical decision log, and Chrome-trace emission (one
//!   synthetic process per cell, one thread per job).
//!
//! ## Determinism
//!
//! Identical seed and job set produce a bit-identical [`Schedule::log`];
//! an empty fault plan produces a schedule identical to a fault-free
//! run — the same contract as `jubench-faults`.
//!
//! ## Campaigns
//!
//! [`registry_jobs`] derives one job per suite benchmark (cost from a
//! virtual-time probe run, priority from its category) and
//! [`run_campaign`] schedules the set; `jubench-scaling`'s `campaign`
//! study sweeps placement policy × machine size on top. Workflows submit
//! through [`submit_step`] instead of executing inline, mirroring how
//! JUBE hands jobs to SLURM.

#![forbid(unsafe_code)]

mod backfill;
pub mod campaign;
pub mod job;
pub mod placement;
mod schedule;
pub mod scheduler;
mod state;
pub mod submit;

pub use campaign::{category_priority, measured_job, registry_jobs, run_campaign};
pub use job::{CkptSpec, Job};
pub use placement::{Allocation, PlacementPolicy};
pub use scheduler::{
    Attempt, CampaignState, JobOutcome, JobRecord, QueuePolicy, Schedule, Scheduler,
    SchedulerConfig, UtilSegment,
};
pub use submit::{submit_step, SubmitQueue};
