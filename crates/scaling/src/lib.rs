//! # jubench-scaling
//!
//! The scaling-study harness and figure/table generators:
//!
//! - [`full_registry`]: every benchmark of the suite, wired up.
//! - [`strong`]: the Fig. 2 study — relative runtimes of the Base
//!   applications at 0.5/0.75/1/1.5/2 × the reference node count.
//! - [`weak`]: the Fig. 3 study — weak-scaling efficiency of the five
//!   High-Scaling applications over the Booster's node range, with the
//!   JUQCS computation/communication split.
//! - [`tables`]: text renderings of Table I (domains and dwarfs) and
//!   Table II (application features and execution targets).
//! - [`traffic`]: the trace-probed regime-breakdown study — how a
//!   growing job's bytes migrate from NVLink to the cell and global
//!   links.
//! - [`resilience`]: the straggler study — makespan inflation of an
//!   allreduce-coupled job as seeded fault plans slow a growing fraction
//!   of its nodes.
//! - [`campaign`]: the batch-scheduling study — the full suite as a
//!   campaign of jobs, swept over placement policy × machine size to
//!   show what cell-aware placement buys in makespan and wait times.
//! - [`ckpt`]: the checkpoint-interval study — a campaign under
//!   recurring node drains, swept over checkpoint interval × failure
//!   rate, with the Young/Daly optimal-interval predictions alongside
//!   the measured makespans.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod ckpt;
pub mod descriptions;
pub mod registry;
pub mod resilience;
pub mod strong;
pub mod tables;
pub mod traffic;
pub mod weak;

pub use ablations::{alltoall_algorithms, juqcs_comm_efficiency, overlap_ablation};
pub use campaign::{campaign_table, CampaignPoint, CampaignTable};
pub use ckpt::{ckpt_table, CkptPoint, CkptTable};
pub use descriptions::describe;
pub use registry::full_registry;
pub use resilience::{resilience_table, ResiliencePoint, ResilienceTable};
pub use strong::{strong_scaling_series, Fig2Point, Fig2Series};
pub use tables::{render_table1, render_table2};
pub use traffic::{traffic_table, TrafficPoint, TrafficTable};
pub use weak::{fig3_all_series, Fig3Series};
