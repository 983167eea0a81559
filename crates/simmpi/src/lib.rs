//! # jubench-simmpi
//!
//! A simulated message-passing runtime: the substitution for MPI on the
//! real machines. Ranks run as operating-system threads exchanging real
//! data, so distributed algorithms execute genuinely (halo exchanges move
//! actual ghost cells, the JUQCS state-vector swap moves actual
//! amplitudes). Point-to-point messages travel through channels; a
//! barrier, allreduce, allgather or alltoall is one rendezvous, where the
//! last rank to arrive replays the named algorithm message by message for
//! every rank — same values, clocks, trace events and counters as running
//! it over the channels, which a world with a fault plan still does. In
//! addition, every rank owns a **virtual clock**:
//!
//! - computation advances it by the roofline model's prediction for the
//!   declared work (see [`jubench_cluster::Roofline`]),
//! - every message advances it by the network model's prediction for the
//!   message size and the sender/receiver placement on the machine
//!   ([`jubench_cluster::NetModel`]), respecting causality (a receive
//!   cannot complete before the matching send was posted, in virtual time).
//!
//! The *virtual makespan* of a run — the maximum rank clock — is the
//! quantity the scaling studies (Figs. 2 and 3 of the paper) report. It is
//! independent of the host's wall-clock speed, which is what makes
//! scaling studies reproducible on a development machine.
//!
//! ## Fault injection
//!
//! A [`World`] optionally carries a [`jubench_faults::FaultPlan`]
//! ([`World::with_fault_plan`]): degraded and flapping links stretch
//! transfer times, slow-node faults stretch compute spans, message drops
//! turn receives into virtual-time timeouts ([`SimError::Timeout`]), and
//! rank crashes fail every operation past the scheduled instant
//! ([`SimError::RankCrashed`]). Dropped messages are delivered as
//! *tombstones*, so receivers never block in wall time. The resilient
//! pair [`Comm::send_f64_reliable`] / [`Comm::recv_f64_reliable`] retries
//! over drops with exponential backoff charged to the virtual clock. The
//! rendezvous knows its participants: a rank that is gone — it returned,
//! or it panicked — counts as arrived at every later barrier, so the ranks
//! it leaves behind synchronize to the maximum over those that did arrive,
//! and fails every collective it can no longer join with
//! [`SimError::PeerGone`], instead of blocking [`World::run`] forever.

#![forbid(unsafe_code)]

pub mod clock;
pub mod comm;
pub mod error;
mod partition;
pub(crate) mod rankmap;
mod rendezvous;
pub mod world;

pub use clock::ClockStats;
pub use comm::{Comm, ReduceOp};
pub use error::SimError;
pub use partition::{block_owner, block_range};
pub use rankmap::RankMap;
pub use world::{makespan, RankResult, World};
