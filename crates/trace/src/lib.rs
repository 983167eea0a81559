//! # jubench-trace — virtual-time tracing for the simulated runtime
//!
//! The observability layer of the suite: structured events stamped with
//! virtual time, collected from the simulated MPI runtime
//! (`jubench-simmpi`) and the JUBE-like workflow engine
//! (`jubench-jube`), then aggregated into run reports and exported as
//! Chrome trace-event JSON.
//!
//! ## Model
//!
//! - [`TraceEvent`]: one span `[t_start, t_end]` on a `(node, rank)`
//!   lane — a compute span, a p2p send/recv (with payload size, peer,
//!   tag, topology [`Regime`], degraded-link flag), a collective (with
//!   algorithm name), or a JUBE step-lifecycle phase.
//! - [`TraceSink`]: the consumer interface components record into.
//!   Instrumentation is opt-in — without a sink installed the hooks are
//!   no-ops and allocation-free.
//! - [`Recorder`]: the standard in-memory sink. Per-rank sequence
//!   numbers plus a `(rank, seq)` sort make the drained stream — and
//!   everything derived from it — deterministic for a deterministic
//!   workload, regardless of OS-thread interleaving.
//!
//! ## Derived products
//!
//! - [`RunReport`]: where virtual time goes. Per-rank compute/comm
//!   split, traffic bucketed by topology regime (intra-node,
//!   intra-cell, inter-cell, …), per-operation histograms,
//!   critical-path attribution of the makespan, and — when faults were
//!   injected — a [`FaultStats`] tally plus
//!   [`RunReport::makespan_inflation`] against a fault-free baseline.
//! - [`chrome_trace_json`]: a `chrome://tracing` / Perfetto-loadable
//!   timeline — nodes become processes, ranks become threads. Batch
//!   scheduler campaigns (`jubench-sched`) add one synthetic process
//!   per DragonFly+ cell ([`SCHED_CELL_TRACK_BASE`]) with one thread
//!   per job, carrying [`SchedPhase`] wait/run/preempt/finish spans and
//!   — for checkpointing jobs — [`CkptPhase`] write spans and restore
//!   markers, tallied into [`CkptStats`] (checkpoint overhead and
//!   lost-work attribution).
//!
//! ## Accounting identity
//!
//! Summing [`TraceEvent::comm_seconds`] and
//! [`TraceEvent::compute_seconds`] over one rank's events reproduces
//! that rank's `ClockStats` exactly: sends carry their transfer time,
//! receives their causality wait plus transfer, barriers their
//! synchronization wait, and algorithmic collectives — whose wire time
//! is carried by the p2p events they wrap — contribute zero directly.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod report;
pub mod sink;

pub use chrome::chrome_trace_json;
pub use event::{
    CkptPhase, CollectiveKind, EventKind, Regime, SchedPhase, StepPhase, TraceEvent,
    SCHED_CELL_TRACK_BASE, WORKFLOW_NODE,
};
pub use report::{
    CacheStats, CkptStats, FaultStats, GuardStats, MakespanAttribution, OpStats, RankBreakdown,
    RegimeBucket, RunReport, SchedStats,
};
pub use sink::{Recorder, TraceSink};
