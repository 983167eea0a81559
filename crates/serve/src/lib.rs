//! # jubench-serve — the multi-tenant campaign service
//!
//! The suite as a *service*: a deterministic, long-running daemon that
//! accepts benchmark campaigns from multiple tenants, executes their
//! run points, schedules the resulting jobs on the modeled machine, and
//! streams results back incrementally — with a content-addressed result
//! store in front of execution so resubmitted campaigns re-execute only
//! what actually changed. This is the paper's continuous-benchmarking
//! posture (the JUPITER suite outliving its procurement and re-running
//! as the machine evolves) turned into a subsystem.
//!
//! ## Layers
//!
//! - [`wire`]: the length-prefixed frame protocol — `Submit` / `Drain`
//!   / `Stats` / `Bye` in, `Accepted` / `Row` / `JobDone` / `Done` /
//!   `StatsReply` out. Bodies use the checkpoint serializer, so wire
//!   bytes and snapshot bytes share one canonical encoding.
//! - [`transport`]: the socket-shaped byte-stream trait the protocol
//!   runs over. In-process today ([`DuplexPipe`]); a TCP stream can
//!   implement [`Transport`] without touching anything above it.
//! - [`cache`]: the bounded, deterministic, content-addressed
//!   [`ResultCache`]. Keys are 128-bit FNV-1a content addresses of
//!   (benchmark, parameter point, machine fingerprint, seed, fault
//!   plan); eviction is LRU by a logical clock. One per shard, part of
//!   its snapshot: the first cache level.
//! - `tracks`: the second level, one per [`Server`] and shared by its
//!   shards — the real execution of every benchmark, keyed by
//!   benchmark and [`RealLayout`](jubench_core::RealLayout), in which
//!   no machine appears: campaigns on different backends cost the same
//!   track. Asked only after a result-cache miss, never snapshotted,
//!   gone with its server; [`RealTrackStats`] tallies it.
//! - `pipeline`, `campaign`, [`shard`]: what a campaign is (point → row
//!   → jobs → schedule → artifacts, as pure functions), one campaign in
//!   flight (its unit, its bytes and their checks), and one worker shard
//!   — queue, cursor, cache; at every unit boundary a value to clone or
//!   move a campaign out of, and bytes only to leave the process: the
//!   whole-shard [`Checkpointable`](jubench_ckpt::Checkpointable) snapshot.
//! - [`server`]: shard routing (campaigns keyed to shards by machine
//!   fingerprint), the public drains, the session loop, and the
//!   [`Client`] helper.
//! - [`admission`]: the deterministic front gate — per-tenant active
//!   campaign quotas and a refund-on-retire point-token bucket. Denials
//!   are typed [`Rejection`]s carried on the wire, never panics.
//! - [`supervisor`]: the one drain driver behind every public drain —
//!   per shard, a clone at attempt start, roll-back-and-retry on a typed
//!   error or caught panic, seeded bounded backoff, and a
//!   typed-cancellation degrade path after the restart budget (its one
//!   knob) is exhausted; inline or on dedicated threads, one frame order.
//! - [`chaos`]: seeded fault plans (shard crashes at unit boundaries,
//!   stragglers) and wire faults (truncation, bit flips) for
//!   deterministic robustness testing.
//! - [`error`]: the crate-wide [`ServeError`] taxonomy.
//!
//! ## The determinism contract
//!
//! For a fixed request set, the per-campaign frame stream — and
//! therefore the result table and Chrome trace — is byte-identical
//! across: any shard count, every drain entry point (whose full
//! streams are equal frame for frame), any
//! kill-and-restore point, live migration mid-campaign, warm vs cold
//! caches — and any seeded chaos plan the supervisor recovers from. The
//! caches change *when* work happens, never *what* is produced; the
//! guard changes *how many attempts* work takes, never its outcome.
//! Their tallies surface only in the out-of-band
//! [`CacheStats`](jubench_trace::CacheStats) /
//! [`GuardStats`](jubench_trace::GuardStats) of the run report and the
//! `serve/*` metrics (Prometheus exposition via the `Stats` frame).
//! Work a fault sinks for good still ends deterministically: a typed,
//! quota-accounted [`Rejection`] or `Cancelled` frame — never a panic,
//! never a hang.

pub mod admission;
pub mod cache;
mod campaign;
pub mod chaos;
pub mod error;
mod pipeline;
pub mod server;
pub mod shard;
pub mod spec;
pub mod supervisor;
mod tracks;
pub mod transport;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionGate, RejectReason, Rejection, TenantUsage};
pub use cache::{PointResult, ResultCache};
pub use chaos::{ChaosPlan, FaultyTransport, WireFault};
pub use error::ServeError;
pub use server::{serve_session, Client, Server};
pub use shard::{Emit, ShardState, SHARD_KIND};
pub use spec::{CampaignSpec, RunPoint};
pub use supervisor::{DrainOutcome, SupervisorConfig};
pub use tracks::RealTrackStats;
pub use transport::{DuplexPipe, Transport, TransportError};
pub use wire::{read_frame, write_frame, CancelReason, Frame, WireError, MAX_FRAME_BYTES};
