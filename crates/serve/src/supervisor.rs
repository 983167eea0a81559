//! The drain driver: one per-shard drive-and-supervise loop behind all
//! four public drains.
//!
//! [`Server::drain`], [`Server::drain_parallel`],
//! [`Server::drain_supervised`] and [`Server::drain_supervised_parallel`]
//! are one-expression wrappers over `Server::drive`, which is built
//! from three pieces:
//!
//! 1. `ShardState::drain` — the loop that steps a shard to idle,
//!    consulting the chaos plan at unit boundaries.
//! 2. `supervise` — one shard's attempt loop. With a restart policy,
//!    every attempt keeps a clone of the shard it starts from and runs
//!    under `catch_unwind`; a failed attempt — a chaos-injected crash or
//!    a genuine panic — is discarded **wholesale**, frames and state, by
//!    assigning the clone back, seeded bounded backoff is charged, and
//!    the attempt is retried. Without a policy (the unsupervised drains)
//!    no clone is kept and the first failure is the shard's result.
//! 3. The executor — shards in order on the calling thread, or one
//!    `run_dedicated` spawn with each shard's whole supervise loop on
//!    its own thread.
//!
//! Shards share no state, so every entry point emits the same thing:
//! each shard's stream, concatenated in shard order. A retry
//! regenerates the identical stream from the rolled-back shard, which
//! is why serial = parallel = supervised under any seeded chaos plan is
//! one full-stream byte-identity statement (run reports aside — they
//! carry the out-of-band guard tallies).
//!
//! The backoff is *virtual*: it is charged to the shard's
//! [`GuardStats`](jubench_trace::GuardStats) ledger, never slept, so a
//! chaos run is exactly as fast as a clean one. Its base, cap and
//! jitter seed are fixed; the one knob is the restart budget,
//! [`SupervisorConfig::max_restarts`].
//!
//! After `max_restarts` failed attempts the supervisor degrades rather
//! than loops: the last attempt is discarded like the others, every
//! campaign the shard held at drain start is cancelled with a typed
//! `ShardFailed` frame (`ShardState::give_up`), and the drain
//! completes with partial results, flagged in
//! [`DrainOutcome::failed_shards`].

use crate::chaos::{ChaosPlan, ChaosRuntime};
use crate::error::ServeError;
use crate::server::Server;
use crate::shard::{Emit, ShardState};
use crate::tracks::RealTracks;
use crate::wire::Frame;
use jubench_core::Registry;
use jubench_kernels::rank_rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Restart policy of a supervised drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Restarts allowed per shard per drain before giving up on it.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_restarts: 3 }
    }
}

/// First-restart backoff, virtual seconds (doubles per restart).
const BACKOFF_BASE_S: f64 = 1.0;
/// Ceiling on a single backoff, virtual seconds.
const BACKOFF_CAP_S: f64 = 32.0;
/// Seed of the backoff jitter.
const BACKOFF_SEED: u64 = 0x5EED;

/// Seeded bounded exponential backoff for restart `attempt` (1-based)
/// of `shard`: `base · 2^(attempt-1)`, jittered to 50–100 % and capped.
/// A pure function of `(shard, attempt)` — determinism of a supervised
/// drain includes its backoff ledger.
fn backoff_s(shard: u32, attempt: u32) -> f64 {
    let exp = BACKOFF_BASE_S * f64::from(1u32 << (attempt - 1).min(16));
    let jitter = rank_rng(BACKOFF_SEED ^ u64::from(attempt), shard).gen_f64();
    (exp * (0.5 + 0.5 * jitter)).min(BACKOFF_CAP_S)
}

/// What a supervised drain did, beyond the frames it produced.
#[derive(Debug, Default)]
pub struct DrainOutcome {
    /// The frames: each shard's stream, concatenated in shard order.
    pub emits: Vec<Emit>,
    /// Shard restarts performed across the drain.
    pub restarts: u64,
    /// Virtual seconds of backoff charged across those restarts.
    pub backoff_s: f64,
    /// Shards given up on (restart budget exhausted), with the error
    /// that exhausted it. Non-empty means the results are partial.
    pub failed_shards: Vec<(u32, ServeError)>,
    /// Campaigns that ended in a typed `Cancelled` frame (deadline or
    /// shard failure), in emission order.
    pub cancelled: Vec<u64>,
}

impl DrainOutcome {
    /// Did the drain degrade to partial results?
    pub fn degraded(&self) -> bool {
        !self.failed_shards.is_empty()
    }

    fn finish(mut self) -> Self {
        self.cancelled = self
            .emits
            .iter()
            .filter_map(|e| match e.frame {
                Frame::Cancelled { campaign, .. } => Some(campaign),
                _ => None,
            })
            .collect();
        self
    }
}

/// Where the per-shard supervise loops run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Executor {
    /// Shards in order on the calling thread.
    Inline,
    /// Every shard on its own dedicated `jubench-pool` rank thread.
    Dedicated,
}

/// What driving one shard to idle produced.
#[derive(Default)]
struct ShardRun {
    emits: Vec<Emit>,
    restarts: u32,
    backoff_s: f64,
    /// The error that exhausted the restart budget, if one did.
    gave_up: Option<ServeError>,
}

/// The typed form of a caught panic of `shard`'s worker (string
/// payloads pass through; others get a placeholder).
fn shard_panicked(shard: u32, panic: Box<dyn std::any::Any + Send>) -> ServeError {
    let message = if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    ServeError::ShardPanicked { shard, message }
}

/// Drive one shard to idle. With a restart policy (`cfg`), a failed
/// attempt is rolled back to the shard's clone from its start and
/// retried until the budget runs out, then given up on; without one,
/// the first failure is returned and the shard keeps what it reached.
fn supervise(
    shard: &mut ShardState,
    registry: &Registry,
    cfg: Option<&SupervisorConfig>,
    chaos: Option<&ChaosRuntime<'_>>,
    tracks: &RealTracks,
) -> Result<ShardRun, ServeError> {
    let id = shard.id();
    let mut run = ShardRun::default();
    while !shard.idle() {
        let policy = cfg.map(|cfg| (cfg, shard.clone()));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            shard.drain(registry, chaos, Some(tracks))
        }))
        .unwrap_or_else(|panic| Err(shard_panicked(id, panic)));
        let err = match attempt {
            Ok(emits) => {
                run.emits = emits;
                continue;
            }
            Err(err) => err,
        };
        let Some((cfg, start)) = policy else {
            return Err(err);
        };
        // Roll back to the attempt's start either way — its partial
        // progress (and frames) must not leak into the retry or the
        // give-up.
        *shard = start;
        if run.restarts == cfg.max_restarts {
            run.emits = shard.give_up(run.restarts);
            run.gave_up = Some(err);
        } else {
            run.restarts += 1;
            let b = backoff_s(id, run.restarts);
            shard.note_restart(b);
            run.backoff_s += b;
        }
    }
    Ok(run)
}

impl Server {
    /// The one drain: drive every shard to idle on `executor` and
    /// concatenate the per-shard streams in shard order.
    /// `supervision` is the restart policy and optional chaos plan;
    /// `None` is the unsupervised case, where every shard is still
    /// driven and keeps its state, and the first shard failure (in
    /// shard order) is then returned as `Err`.
    pub(crate) fn drive(
        &mut self,
        registry: &Registry,
        executor: Executor,
        supervision: Option<(&SupervisorConfig, Option<&ChaosPlan>)>,
    ) -> Result<DrainOutcome, ServeError> {
        let cfg = supervision.map(|(cfg, _)| cfg);
        let chaos = supervision
            .and_then(|(_, plan)| plan)
            .map(ChaosRuntime::new);
        let tracks = &self.real_tracks;
        let one = |shard: &mut ShardState| supervise(shard, registry, cfg, chaos.as_ref(), tracks);
        let runs: Vec<Result<ShardRun, ServeError>> = match executor {
            Executor::Inline => self.shards.iter_mut().map(one).collect(),
            Executor::Dedicated => {
                let lent: Vec<Mutex<&mut ShardState>> =
                    self.shards.iter_mut().map(Mutex::new).collect();
                jubench_pool::run_dedicated(lent.len() as u32, |i| {
                    one(&mut lent[i as usize].lock().unwrap_or_else(|p| p.into_inner()))
                })
                .into_iter()
                .enumerate()
                .map(|(i, joined)| joined.unwrap_or_else(|p| Err(shard_panicked(i as u32, p))))
                .collect()
            }
        };
        // Retire from every run that is kept, before a failed shard's
        // error discards them all. That shard's own frames went with its
        // attempt, so whatever left its queue is gone without one.
        for (shard, run) in runs.iter().enumerate() {
            match run {
                Ok(run) => self.retire(&run.emits),
                Err(_) => self.retire_lost(shard as u32),
            }
        }
        let mut outcome = DrainOutcome::default();
        for (i, run) in runs.into_iter().enumerate() {
            let run = run?;
            outcome.emits.extend(run.emits);
            outcome.restarts += u64::from(run.restarts);
            outcome.backoff_s += run.backoff_s;
            outcome
                .failed_shards
                .extend(run.gave_up.map(|err| (i as u32, err)));
        }
        Ok(outcome.finish())
    }

    /// [`Server::drain`] under supervision: shard failures are
    /// rolled back and retried within `cfg`'s budget, `chaos` injects
    /// seeded ones. Fault-free, the frames equal the unsupervised
    /// drain's; past the budget a shard's campaigns are cancelled and
    /// the drain degrades to partial results.
    pub fn drain_supervised(
        &mut self,
        registry: &Registry,
        cfg: &SupervisorConfig,
        chaos: Option<&ChaosPlan>,
    ) -> Result<DrainOutcome, ServeError> {
        self.drive(registry, Executor::Inline, Some((cfg, chaos)))
    }

    /// [`Server::drain_supervised`] with every shard's supervise loop
    /// on its own dedicated pool thread; same frames, same outcome.
    pub fn drain_supervised_parallel(
        &mut self,
        registry: &Registry,
        cfg: &SupervisorConfig,
        chaos: Option<&ChaosPlan>,
    ) -> Result<DrainOutcome, ServeError> {
        self.drive(registry, Executor::Dedicated, Some((cfg, chaos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CampaignSpec, RunPoint};
    use jubench_core::{
        Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RealWorld, RunConfig,
        RunOutcome, SuiteError,
    };

    /// STREAM with a bug: every execution panics (on any node count).
    struct BrokenStream;

    impl Benchmark for BrokenStream {
        fn meta(&self) -> BenchmarkMeta {
            BenchmarkId::Stream.meta()
        }
        fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
            Ok(RealLayout::new(cfg, RealWorld::Serial))
        }
        fn execute(&self, _: &RealLayout) -> Result<RealTrack, SuiteError> {
            panic!("STREAM blew up");
        }
        fn cost(&self, _: &RunConfig, _: &RealTrack) -> RunOutcome {
            unreachable!("no execution returns a track to cost")
        }
    }

    /// An unsupervised drain loses a failed shard's frames, terminal
    /// ones included — but not the quota of the campaigns that finished
    /// before the failure: what left the shard's queue is refunded, what
    /// is still queued stays charged.
    #[test]
    fn a_failed_unsupervised_drain_refunds_what_left_the_queue() {
        let mut registry = jubench_scaling::full_registry();
        registry.register(Box::new(BrokenStream));
        let mut server = Server::new(1, 16);
        // One unit each, round-robin: `quick` is done by the time
        // `doomed` reaches its STREAM point.
        let quick = CampaignSpec::new("quick", "q", 8, 1).with_point(RunPoint::test("OSU", 2, 1));
        let doomed = CampaignSpec::new("doomed", "d", 8, 2)
            .with_point(RunPoint::test("OSU", 2, 2))
            .with_point(RunPoint::test("OSU", 2, 3))
            .with_point(RunPoint::test("STREAM", 2, 4));
        let (quick_id, _) = server.submit(1, quick, &registry).unwrap();
        let (doomed_id, _) = server.submit(1, doomed, &registry).unwrap();
        assert!(matches!(
            server.drain(&registry),
            Err(ServeError::ShardPanicked { shard: 0, .. })
        ));
        assert_eq!(server.shard(0).active(), [doomed_id], "`quick` finished");
        assert_eq!(server.admission().usage("quick").active, 0, "refunded");
        assert_eq!(server.admission().usage("doomed").active, 1, "still live");
        assert_eq!(server.migrate(quick_id, 0), Ok(false), "route gone");
    }

    #[test]
    fn backoff_is_seeded_bounded_and_grows() {
        let b1 = backoff_s(0, 1);
        let b2 = backoff_s(0, 2);
        let b3 = backoff_s(0, 3);
        assert_eq!(b1, backoff_s(0, 1), "pure function");
        assert_ne!(b1, backoff_s(1, 1), "per-shard jitter");
        assert!((0.5..=1.0).contains(&b1), "first restart near base: {b1}");
        assert!(b2 > b1 && b3 > b2, "exponential growth: {b1} {b2} {b3}");
        for attempt in 1..40 {
            assert!(backoff_s(3, attempt) <= BACKOFF_CAP_S);
        }
        // The ledger a supervised drain charges is pinned bit for bit:
        // base, cap and jitter seed all show in these four values.
        let bits = [1, 2, 3, 7].map(|attempt| backoff_s(0, attempt).to_bits());
        assert_eq!(
            bits,
            [
                0x3fef_9d1a_1b0c_14b6,
                0x3fff_94e8_66c8_b042,
                0x4000_d64e_88a7_37d1,
                0x4040_0000_0000_0000,
            ]
        );
    }
}
