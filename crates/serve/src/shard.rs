//! One scheduler shard: what a shard decides.
//!
//! A shard owns a [`ResultCache`], a FIFO of campaigns in flight
//! (`campaign.rs`) and a round-robin cursor over it. One
//! [`ShardState::step`] advances the campaign under the cursor by one
//! *unit* — one run point, or one scheduler instant with the silent
//! slices before it — then moves the cursor on, or removes the campaign
//! once its terminal frame went out. Every
//! unit boundary is a safe point: there the shard can be cloned (the
//! supervisor's rollback) and a campaign moved by value to another
//! shard (`Server::migrate`). Bytes are only for leaving the process:
//! the shard is [`Checkpointable`], and a snapshot that does not decode
//! to consistent campaigns is refused as the [`CkptError`] `restore`
//! returns, the shard left as it was.
//!
//! Determinism contract: the frames a shard emits for one campaign are
//! a pure function of the campaign spec (plus the registry contents) —
//! the function `pipeline.rs` writes down. The cache changes *whether*
//! a point executes, never what its row says; kill-and-restore at any
//! unit boundary resumes the exact frame stream; migration moves the
//! stream mid-flight to another shard.

use crate::cache::ResultCache;
use crate::campaign::ActiveCampaign;
use crate::chaos::ChaosRuntime;
use crate::error::ServeError;
use crate::spec::CampaignSpec;
use crate::tracks::RealTracks;
use crate::wire::{CancelReason, Frame};
use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_core::Registry;
use jubench_trace::GuardStats;

/// Envelope kind of a shard snapshot.
pub const SHARD_KIND: &str = "jubench-serve/shard";

/// A frame addressed to the client that submitted the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Emit {
    /// Client (session) the frame belongs to.
    pub client: u64,
    /// The frame.
    pub frame: Frame,
}

/// One worker shard of the campaign service.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    id: u32,
    cache: ResultCache,
    queue: Vec<ActiveCampaign>,
    /// Round-robin cursor over `queue`.
    rr: usize,
    /// Guard-layer tallies (restarts, deadline cancels, giveups) —
    /// observability, attached out-of-band to finished campaigns'
    /// reports; never part of any deterministic artifact.
    guard: GuardStats,
}

impl ShardState {
    /// An idle shard with a result cache bounded at `cache_capacity`.
    pub fn new(id: u32, cache_capacity: usize) -> Self {
        ShardState {
            id,
            cache: ResultCache::new(cache_capacity),
            queue: Vec::new(),
            rr: 0,
            guard: GuardStats::default(),
        }
    }

    /// Shard id (stable across snapshot/restore).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The shard's guard tallies so far (restarts, deadline cancels,
    /// giveups).
    pub fn guard(&self) -> GuardStats {
        self.guard
    }

    /// Record one supervised restart: the shard was rolled back to its
    /// state at attempt start after a worker failure, charging
    /// `backoff_s` virtual seconds of seeded backoff.
    pub(crate) fn note_restart(&mut self, backoff_s: f64) {
        self.guard.restarts += 1;
        self.guard.backoff_s += backoff_s;
        jubench_metrics::counter_add("serve/restarts", 1);
    }

    /// The supervisor gave up on this shard: cancel every queued
    /// campaign with a typed `ShardFailed` frame — the
    /// degrade-to-partial-results path.
    pub(crate) fn give_up(&mut self, restarts: u32) -> Vec<Emit> {
        self.guard.giveups += 1;
        jubench_metrics::counter_add("serve/giveups", 1);
        // Back to front, so no removal shifts the rest.
        let mut out: Vec<Emit> = (0..self.queue.len())
            .rev()
            .map(|idx| {
                let camp = self.remove(idx);
                jubench_metrics::counter_add("serve/campaigns_cancelled", 1);
                Emit {
                    client: camp.client,
                    frame: Frame::Cancelled {
                        campaign: camp.id,
                        reason: CancelReason::ShardFailed { restarts },
                    },
                }
            })
            .collect();
        out.reverse();
        out
    }

    /// Ids of the campaigns still in flight, in queue order.
    pub fn active(&self) -> Vec<u64> {
        self.queue.iter().map(|c| c.id).collect()
    }

    /// Whether the shard has nothing left to do.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueue a campaign. The spec must already be validated against
    /// the registry (the server does this before routing); `id` is the
    /// service-assigned campaign id, `client` the submitting session.
    pub fn submit(&mut self, id: u64, client: u64, spec: CampaignSpec) {
        jubench_metrics::counter_add("serve/campaigns_submitted", 1);
        self.queue.push(ActiveCampaign::new(id, client, spec));
    }

    /// Take campaign `idx` out of the queue, keeping the cursor on the
    /// campaign it would have served next (the one after `idx`, if it
    /// pointed at `idx`).
    fn remove(&mut self, idx: usize) -> ActiveCampaign {
        if idx < self.rr {
            self.rr -= 1;
        }
        let camp = self.queue.remove(idx);
        self.rr = match self.queue.len() {
            0 => 0,
            len => self.rr % len,
        };
        camp
    }

    /// Advance one campaign by one unit (round-robin) and return the
    /// frames produced — none only from a scheduling unit whose instants
    /// finished no job.
    pub fn step(&mut self, registry: &Registry) -> Vec<Emit> {
        self.step_sharing(registry, None)
    }

    /// [`Self::step`] for a shard of a server: a point that misses the
    /// cache may find its real track in the server's `tracks`.
    pub(crate) fn step_sharing(
        &mut self,
        registry: &Registry,
        tracks: Option<&RealTracks>,
    ) -> Vec<Emit> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        self.rr %= self.queue.len();
        let camp = &mut self.queue[self.rr];
        let client = camp.client;
        let (frames, retired) = camp.unit(&mut self.cache, tracks, registry, &mut self.guard);
        if retired {
            // A campaign's one terminal frame is the last of its last unit.
            let counter = match frames.last() {
                Some(Frame::Done { .. }) => "serve/campaigns_done",
                _ => "serve/campaigns_cancelled",
            };
            jubench_metrics::counter_add(counter, 1);
            self.remove(self.rr);
        } else {
            self.rr = (self.rr + 1) % self.queue.len();
        }
        frames
            .into_iter()
            .map(|frame| Emit { client, frame })
            .collect()
    }

    /// Drive the shard until every campaign is done, collecting all
    /// emitted frames — the only loop in the crate that steps a shard to
    /// idle. `chaos` is consulted at every unit boundary: a scheduled
    /// crash ends the attempt with a typed
    /// [`ServeError::ShardPanicked`] (the same failure a caught worker
    /// panic becomes), a straggler yields its timeslice. The unit index
    /// counts from zero on every call, so a re-driven shard passes the
    /// same boundaries again. `tracks` as for [`Self::step_sharing`].
    pub(crate) fn drain(
        &mut self,
        registry: &Registry,
        chaos: Option<&ChaosRuntime<'_>>,
        tracks: Option<&RealTracks>,
    ) -> Result<Vec<Emit>, ServeError> {
        let mut out = Vec::new();
        let mut unit = 0u64;
        while !self.idle() {
            if let Some(rt) = chaos {
                if rt.crash_due(self.id, unit) {
                    return Err(ServeError::ShardPanicked {
                        shard: self.id,
                        message: format!("chaos: injected crash at unit {unit}"),
                    });
                }
                if rt.straggles(self.id) {
                    std::thread::yield_now();
                }
            }
            out.extend(self.step_sharing(registry, tracks));
            unit += 1;
        }
        Ok(out)
    }

    /// Take in-flight campaign `id` out of this shard, to be queued on
    /// another — live migration.
    pub(crate) fn take_campaign(&mut self, id: u64) -> Option<ActiveCampaign> {
        let idx = self.queue.iter().position(|c| c.id == id)?;
        jubench_metrics::counter_add("serve/campaigns_migrated", 1);
        Some(self.remove(idx))
    }

    /// Queue a campaign taken from another shard.
    pub(crate) fn queue_campaign(&mut self, camp: ActiveCampaign) {
        self.queue.push(camp);
    }
}

impl Checkpointable for ShardState {
    fn kind(&self) -> &'static str {
        SHARD_KIND
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u32(self.id);
        self.cache.put(&mut w);
        w.put_u64(self.guard.restarts);
        w.put_f64(self.guard.backoff_s);
        w.put_u64(self.guard.deadline_cancels);
        w.put_u64(self.guard.giveups);
        w.put_usize(self.rr);
        w.put_seq(&self.queue, |w, camp| camp.put(w));
        seal(SHARD_KIND, &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open(SHARD_KIND, bytes)?;
        let mut r = SnapshotReader::new(&payload);
        // Fields are read in the order they are written here.
        let restored = ShardState {
            id: r.get_u32("shard id")?,
            cache: ResultCache::get(&mut r)?,
            guard: GuardStats {
                restarts: r.get_u64("shard guard restarts")?,
                backoff_s: r.get_f64("shard guard backoff")?,
                deadline_cancels: r.get_u64("shard guard deadline cancels")?,
                giveups: r.get_u64("shard guard giveups")?,
            },
            rr: r.get_usize("shard rr cursor")?,
            queue: r.get_seq("shard campaign count", ActiveCampaign::get)?,
        };
        r.expect_end()?;
        *self = restored;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunPoint;
    use std::sync::Arc;

    fn tiny_spec(tenant: &str, name: &str, seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::new(tenant, name, 8, seed)
            .with_point(RunPoint::test("STREAM", 2, 1))
            .with_point(RunPoint::test("OSU", 2, 2));
        // The schedule ends just past 1 s (the second job's submit
        // time): five slices per campaign, two of them silent.
        spec.slice_s = 0.25;
        spec
    }

    fn registry() -> Registry {
        jubench_scaling::full_registry()
    }

    #[test]
    fn drain_emits_rows_jobdones_and_done_per_campaign() {
        let registry = registry();
        let mut shard = ShardState::new(0, 64);
        shard.submit(1, 10, tiny_spec("a", "c1", 1));
        let emits = shard.drain(&registry, None, None).unwrap();
        assert!(shard.idle());
        let rows = emits
            .iter()
            .filter(|e| matches!(e.frame, Frame::Row { .. }))
            .count();
        let job_dones = emits
            .iter()
            .filter(|e| matches!(e.frame, Frame::JobDone { .. }))
            .count();
        let dones = emits
            .iter()
            .filter(|e| matches!(e.frame, Frame::Done { .. }))
            .count();
        assert_eq!(rows, 2);
        assert_eq!(job_dones, 2);
        assert_eq!(dones, 1);
        assert!(emits.iter().all(|e| e.client == 10));
    }

    /// Shard 0 holding `specs` as campaigns 1, 2, … of client 10.
    fn shard_with(specs: &[CampaignSpec]) -> ShardState {
        let mut shard = ShardState::new(0, 64);
        for (i, spec) in specs.iter().enumerate() {
            shard.submit(i as u64 + 1, 10, spec.clone());
        }
        shard
    }

    /// Units `shard_with(specs)` takes to go idle.
    fn count_units(registry: &Registry, specs: &[CampaignSpec]) -> usize {
        let mut shard = shard_with(specs);
        let mut units = 0;
        while !shard.idle() {
            shard.step(registry);
            units += 1;
        }
        units
    }

    /// Pinned: `tiny_spec` takes a unit per point and one per slice
    /// that holds an instant — the walk over every 0.25 s slice took 7.
    #[test]
    fn tiny_spec_takes_a_unit_per_point_and_per_instant_slice() {
        let units = count_units(&registry(), &[tiny_spec("a", "c1", 1)]);
        assert_eq!(units, 5);
    }

    #[test]
    fn snapshot_restore_at_every_unit_boundary_is_byte_identical() {
        let registry = registry();
        let specs = [tiny_spec("a", "c1", 1), tiny_spec("b", "c2", 2)];
        let reference = shard_with(&specs).drain(&registry, None, None).unwrap();

        let mut mid_schedule = 0;
        for kill_at in 0..=count_units(&registry, &specs) {
            let mut shard = shard_with(&specs);
            let mut emits = Vec::new();
            for _ in 0..kill_at {
                emits.extend(shard.step(&registry));
            }
            // A campaign with a live scheduler sits between two of its
            // own slices: restoring it goes bytes → `Scheduler::resume`.
            if shard.queue.iter().any(|c| c.sched.is_some()) {
                mid_schedule += 1;
            }
            let snapshot = shard.snapshot();
            let mut restored = ShardState::new(99, 1); // wrong everything
            restored.restore(&snapshot).unwrap();
            // snapshot ∘ restore is the identity on live state.
            assert_eq!(restored, shard, "kill at unit {kill_at}");
            assert_eq!(restored.snapshot(), snapshot, "kill at unit {kill_at}");
            drop(shard); // the kill
            emits.extend(restored.drain(&registry, None, None).unwrap());
            assert_eq!(emits, reference, "kill at unit {kill_at} diverged");
        }
        assert!(
            mid_schedule >= 2,
            "only {mid_schedule} kill points fell between two slices of one campaign"
        );
    }

    /// A unit is an instant: however narrow a valid slice width — down
    /// to below the clock's resolution, where the slice grid cannot
    /// reach the next instant at all — a campaign takes a unit per run
    /// point and per instant, and streams the model's frames.
    #[test]
    fn a_slice_width_below_the_clock_resolution_still_finishes() {
        let registry = registry();
        let mut spec = CampaignSpec::new("a", "narrow", 8, 1)
            .with_point(RunPoint::test("OSU", 2, 1))
            .with_point(RunPoint::test("HPL", 8, 2));
        let model = crate::pipeline::reference(&registry, &spec);
        for width in [10.0, 1.0, 1e-3, 1e-6, 1e-300, 5e-324] {
            spec.slice_s = width;
            spec.validate(&registry).expect("a positive width is valid");
            let mut shard = shard_with(std::slice::from_ref(&spec));
            let mut emits = Vec::new();
            for _ in 0..16 {
                emits.extend(shard.step(&registry));
            }
            assert!(shard.idle(), "width {width:e}: busy after 16 units");
            let how = format!("width {width:e}");
            crate::pipeline::tests::assert_matches_model(
                &emits,
                std::slice::from_ref(&model),
                &how,
            );
        }
    }

    /// The campaign moves by value, the way `Server::migrate` moves it,
    /// at every unit boundary of its stream.
    #[test]
    fn migration_preserves_the_frame_stream() {
        let registry = registry();
        let specs = [tiny_spec("a", "c1", 1)];
        let reference = shard_with(&specs).drain(&registry, None, None).unwrap();

        for move_at in 0..count_units(&registry, &specs) {
            let mut origin = shard_with(&specs);
            let mut emits = Vec::new();
            for _ in 0..move_at {
                emits.extend(origin.step(&registry));
            }
            let camp = origin.take_campaign(1).expect("campaign is in flight");
            assert!(origin.idle());

            let mut target = ShardState::new(1, 64);
            target.queue_campaign(camp);
            emits.extend(target.drain(&registry, None, None).unwrap());
            assert_eq!(emits, reference, "move at unit {move_at} diverged");
        }
    }

    #[test]
    fn forged_campaign_progress_is_refused_at_restore() {
        let registry = registry();
        let mut origin = ShardState::new(0, 64);
        origin.submit(1, 10, tiny_spec("a", "c1", 1));
        origin.step(&registry);
        let mid_points = origin.clone();
        while origin.queue[0].sched.is_none() {
            origin.step(&registry);
        }
        let state_bytes = origin.queue[0].sched.as_ref().unwrap().state.snapshot();
        let finished = origin.queue[0]
            .sched
            .as_ref()
            .unwrap()
            .state
            .finished_jobs()
            .len() as u64;
        assert!(
            finished > 0,
            "a streamed count of zero must be a forgery here"
        );
        let payload = open(SHARD_KIND, &origin.snapshot()).unwrap();

        // Swap the embedded scheduler state for a validly sealed one
        // whose running count lies, and seal the shard again.
        let at = payload
            .windows(state_bytes.len())
            .position(|w| w == state_bytes)
            .expect("the snapshot embeds the state's own snapshot");
        let mut lying = SnapshotWriter::new();
        lying.put_f64(0.0);
        for _ in 0..3 {
            lying.put_usize(0);
        }
        lying.put_usize(1 << 60);
        let mut forged = SnapshotWriter::new();
        forged.put_bytes(&seal("sched-campaign", &lying.finish()));
        let forged = [
            &payload[..at - 8], // up to the state's length prefix
            &forged.finish(),
            &payload[at + state_bytes.len()..],
        ]
        .concat();

        let mut target = ShardState::new(1, 64);
        target.submit(7, 10, tiny_spec("b", "c2", 2));
        let untouched = target.clone();
        assert!(matches!(
            target.restore(&seal(SHARD_KIND, &forged)),
            Err(CkptError::Truncated { .. })
        ));
        // Progress that disagrees with itself: `next_point` (the field
        // after the campaign's spec blob) one short of the rows the
        // campaign holds — mid-points, where only the row count tells,
        // and with a scheduler.
        for shard in [&mid_points, &origin] {
            // The snapshot ends with its one campaign's bytes.
            let mut torn = open(SHARD_KIND, &shard.snapshot()).unwrap();
            let mut w = SnapshotWriter::new();
            shard.queue[0].put(&mut w);
            let spec_at = torn.len() - w.finish().len() + 16; // past id and client
            let spec_len = u64::from_le_bytes(torn[spec_at..spec_at + 8].try_into().unwrap());
            let next_at = spec_at + 8 + spec_len as usize;
            let next = u64::from_le_bytes(torn[next_at..next_at + 8].try_into().unwrap());
            torn[next_at..next_at + 8].copy_from_slice(&(next - 1).to_le_bytes());
            assert!(matches!(
                target.restore(&seal(SHARD_KIND, &torn)),
                Err(CkptError::Malformed { .. })
            ));
        }
        // Streamed completions the state does not back — `streamed_done`,
        // the campaign's and so the snapshot's last field, is derived
        // from the state. Taken at its word, a restored shard would index
        // past the finished jobs in the next slice or stream them again.
        for forged in [1u64 << 40, 0, finished + 1] {
            let lie = [&payload[..payload.len() - 8], &forged.to_le_bytes()[..]].concat();
            assert!(matches!(
                target.restore(&seal(SHARD_KIND, &lie)),
                Err(CkptError::Malformed { .. })
            ));
        }
        assert_eq!(target, untouched, "a refused snapshot changes nothing");
        // The genuine snapshot still restores, to the shard it was taken of.
        target.restore(&seal(SHARD_KIND, &payload)).unwrap();
        assert_eq!(target, origin);
    }

    /// A row is the cache's allocation, not a copy: a miss hands one
    /// `Arc` to the cache and the row, and a warm hit hands the campaign
    /// the entry the cache holds.
    #[test]
    fn a_row_shares_its_cache_entry() {
        let registry = registry();
        let spec = tiny_spec("a", "c1", 1);
        let key = spec.point_key(0);
        let mut shard = ShardState::new(0, 64);
        shard.submit(1, 10, spec.clone());
        shard.step(&registry);
        assert_eq!(shard.cache().stats().misses, 1);
        let row = Arc::clone(&shard.queue[0].rows()[0]);
        assert!(Arc::ptr_eq(&row, &shard.cache.lookup(key).unwrap()));
        shard.drain(&registry, None, None).unwrap();

        shard.submit(2, 10, spec);
        let hits = shard.cache().stats().hits;
        shard.step(&registry);
        assert_eq!(shard.cache().stats().hits, hits + 1, "a warm hit");
        let warm = &shard.queue[0].rows()[0];
        assert!(Arc::ptr_eq(warm, &row));
        assert!(Arc::ptr_eq(warm, &shard.cache.lookup(key).unwrap()));
    }

    #[test]
    fn warm_resubmission_hits_and_matches_cold_bytes() {
        let registry = registry();
        let mut shard = ShardState::new(0, 64);
        shard.submit(1, 10, tiny_spec("a", "c1", 1));
        let cold = shard.drain(&registry, None, None).unwrap();
        assert_eq!(shard.cache().stats().hits, 0);

        // Same spec again: every point hits, artifacts byte-identical
        // modulo the campaign id (use the same id to compare directly).
        shard.submit(1, 10, tiny_spec("a", "c1", 1));
        let warm = shard.drain(&registry, None, None).unwrap();
        assert_eq!(shard.cache().stats().hits, 2);
        let strip_report = |emits: &[Emit]| -> Vec<Frame> {
            emits
                .iter()
                .map(|e| match &e.frame {
                    Frame::Done {
                        campaign,
                        table,
                        chrome_trace,
                        ..
                    } => Frame::Done {
                        campaign: *campaign,
                        table: table.clone(),
                        chrome_trace: chrome_trace.clone(),
                        report: String::new(),
                    },
                    other => other.clone(),
                })
                .collect()
        };
        assert_eq!(strip_report(&warm), strip_report(&cold));

        // The reports differ exactly in the cache section.
        let report_of = |emits: &[Emit]| {
            emits
                .iter()
                .find_map(|e| match &e.frame {
                    Frame::Done { report, .. } => Some(report.clone()),
                    _ => None,
                })
                .unwrap()
        };
        let cold_report = report_of(&cold);
        let warm_report = report_of(&warm);
        assert!(cold_report.contains("result-cache activity"));
        assert!(warm_report.contains("result-cache activity"));
        assert_ne!(cold_report, warm_report, "hit tallies differ");
    }
}
