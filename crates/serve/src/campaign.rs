//! One campaign in flight: its progress, its unit, its bytes.
//!
//! An [`ActiveCampaign`] is the [`crate::pipeline`] stopped between two
//! stages. One [`ActiveCampaign::unit`] executes (or answers from the
//! cache) the next run point, or — once every point has a row — checks
//! the deadline and advances the live scheduler by one `slice_s`-wide
//! slice; it says whether the campaign retired, and which campaign runs
//! next is the shard's business.
//!
//! Bytes exist only at the snapshot boundary, and every check on them
//! is in [`ActiveCampaign::get`]: the spec is checked again, the two
//! *derived* fields — the next point (`rows.len()`) and the `JobDone`s
//! already streamed (the live state's finished jobs) — keep their byte
//! positions and must agree with what they derive from (`Malformed`
//! otherwise), and [`Scheduler::resume`] is the one way an embedded
//! state becomes a live scheduler again.

use crate::cache::{get_stats, put_stats, PointResult, ResultCache};
use crate::pipeline::{artifacts, build_jobs, run_point, scheduler};
use crate::spec::CampaignSpec;
use crate::tracks::RealTracks;
use crate::wire::{CancelReason, Frame};
use jubench_ckpt::{Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_core::Registry;
use jubench_sched::{CampaignState, Job, Scheduler};
use jubench_trace::{CacheStats, GuardStats};

/// Progress of one active campaign.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveCampaign {
    pub(crate) id: u64,
    pub(crate) client: u64,
    spec: CampaignSpec,
    /// One result per executed point, in point order.
    rows: Vec<PointResult>,
    /// Per-campaign cache tallies (reported in the final run report).
    cache: CacheStats,
    /// The live scheduler (`None` before the first slice). Boxed so a
    /// queue entry stays small to shift when a campaign ahead of it retires.
    pub(crate) sched: Option<Box<LiveSched>>,
    /// Virtual-time horizon the scheduler has been advanced to. Grows by
    /// `slice_s` every unit — independent of `CampaignState::now()`,
    /// which only moves to *processed* events and therefore stalls when
    /// the next event lies beyond the current slice.
    horizon_s: f64,
}

impl ActiveCampaign {
    /// A campaign (its spec validated) none of whose points has executed.
    pub(crate) fn new(id: u64, client: u64, spec: CampaignSpec) -> Self {
        ActiveCampaign {
            id,
            client,
            spec,
            rows: Vec::new(),
            cache: CacheStats::default(),
            sched: None,
            horizon_s: 0.0,
        }
    }

    /// Jobs whose completion has already been streamed.
    fn streamed(&self) -> usize {
        self.sched.as_ref().map_or(0, |live| live.streamed)
    }

    pub(crate) fn put(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.id);
        w.put_u64(self.client);
        self.spec.put(w);
        w.put_usize(self.rows.len());
        w.put_seq(&self.rows, |w, row| row.put(w));
        put_stats(w, &self.cache);
        w.put_bool(self.sched.is_some());
        if let Some(live) = &self.sched {
            w.put_bytes(&live.state.snapshot());
        }
        w.put_f64(self.horizon_s);
        w.put_usize(self.streamed());
    }

    pub(crate) fn get(r: &mut SnapshotReader) -> Result<Self, CkptError> {
        let id = r.get_u64("campaign id")?;
        let client = r.get_u64("campaign client")?;
        let spec = CampaignSpec::get(r, "campaign spec")?;
        let malformed = |what: String| CkptError::Malformed { what };
        // The spec passed `validate` before it was queued; bytes that say
        // otherwise are forged, and `LiveSched::resume` below computes
        // with its numbers.
        spec.check(None).map_err(malformed)?;
        let mut camp = ActiveCampaign::new(id, client, spec);
        let next_point = r.get_usize("campaign next point")?;
        camp.rows = r.get_seq("campaign row count", PointResult::get)?;
        camp.cache = get_stats(r)?;
        // Progress must agree with itself before anything indexes by
        // it: one row per executed point, and a scheduler only once every
        // point has executed (its jobs are derived from all the rows).
        let has_sched = r.get_bool("campaign has sched state")?;
        let (n_rows, n_points) = (camp.rows.len(), camp.spec.points.len());
        if n_rows != next_point || next_point > n_points || (has_sched && next_point < n_points) {
            return Err(malformed(format!(
                "campaign at point {next_point} of {n_points} has {n_rows} rows, \
                 scheduler state: {has_sched}"
            )));
        }
        if has_sched {
            let bytes = r.get_bytes("campaign sched state")?;
            camp.sched = Some(Box::new(LiveSched::resume(&camp.spec, &camp.rows, &bytes)?));
        }
        camp.horizon_s = r.get_f64("campaign horizon")?;
        // Every unit streams what its slice finished, so the count is
        // the state's; one that says otherwise would index past the
        // finished jobs or stream some of them twice.
        let (streamed_done, finished) = (r.get_usize("campaign streamed done")?, camp.streamed());
        if streamed_done != finished {
            return Err(malformed(format!(
                "campaign streamed {streamed_done} job completions, its state finished {finished}"
            )));
        }
        Ok(camp)
    }

    /// Advance by one unit: execute (or answer from `cache`, or cost the
    /// track `tracks` holds for) the next run point and emit its row, or
    /// advance the scheduler by one slice. Returns the frames and whether
    /// the campaign retired — the last frame is then its terminal one.
    pub(crate) fn unit(
        &mut self,
        cache: &mut ResultCache,
        tracks: Option<&RealTracks>,
        registry: &Registry,
        guard: &mut GuardStats,
    ) -> (Vec<Frame>, bool) {
        let i = self.rows.len();
        if i == self.spec.points.len() {
            return self.sched_slice(guard);
        }
        let key = self.spec.point_key(i);
        let before = cache.stats();
        let result = match cache.lookup(key) {
            Some(hit) => hit,
            None => {
                let computed = run_point(registry, &self.spec, i, tracks);
                cache.insert(key, computed.clone());
                jubench_metrics::counter_add("serve/points_executed", 1);
                computed
            }
        };
        let after = cache.stats();
        self.cache.hits += after.hits - before.hits;
        self.cache.misses += after.misses - before.misses;
        self.cache.insertions += after.insertions - before.insertions;
        self.cache.evictions += after.evictions - before.evictions;
        let frame = Frame::Row {
            campaign: self.id,
            index: i as u32,
            cells: result.cells.clone(),
        };
        self.rows.push(result);
        (vec![frame], false)
    }

    /// Advance the scheduler by one `slice_s`-wide slice.
    fn sched_slice(&mut self, guard: &mut GuardStats) -> (Vec<Frame>, bool) {
        // The virtual-time deadline is checked at the unit boundary:
        // once the horizon has reached it with the schedule incomplete,
        // the campaign is cut with a typed cancellation instead of
        // consuming service units forever.
        if self.horizon_s >= self.spec.deadline_s {
            guard.deadline_cancels += 1;
            jubench_metrics::counter_add("serve/deadline_cancels", 1);
            let reason = CancelReason::DeadlineExceeded {
                deadline_s: self.spec.deadline_s,
                horizon_s: self.horizon_s,
            };
            let campaign = self.id;
            return (vec![Frame::Cancelled { campaign, reason }], true);
        }
        let mut live = self
            .sched
            .take()
            .unwrap_or_else(|| Box::new(LiveSched::begin(&self.spec, &self.rows)));
        // The slice window grows from the campaign's own horizon, not
        // from `state.now()`: `advance` leaves `now` at the last
        // *processed* event, so a quiet stretch (the next completion
        // several slices away) would otherwise pin the window in place
        // and the campaign would never finish.
        let until_s = self.horizon_s.max(live.state.now()) + self.spec.slice_s;
        let done = live
            .scheduler
            .advance(&mut live.state, &live.jobs, &self.spec.plan, until_s);
        self.horizon_s = until_s;
        let finished = live.state.finished_jobs();
        let mut frames: Vec<Frame> = finished[live.streamed..]
            .iter()
            .map(|&(job, end_s)| Frame::JobDone {
                campaign: self.id,
                job,
                end_s,
            })
            .collect();
        live.streamed = finished.len();
        if done {
            // Cache and guard tallies ride the report out-of-band. Cache
            // tallies are per-campaign; guard tallies are the owning
            // shard's cumulative activity at finish time (a restart
            // re-drives every campaign on the shard, so finer
            // attribution would be fiction).
            let schedule = live.scheduler.finish(live.state);
            let (table, chrome_trace, mut report) = artifacts(&self.spec, &self.rows, &schedule);
            report.cache = self.cache;
            report.guard = *guard;
            frames.push(Frame::Done {
                campaign: self.id,
                table,
                chrome_trace,
                report: report.render(),
            });
        } else {
            self.sched = Some(live);
        }
        (frames, done)
    }
}

/// A campaign's scheduling phase as it lives in memory between slices.
/// `scheduler` and `jobs` are pure in the campaign's `(spec, rows)` and
/// `streamed` in `state`, so only `state` is ever written to a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LiveSched {
    scheduler: Scheduler,
    jobs: Vec<Job>,
    pub(crate) state: CampaignState,
    /// Finished jobs whose `JobDone` has been streamed: all of them, at
    /// every unit boundary.
    streamed: usize,
}

impl LiveSched {
    /// Enter the scheduling phase: nothing submitted, virtual time zero.
    fn begin(spec: &CampaignSpec, rows: &[PointResult]) -> Self {
        let (scheduler, jobs) = (scheduler(spec), build_jobs(spec, rows));
        let state = scheduler.begin(&jobs);
        Self::live(scheduler, jobs, state)
    }

    /// Re-enter it from a [`CampaignState`] snapshot — the only way bytes
    /// become a live scheduler. [`Scheduler::resume`] checks the envelope,
    /// the state's structure, and that it belongs to these jobs and this
    /// machine.
    fn resume(spec: &CampaignSpec, rows: &[PointResult], bytes: &[u8]) -> Result<Self, CkptError> {
        let (scheduler, jobs) = (scheduler(spec), build_jobs(spec, rows));
        let state = scheduler.resume(bytes, &jobs)?;
        Ok(Self::live(scheduler, jobs, state))
    }

    fn live(scheduler: Scheduler, jobs: Vec<Job>, state: CampaignState) -> Self {
        let streamed = state.finished_jobs().len();
        LiveSched {
            scheduler,
            jobs,
            state,
            streamed,
        }
    }
}
