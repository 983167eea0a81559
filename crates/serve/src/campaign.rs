//! One campaign in flight: its progress, its unit, its bytes.
//!
//! An [`ActiveCampaign`] is the [`crate::pipeline`] stopped between two
//! stages. One [`ActiveCampaign::unit`] executes (or answers from the
//! cache) the next run point, or — once every point has a row — carries
//! the live scheduler through its next instant: to the end of the
//! `slice_s`-wide slice that holds it, or to the deadline's cut. It says
//! whether the campaign retired; which campaign runs next is the shard's
//! business.
//!
//! A scheduling unit is an instant, not a tick. The slices a campaign
//! moves through are `horizon_s + k·slice_s`, `k ≥ 1`, and a slice that
//! holds no instant (a *silent* one) changes nothing, so one unit jumps
//! over all of them in O(1): it reads [`Scheduler::next_instant`] and
//! advances to [`slice_end`] of it. The deadline is the same rule read at
//! `deadline_s`: a campaign reaches the first slice end at or past the
//! deadline and is cut there, with that slice end as its horizon — so a
//! unit whose next instant lies beyond that slice end cuts instead of
//! advancing. Every unit therefore processes at least one instant,
//! completes the campaign or cuts it, whatever widths, horizons and
//! deadlines a spec or a snapshot carries.
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
use std::sync::Arc;

/// Progress of one active campaign.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActiveCampaign {
    pub(crate) id: u64,
    pub(crate) client: u64,
    spec: CampaignSpec,
    /// One result per executed point, in point order: the allocation
    /// the unit stored in or got from the cache, not a copy of it (a
    /// restored campaign decodes its own).
    rows: Vec<Arc<PointResult>>,
    /// Per-campaign cache tallies (reported in the final run report).
    cache: CacheStats,
    /// The live scheduler (`None` before the first slice). Boxed so a
    /// queue entry stays small to shift when a campaign ahead of it retires.
    pub(crate) sched: Option<Box<LiveSched>>,
    /// Virtual-time horizon the scheduler has been advanced to: the end
    /// of the last slice a unit processed (or the cut), on the grid
    /// `horizon_s + k·slice_s`. It is not `CampaignState::now()`, which
    /// stays at the last *processed* instant inside that slice.
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

    /// The rows so far, for tests of what they share with the cache.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Arc<PointResult>] {
        &self.rows
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
        camp.rows = r.get_seq("campaign row count", |r| PointResult::get(r).map(Arc::new))?;
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
    /// carry the scheduler through its next instant. Returns the frames
    /// and whether the campaign retired — the last frame is then its
    /// terminal one.
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
                let computed = Arc::new(run_point(registry, &self.spec, i, tracks));
                cache.insert(key, Arc::clone(&computed));
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

    /// One scheduling unit: the silent slices before the scheduler's
    /// next instant are skipped, then the slice holding it is processed
    /// — unless the deadline's slice end comes first, where the campaign
    /// is cut (module docs).
    fn sched_slice(&mut self, guard: &mut GuardStats) -> (Vec<Frame>, bool) {
        if self.horizon_s >= self.spec.deadline_s {
            return self.cut(guard);
        }
        let live = self
            .sched
            .take()
            .unwrap_or_else(|| Box::new(LiveSched::begin(&self.spec, &self.rows)));
        let next = live
            .scheduler
            .next_instant(&live.state, &live.jobs, &self.spec.plan);
        let (h, w) = (self.horizon_s, self.spec.slice_s);
        let until_s = slice_end(h, w, next);
        let cut_s = slice_end(h, w, self.spec.deadline_s);
        if next < f64::INFINITY && cut_s < until_s {
            // Every slice up to the deadline's is silent.
            self.sched = Some(live);
            self.horizon_s = cut_s;
            return self.cut(guard);
        }
        self.advance(live, until_s, guard)
    }

    /// Retire the campaign with a typed deadline cancellation at its
    /// horizon: the virtual-time cut is identical on every machine and at
    /// every pool width.
    fn cut(&self, guard: &mut GuardStats) -> (Vec<Frame>, bool) {
        guard.deadline_cancels += 1;
        jubench_metrics::counter_add("serve/deadline_cancels", 1);
        let reason = CancelReason::DeadlineExceeded {
            deadline_s: self.spec.deadline_s,
            horizon_s: self.horizon_s,
        };
        let campaign = self.id;
        (vec![Frame::Cancelled { campaign, reason }], true)
    }

    /// Advance `live` to `until_s`, the new horizon, streaming the jobs
    /// that finished on the way and, once the schedule completes, `Done`.
    fn advance(
        &mut self,
        mut live: Box<LiveSched>,
        until_s: f64,
        guard: &GuardStats,
    ) -> (Vec<Frame>, bool) {
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

/// The first slice end at or past `t` on the grid `h + k·w`, `k ≥ 1` —
/// or `t` itself where the grid cannot resolve it (`w` below the ulp of
/// the horizon, a quotient that overflows, a horizon that is not a
/// number). O(1): `k` is read off the quotient and corrected by one step
/// for its rounding. `INFINITY` stays `INFINITY`.
fn slice_end(h: f64, w: f64, t: f64) -> f64 {
    let end = |k: f64| h + k * w;
    let mut k = ((t - h) / w).ceil().max(1.0);
    if k > 1.0 && end(k - 1.0) >= t {
        k -= 1.0;
    } else if end(k) < t {
        k += 1.0;
    }
    if k.is_finite() && end(k) >= t {
        end(k)
    } else {
        t
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
    fn begin(spec: &CampaignSpec, rows: &[Arc<PointResult>]) -> Self {
        let (scheduler, jobs) = (scheduler(spec), build_jobs(spec, rows));
        let state = scheduler.begin(&jobs);
        Self::live(scheduler, jobs, state)
    }

    /// Re-enter it from a [`CampaignState`] snapshot — the only way bytes
    /// become a live scheduler. [`Scheduler::resume`] checks the envelope,
    /// the state's structure, and that it belongs to these jobs and this
    /// machine.
    fn resume(
        spec: &CampaignSpec,
        rows: &[Arc<PointResult>],
        bytes: &[u8],
    ) -> Result<Self, CkptError> {
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

/// The walk the jump replaced: one `slice_s`-wide slice a unit, silent or
/// not, cut once a unit starts at or past the deadline. Where a width's
/// multiples are exact, the jump's units are its non-silent ones — the
/// same frames, horizons and states.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn sched_slice(
        camp: &mut ActiveCampaign,
        guard: &mut GuardStats,
    ) -> (Vec<Frame>, bool) {
        if camp.horizon_s >= camp.spec.deadline_s {
            return camp.cut(guard);
        }
        let live = camp
            .sched
            .take()
            .unwrap_or_else(|| Box::new(LiveSched::begin(&camp.spec, &camp.rows)));
        let until_s = camp.horizon_s + camp.spec.slice_s;
        camp.advance(live, until_s, guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunPoint;
    use jubench_faults::FaultPlan;
    use jubench_sched::{PlacementPolicy, QueuePolicy};

    /// Widths whose every multiple the walks reach is exact.
    const WIDTHS: [f64; 8] = [0.25, 0.75, 2.0, 5.0, 10.0, 20.0, 100.0, 5000.0];

    /// What one scheduling unit left behind: its frames, the horizon's
    /// bits, whether it retired, and the live state.
    type Unit = (Vec<Frame>, u64, bool, Option<CampaignState>);

    /// Campaigns whose instants fall on slice ends and between them:
    /// submissions `spacing_s` apart, a drain window and a crash at grid
    /// multiples while jobs run, retries, both policies.
    fn executed_campaigns(registry: &Registry) -> Vec<ActiveCampaign> {
        let points = ["OSU", "HPL", "LinkTest", "Graph500", "OSU"];
        let faulted = FaultPlan::new(3)
            .with_slow_node_window(1, 2.0, 20.0, 120.0)
            .with_rank_crash(0, 60.0);
        let mut specs = Vec::new();
        for (i, (policy, spacing_s)) in [
            (QueuePolicy::Fifo, 10.0),
            (QueuePolicy::ConservativeBackfill, 0.0),
            (QueuePolicy::ConservativeBackfill, 50.0),
        ]
        .into_iter()
        .enumerate()
        {
            let mut spec = CampaignSpec::new("t", &format!("c{i}"), 8, i as u64);
            for (j, bench) in points.iter().enumerate() {
                spec.points.push(RunPoint::test(bench, [2, 4][j % 2], 1));
            }
            (spec.policy, spec.spacing_s) = (policy, spacing_s);
            spec.placement = [PlacementPolicy::Contiguous, PlacementPolicy::Scatter][i % 2];
            if i != 1 {
                spec.plan = faulted.clone();
            }
            specs.push(spec);
        }
        let (mut cache, mut guard) = (ResultCache::new(64), GuardStats::default());
        specs
            .into_iter()
            .map(|spec| {
                let mut camp = ActiveCampaign::new(1, 1, spec);
                while camp.rows.len() < camp.spec.points.len() {
                    camp.unit(&mut cache, None, registry, &mut guard);
                }
                camp
            })
            .collect()
    }

    fn state_of(camp: &ActiveCampaign) -> CampaignState {
        camp.sched.as_ref().map_or_else(
            || LiveSched::begin(&camp.spec, &camp.rows).state,
            |live| live.state.clone(),
        )
    }

    /// Drive `camp`'s scheduling phase with `step` until it retires,
    /// keeping the units that were not silent.
    fn walk(
        mut camp: ActiveCampaign,
        step: fn(&mut ActiveCampaign, &mut GuardStats) -> (Vec<Frame>, bool),
    ) -> Vec<Unit> {
        let mut guard = GuardStats::default();
        let mut units = Vec::new();
        for _ in 0..1_000_000 {
            let before = state_of(&camp);
            let (frames, retired) = step(&mut camp, &mut guard);
            let state = camp.sched.as_ref().map(|live| live.state.clone());
            let silent = !retired && frames.is_empty() && state.as_ref() == Some(&before);
            if !silent {
                units.push((frames, camp.horizon_s.to_bits(), retired, state));
            }
            if retired {
                return units;
            }
        }
        panic!("the campaign did not retire in a million units");
    }

    /// The jump's units are the walk's non-silent units, bit for bit:
    /// every exact width × no deadline, one inside the schedule, and two
    /// exactly on a slice end (one holding an instant).
    #[test]
    fn the_jump_is_the_walk_without_its_silent_slices() {
        let registry = jubench_scaling::full_registry();
        let (mut cuts, mut dones, mut skipped) = (0, 0, 0);
        for camp in executed_campaigns(&registry) {
            let model = crate::pipeline::reference(&registry, &camp.spec);
            let makespan = model.schedule.makespan_s;
            let first_end = model
                .schedule
                .records
                .iter()
                .filter_map(|r| r.end_s)
                .fold(f64::INFINITY, f64::min);
            for w in WIDTHS {
                let on_grid = |t: f64| (t / w).ceil() * w;
                let deadlines = [
                    f64::INFINITY,
                    0.37 * makespan,
                    on_grid(first_end),
                    on_grid(makespan / 2.0),
                ];
                for deadline_s in deadlines {
                    let mut camp = camp.clone();
                    (camp.spec.slice_s, camp.spec.deadline_s) = (w, deadline_s);
                    let how = format!("{} at width {w}, deadline {deadline_s}", camp.spec.name);
                    let walked = walk(camp.clone(), reference::sched_slice);
                    let jumped = walk(camp, |c, g| c.sched_slice(g));
                    assert_eq!(jumped, walked, "{how}");
                    match walked.last().map(|u| &u.0[..]) {
                        Some([.., Frame::Done { .. }]) => dones += 1,
                        _ => cuts += 1,
                    }
                    let walked_all = (makespan.min(deadline_s) / w).ceil() as usize;
                    skipped += walked_all.saturating_sub(walked.len());
                }
            }
        }
        assert!(cuts > 20 && dones > 20, "{cuts} cuts, {dones} completions");
        assert!(skipped > 10_000, "only {skipped} silent slices skipped");
    }

    /// `slice_end` is its definition — the least `h + k·w ≥ t`, `k ≥ 1`,
    /// found here by counting `k` up — on grid points and one ulp either
    /// side, for widths whose multiples round (the quotient then misses
    /// `k` by one either way); and where the grid cannot reach `t`, `t`.
    #[test]
    fn slice_end_is_the_first_slice_end_at_or_past_the_instant() {
        for w in [0.1, 0.3, 1.0 / 3.0, 0.7, 1e-3, 0.25, 5.0] {
            for h in [0.0, 0.1, 2.5, 1e3 + 0.3] {
                let end = |k: f64| h + k * w;
                for n in 1..400 {
                    let on = end(n as f64);
                    for t in [on.next_down(), on, on.next_up(), h - w] {
                        let least = (1..).map(|k| end(k as f64)).find(|&e| e >= t).unwrap();
                        assert_eq!(slice_end(h, w, t), least, "h {h}, w {w}, t {t}");
                    }
                }
            }
        }
        // A width below the horizon's ulp: its multiples round short of
        // `t`, or their quotient overflows.
        let (h, t): (f64, f64) = (0.09769761560529061, 63.17488127781931);
        assert!(h + ((t - h) / 1e-300).ceil() * 1e-300 < t);
        assert_eq!(slice_end(h, 1e-300, t), t);
        assert_eq!(slice_end(0.0, 5e-324, 7.5), 7.5);
        assert_eq!(slice_end(7.5, 5e-324, 7.5), 7.5);
        assert_eq!(slice_end(h, 1e-300, f64::INFINITY), f64::INFINITY);
        assert_eq!(slice_end(f64::NAN, 5.0, t), t);
    }

    /// Below the clock's resolution the deadline's slice end is the
    /// deadline itself: the campaign streams exactly the completions up
    /// to it, then is cut there, a unit per instant.
    #[test]
    fn below_the_clock_resolution_the_deadline_cuts_at_itself() {
        let registry = jubench_scaling::full_registry();
        for camp in executed_campaigns(&registry) {
            let model = crate::pipeline::reference(&registry, &camp.spec);
            let deadline_s = 0.37 * model.schedule.makespan_s;
            let mut expected: Vec<(u32, f64)> = model
                .schedule
                .records
                .iter()
                .filter_map(|r| r.end_s.filter(|&e| e <= deadline_s).map(|e| (r.id, e)))
                .collect();
            expected.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for w in [1e-300, 5e-324] {
                let mut camp = camp.clone();
                (camp.spec.slice_s, camp.spec.deadline_s) = (w, deadline_s);
                let units = walk(camp, |c, g| c.sched_slice(g));
                let frames: Vec<&Frame> = units.iter().flat_map(|u| &u.0).collect();
                let streamed: Vec<(u32, f64)> = frames
                    .iter()
                    .filter_map(|f| match f {
                        Frame::JobDone { job, end_s, .. } => Some((*job, *end_s)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(streamed, expected, "width {w:e}");
                let horizon_s = deadline_s;
                let cut = CancelReason::DeadlineExceeded {
                    deadline_s,
                    horizon_s,
                };
                assert!(
                    matches!(frames.last(), Some(Frame::Cancelled { reason, .. }) if *reason == cut),
                    "width {w:e}: {:?}",
                    frames.last()
                );
                assert!(units.len() < 4 * model.schedule.log.len(), "width {w:e}");
            }
        }
    }
}
