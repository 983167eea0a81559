//! One scheduler shard: a deterministic campaign state machine.
//!
//! A shard owns a [`ResultCache`] and a FIFO of active campaigns, and
//! advances them round-robin in *units*: one run-point execution (or
//! cache hit) per unit while a campaign is executing, one `slice_s`-wide
//! scheduler slice per unit while it is scheduling. Every unit boundary
//! is a safe point — the shard is [`Checkpointable`] there, and a
//! single in-flight campaign can be extracted ([`ShardState::extract`])
//! and adopted by another shard ([`ShardState::adopt`]) without
//! perturbing a single output byte.
//!
//! In memory a scheduling campaign is a live value: the [`Scheduler`],
//! its jobs and the [`CampaignState`] that [`Scheduler::advance`] steps
//! in place, slice after slice. Bytes exist only at the snapshot
//! boundary — [`Checkpointable::snapshot`] and [`ShardState::extract`]
//! write the state's own sealed snapshot, and
//! [`Checkpointable::restore`] and [`ShardState::adopt`] are where
//! [`Scheduler::resume`] turns it back into a live value, with every
//! envelope, structure and job-set check; a bad embedded scheduler
//! state is refused there, as the [`CkptError`] those two return.
//!
//! Determinism contract: the frames a shard emits for one campaign are
//! a pure function of the campaign spec (plus the registry contents).
//! The cache changes *whether* a point executes, never what its row
//! says; kill-and-restore at any unit boundary resumes the exact frame
//! stream; migration moves the stream mid-flight to another shard.

use crate::cache::{PointResult, ResultCache};
use crate::chaos::ChaosRuntime;
use crate::error::ServeError;
use crate::spec::{CampaignSpec, RunPoint};
use crate::wire::{CancelReason, Frame};
use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_core::{BenchmarkId, Registry, RunConfig};
use jubench_sched::{category_priority, CampaignState, Job, Schedule, Scheduler, SchedulerConfig};
use jubench_trace::{chrome_trace_json, GuardStats, Recorder, RunReport};

/// Envelope kind of a shard snapshot.
pub const SHARD_KIND: &str = "jubench-serve/shard";
/// Envelope kind of an extracted (migrating) campaign.
pub const CAMPAIGN_KIND: &str = "jubench-serve/campaign";

/// A frame addressed to the client that submitted the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Emit {
    /// Client (session) the frame belongs to.
    pub client: u64,
    /// The frame.
    pub frame: Frame,
}

/// Progress of one active campaign.
#[derive(Debug, Clone, PartialEq)]
struct ActiveCampaign {
    id: u64,
    client: u64,
    spec: CampaignSpec,
    /// Next run point to execute; `== points.len()` once scheduling.
    next_point: usize,
    /// One result per executed point, in point order.
    rows: Vec<PointResult>,
    /// Per-campaign cache tallies (reported in the final run report).
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    /// The live scheduler (`None` before the first slice). Boxed so a
    /// queue entry stays small to shift when a campaign ahead of it retires.
    sched: Option<Box<LiveSched>>,
    /// Virtual-time horizon the scheduler has been advanced to. Grows by
    /// `slice_s` every unit — independent of `CampaignState::now()`,
    /// which only moves to *processed* events and therefore stalls when
    /// the next event lies beyond the current slice.
    horizon_s: f64,
    /// Jobs whose completion has already been streamed.
    streamed_done: usize,
}

impl ActiveCampaign {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.id);
        w.put_u64(self.client);
        self.spec.put(w);
        w.put_usize(self.next_point);
        w.put_seq(&self.rows, |w, row| row.put(w));
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.insertions);
        w.put_u64(self.evictions);
        match &self.sched {
            None => w.put_bool(false),
            Some(live) => {
                w.put_bool(true);
                w.put_bytes(&live.state.snapshot());
            }
        }
        w.put_f64(self.horizon_s);
        w.put_usize(self.streamed_done);
    }

    fn get(r: &mut SnapshotReader) -> Result<Self, CkptError> {
        let id = r.get_u64("campaign id")?;
        let client = r.get_u64("campaign client")?;
        let spec_bytes = r.get_bytes("campaign spec")?;
        let spec = CampaignSpec::decode(&spec_bytes)?;
        // The spec passed `validate` before it was queued; bytes that say
        // otherwise are forged, and `LiveSched::resume` below computes
        // with its numbers.
        spec.check(None)
            .map_err(|what| CkptError::Malformed { what })?;
        let next_point = r.get_usize("campaign next point")?;
        let rows = r.get_seq("campaign row count", PointResult::get)?;
        let hits = r.get_u64("campaign hits")?;
        let misses = r.get_u64("campaign misses")?;
        let insertions = r.get_u64("campaign insertions")?;
        let evictions = r.get_u64("campaign evictions")?;
        // Progress must agree with itself before anything indexes by
        // it: one row per executed point, and a scheduler only once every
        // point has executed (its jobs are derived from all the rows).
        let has_sched = r.get_bool("campaign has sched state")?;
        let n_points = spec.points.len();
        if rows.len() != next_point || next_point > n_points || (has_sched && next_point < n_points)
        {
            return Err(CkptError::Malformed {
                what: format!(
                    "campaign at point {next_point} of {n_points} has {} rows, \
                     scheduler state: {has_sched}",
                    rows.len()
                ),
            });
        }
        let sched = if has_sched {
            let bytes = r.get_bytes("campaign sched state")?;
            Some(Box::new(LiveSched::resume(&spec, &rows, &bytes)?))
        } else {
            None
        };
        let horizon_s = r.get_f64("campaign horizon")?;
        let streamed_done = r.get_usize("campaign streamed done")?;
        Ok(ActiveCampaign {
            id,
            client,
            spec,
            next_point,
            rows,
            hits,
            misses,
            insertions,
            evictions,
            sched,
            horizon_s,
            streamed_done,
        })
    }
}

/// A campaign's scheduling phase as it lives in memory between slices.
/// `scheduler` and `jobs` are pure in the campaign's `(spec, rows)`, so
/// only `state` is ever written to a snapshot.
#[derive(Debug, Clone)]
struct LiveSched {
    scheduler: Scheduler,
    jobs: Vec<Job>,
    state: CampaignState,
}

impl LiveSched {
    /// The scheduler and jobs of a campaign whose points have all
    /// executed.
    fn parts(spec: &CampaignSpec, rows: &[PointResult]) -> (Scheduler, Vec<Job>) {
        let scheduler = Scheduler::new(
            spec.machine(),
            spec.backend.net,
            SchedulerConfig::new(spec.policy, spec.placement, spec.seed),
        );
        (scheduler, build_jobs(spec, rows))
    }

    /// Enter the scheduling phase: nothing submitted, virtual time zero.
    fn begin(spec: &CampaignSpec, rows: &[PointResult]) -> Self {
        let (scheduler, jobs) = Self::parts(spec, rows);
        let state = scheduler.begin(&jobs);
        LiveSched {
            scheduler,
            jobs,
            state,
        }
    }

    /// Re-enter it from a [`CampaignState`] snapshot — the only way bytes
    /// become a live scheduler. [`Scheduler::resume`] checks the envelope,
    /// the state's structure, and that it belongs to these jobs and this
    /// machine.
    fn resume(spec: &CampaignSpec, rows: &[PointResult], bytes: &[u8]) -> Result<Self, CkptError> {
        let (scheduler, jobs) = Self::parts(spec, rows);
        let state = scheduler.resume(bytes, &jobs)?;
        Ok(LiveSched {
            scheduler,
            jobs,
            state,
        })
    }
}

/// `scheduler` and `jobs` follow from fields the owning campaign already
/// compares.
impl PartialEq for LiveSched {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

/// What one shard unit did, beyond the frames it emitted.
enum UnitOutcome {
    /// The campaign stays in the queue.
    Running,
    /// The campaign completed and emitted its `Done` frame.
    Finished,
    /// The campaign was cancelled (deadline) and emitted `Cancelled`.
    Cancelled,
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

    /// Record one supervised restart: the shard was restored from its
    /// snapshot after a worker failure, charging `backoff_s` virtual
    /// seconds of seeded backoff.
    pub fn note_restart(&mut self, backoff_s: f64) {
        self.guard.restarts += 1;
        self.guard.backoff_s += backoff_s;
        jubench_metrics::counter_add("serve/restarts", 1);
    }

    /// The supervisor gave up on this shard: cancel every queued
    /// campaign with a typed `ShardFailed` frame — the
    /// degrade-to-partial-results path.
    pub fn give_up(&mut self, restarts: u32) -> Vec<Emit> {
        self.guard.giveups += 1;
        jubench_metrics::counter_add("serve/giveups", 1);
        let out: Vec<Emit> = self
            .queue
            .drain(..)
            .map(|camp| {
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
        self.rr = 0;
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
        self.queue.push(ActiveCampaign {
            id,
            client,
            spec,
            next_point: 0,
            rows: Vec::new(),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            sched: None,
            horizon_s: 0.0,
            streamed_done: 0,
        });
    }

    /// Advance one campaign by one unit (round-robin) and return the
    /// frames produced. An empty vec with [`Self::idle`] still false
    /// can't happen — every unit emits at least one frame except
    /// scheduler slices in which no job finished.
    pub fn step(&mut self, registry: &Registry) -> Vec<Emit> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        let idx = self.rr % self.queue.len();
        let client = self.queue[idx].client;
        let (frames, outcome) = if self.queue[idx].next_point < self.queue[idx].spec.points.len() {
            (
                vec![self.execute_point(idx, registry)],
                UnitOutcome::Running,
            )
        } else {
            self.sched_slice(idx)
        };
        match outcome {
            UnitOutcome::Running => {
                self.rr = (idx + 1) % self.queue.len();
            }
            UnitOutcome::Finished | UnitOutcome::Cancelled => {
                self.queue.remove(idx);
                if matches!(outcome, UnitOutcome::Finished) {
                    jubench_metrics::counter_add("serve/campaigns_done", 1);
                } else {
                    jubench_metrics::counter_add("serve/campaigns_cancelled", 1);
                }
                self.rr = if self.queue.is_empty() {
                    0
                } else {
                    idx % self.queue.len()
                };
            }
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
    /// same boundaries again.
    pub fn drain(
        &mut self,
        registry: &Registry,
        chaos: Option<&ChaosRuntime<'_>>,
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
            out.extend(self.step(registry));
            unit += 1;
        }
        Ok(out)
    }

    /// Execute (or answer from cache) the next run point of campaign
    /// `idx` and emit its result-table row.
    fn execute_point(&mut self, idx: usize, registry: &Registry) -> Frame {
        let camp = &mut self.queue[idx];
        let i = camp.next_point;
        let key = camp.spec.point_key(i);
        let before = self.cache.stats();
        let result = match self.cache.lookup(key) {
            Some(hit) => hit,
            None => {
                let computed = run_point(registry, &camp.spec, i);
                self.cache.insert(key, computed.clone());
                jubench_metrics::counter_add("serve/points_executed", 1);
                computed
            }
        };
        let after = self.cache.stats();
        camp.hits += after.hits - before.hits;
        camp.misses += after.misses - before.misses;
        camp.insertions += after.insertions - before.insertions;
        camp.evictions += after.evictions - before.evictions;
        camp.next_point += 1;
        let frame = Frame::Row {
            campaign: camp.id,
            index: i as u32,
            cells: result.cells.clone(),
        };
        camp.rows.push(result);
        frame
    }

    /// Advance campaign `idx`'s scheduler by one `slice_s`-wide slice.
    /// Returns the frames to stream and the campaign's unit outcome.
    fn sched_slice(&mut self, idx: usize) -> (Vec<Frame>, UnitOutcome) {
        let guard = self.guard;
        let camp = &mut self.queue[idx];
        // The virtual-time deadline is checked at the unit boundary:
        // once the horizon has reached it with the schedule incomplete,
        // the campaign is cut with a typed cancellation instead of
        // consuming service units forever.
        if camp.horizon_s >= camp.spec.deadline_s {
            self.guard.deadline_cancels += 1;
            jubench_metrics::counter_add("serve/deadline_cancels", 1);
            return (
                vec![Frame::Cancelled {
                    campaign: camp.id,
                    reason: CancelReason::DeadlineExceeded {
                        deadline_s: camp.spec.deadline_s,
                        horizon_s: camp.horizon_s,
                    },
                }],
                UnitOutcome::Cancelled,
            );
        }
        let mut live = camp
            .sched
            .take()
            .unwrap_or_else(|| Box::new(LiveSched::begin(&camp.spec, &camp.rows)));
        // The slice window grows from the campaign's own horizon, not
        // from `state.now()`: `advance` leaves `now` at the last
        // *processed* event, so a quiet stretch (the next completion
        // several slices away) would otherwise pin the window in place
        // and the campaign would never finish.
        let until_s = camp.horizon_s.max(live.state.now()) + camp.spec.slice_s;
        let done = live
            .scheduler
            .advance(&mut live.state, &live.jobs, &camp.spec.plan, until_s);
        camp.horizon_s = until_s;
        let finished = live.state.finished_jobs();
        let mut frames: Vec<Frame> = finished[camp.streamed_done..]
            .iter()
            .map(|&(job, end_s)| Frame::JobDone {
                campaign: camp.id,
                job,
                end_s,
            })
            .collect();
        camp.streamed_done = finished.len();
        if done {
            let schedule = live.scheduler.finish(live.state);
            frames.push(finish_campaign(camp, &schedule, guard));
            (frames, UnitOutcome::Finished)
        } else {
            camp.sched = Some(live);
            (frames, UnitOutcome::Running)
        }
    }

    /// Remove campaign `id` from this shard and return it as a sealed
    /// envelope suitable for [`Self::adopt`] on another shard — live
    /// migration of an in-flight campaign. The result cache stays here:
    /// caching is an execution-time optimization, so moving a campaign
    /// away from warm state changes timings, never bytes.
    pub fn extract(&mut self, id: u64) -> Option<Vec<u8>> {
        let idx = self.queue.iter().position(|c| c.id == id)?;
        // Keep the cursor pointing at the same campaign it would have
        // served next, as far as removal allows.
        if idx < self.rr {
            self.rr -= 1;
        }
        let camp = self.queue.remove(idx);
        if !self.queue.is_empty() {
            self.rr %= self.queue.len();
        } else {
            self.rr = 0;
        }
        let mut w = SnapshotWriter::new();
        camp.put(&mut w);
        jubench_metrics::counter_add("serve/campaigns_migrated", 1);
        Some(seal(CAMPAIGN_KIND, &w.finish()))
    }

    /// Adopt a campaign extracted from another shard. Returns its id.
    pub fn adopt(&mut self, envelope: &[u8]) -> Result<u64, CkptError> {
        let payload = open(CAMPAIGN_KIND, envelope)?;
        let mut r = SnapshotReader::new(&payload);
        let camp = ActiveCampaign::get(&mut r)?;
        r.expect_end()?;
        let id = camp.id;
        self.queue.push(camp);
        Ok(id)
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
        let id = r.get_u32("shard id")?;
        let cache = ResultCache::get(&mut r)?;
        let guard = GuardStats {
            restarts: r.get_u64("shard guard restarts")?,
            backoff_s: r.get_f64("shard guard backoff")?,
            deadline_cancels: r.get_u64("shard guard deadline cancels")?,
            giveups: r.get_u64("shard guard giveups")?,
        };
        let rr = r.get_usize("shard rr cursor")?;
        let queue = r.get_seq("shard campaign count", ActiveCampaign::get)?;
        r.expect_end()?;
        *self = ShardState {
            id,
            cache,
            queue,
            rr,
            guard,
        };
        Ok(())
    }
}

/// The eight cells of `p`'s result row; a point that did not execute
/// shows a dash for `time` and `comm`.
fn row_cells(p: &RunPoint, time: &str, comm: &str, status: String) -> Vec<String> {
    vec![
        p.bench.clone(),
        p.nodes.to_string(),
        format!("{:?}", p.scale),
        p.variant.map_or("base".to_string(), |v| format!("{v:?}")),
        p.seed.to_string(),
        time.to_string(),
        comm.to_string(),
        status,
    ]
}

/// Execute one run point for real. Pure in its inputs: the registry's
/// benchmark, the point parameters, and nothing else.
///
/// Specs are validated at submit, but the registry handed to a *drain*
/// is a different argument than the one validated against — a
/// mismatched caller must get an error row, not a worker panic that
/// takes the whole drain down.
fn run_point(registry: &Registry, spec: &CampaignSpec, index: usize) -> PointResult {
    let p = &spec.points[index];
    let failed = |why: String, priority: i32| PointResult {
        cells: row_cells(p, "-", "-", format!("error: {why}")),
        service_s: 0.0,
        comm_fraction: 0.0,
        priority,
    };
    let Some(id) = BenchmarkId::from_name(&p.bench) else {
        return failed(format!("unknown benchmark `{}`", p.bench), 0);
    };
    let Some(bench) = registry.get(id) else {
        return failed(format!("benchmark `{}` not registered", p.bench), 0);
    };
    let config = RunConfig {
        nodes: p.nodes,
        variant: p.variant,
        scale: p.scale,
        seed: p.seed,
        backend: spec.backend,
    };
    let priority = category_priority(bench.meta().category);
    match bench.run(&config) {
        Ok(outcome) => {
            let comm_fraction = if outcome.virtual_time_s > 0.0 {
                (outcome.comm_time_s / outcome.virtual_time_s).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let verified = if outcome.verification.passed() {
                "pass"
            } else {
                "FAIL"
            };
            PointResult {
                cells: row_cells(
                    p,
                    &format!("{:.6}", outcome.virtual_time_s),
                    &format!("{comm_fraction:.4}"),
                    verified.to_string(),
                ),
                service_s: outcome.virtual_time_s,
                comm_fraction,
                priority,
            }
        }
        Err(err) => failed(err.to_string(), priority),
    }
}

/// Derive the campaign's scheduler jobs from its executed rows. Pure in
/// `(spec, rows)`, so a restored or migrated campaign rebuilds exactly
/// the jobs its snapshot was taken against.
fn build_jobs(spec: &CampaignSpec, rows: &[PointResult]) -> Vec<Job> {
    spec.points
        .iter()
        .zip(rows)
        .enumerate()
        .map(|(i, (p, row))| {
            Job::new(
                i as u32,
                &format!("{}#{i}", p.bench),
                p.nodes,
                row.service_s.max(1e-9),
            )
            .with_comm_fraction(row.comm_fraction)
            .with_priority(row.priority)
            .with_submit(i as f64 * spec.spacing_s)
        })
        .collect()
}

/// Assemble the final artifacts of a finished campaign: the result
/// table, the Chrome trace of its schedule, and the run report (cache
/// and guard tallies attached out-of-band — they are observability,
/// not part of the deterministic trace). Cache tallies are
/// per-campaign; guard tallies are the owning shard's cumulative
/// activity at finish time (a restart re-drives every campaign on the
/// shard, so finer attribution would be fiction).
fn finish_campaign(camp: &ActiveCampaign, schedule: &Schedule, guard: GuardStats) -> Frame {
    let table = render_table(&camp.spec, &camp.rows, schedule);
    let recorder = Recorder::new();
    schedule.emit(&recorder);
    let events = recorder.take_events();
    let chrome_trace = chrome_trace_json(&events);
    let mut report = RunReport::from_events(&events);
    report.cache.hits = camp.hits;
    report.cache.misses = camp.misses;
    report.cache.insertions = camp.insertions;
    report.cache.evictions = camp.evictions;
    report.guard = guard;
    Frame::Done {
        campaign: camp.id,
        table,
        chrome_trace,
        report: report.render(),
    }
}

/// Render the campaign result table: one row per run point joined with
/// its schedule record, plus a header and a makespan footer. Pure in
/// `(spec, rows, schedule)` — cache activity leaves no mark here.
fn render_table(spec: &CampaignSpec, rows: &[PointResult], schedule: &Schedule) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# campaign {} tenant={} machine={}x{} policy={} placement={} seed={}\n",
        spec.name,
        spec.tenant,
        schedule.machine.name,
        schedule.machine.nodes,
        spec.policy.label(),
        spec.placement.label(),
        spec.seed,
    ));
    out.push_str(
        "| point | benchmark | nodes | scale | variant | seed | time_s | comm | verify \
         | start_s | end_s | outcome |\n",
    );
    for (i, row) in rows.iter().enumerate() {
        let record = &schedule.records[i];
        let start = record
            .start_s()
            .map_or_else(|| "-".to_string(), |s| format!("{s:.6}"));
        let end = record
            .end_s
            .map_or_else(|| "-".to_string(), |e| format!("{e:.6}"));
        out.push_str(&format!(
            "| {i} | {} | {start} | {end} | {:?} |\n",
            row.cells.join(" | "),
            record.outcome,
        ));
    }
    out.push_str(&format!("# makespan_s={:.6}\n", schedule.makespan_s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(tenant: &str, name: &str, seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::new(tenant, name, 8, seed)
            .with_point(RunPoint::test("STREAM", 2, 1))
            .with_point(RunPoint::test("OSU", 2, 2));
        // The schedule ends just past 1 s (the second job's submit
        // time): several slices per campaign, most of them silent.
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
        let emits = shard.drain(&registry, None).unwrap();
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

    #[test]
    fn snapshot_restore_at_every_unit_boundary_is_byte_identical() {
        let registry = registry();
        let specs = [tiny_spec("a", "c1", 1), tiny_spec("b", "c2", 2)];
        let reference = shard_with(&specs).drain(&registry, None).unwrap();

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
            emits.extend(restored.drain(&registry, None).unwrap());
            assert_eq!(emits, reference, "kill at unit {kill_at} diverged");
        }
        assert!(
            mid_schedule >= 2,
            "only {mid_schedule} kill points fell between two slices of one campaign"
        );
    }

    #[test]
    fn migration_preserves_the_frame_stream() {
        let registry = registry();
        let specs = [tiny_spec("a", "c1", 1)];
        let reference = shard_with(&specs).drain(&registry, None).unwrap();

        for move_at in 0..count_units(&registry, &specs) {
            let mut origin = shard_with(&specs);
            let mut emits = Vec::new();
            for _ in 0..move_at {
                emits.extend(origin.step(&registry));
            }
            let envelope = origin.extract(1).expect("campaign is in flight");
            assert!(origin.idle());

            let mut target = ShardState::new(1, 64);
            assert_eq!(target.adopt(&envelope).unwrap(), 1);
            emits.extend(target.drain(&registry, None).unwrap());
            assert_eq!(emits, reference, "move at unit {move_at} diverged");
        }
    }

    #[test]
    fn forged_campaign_envelopes_are_refused_at_adopt() {
        let registry = registry();
        let mut origin = ShardState::new(0, 64);
        origin.submit(1, 10, tiny_spec("a", "c1", 1));
        while origin.queue[0].sched.is_none() {
            origin.step(&registry);
        }
        let before = origin.clone();
        let state_bytes = origin.queue[0].sched.as_ref().unwrap().state.snapshot();
        let envelope = origin.extract(1).expect("campaign is in flight");

        // Swap the embedded scheduler state for a validly sealed one
        // whose running count lies, and seal the campaign again.
        let payload = open(CAMPAIGN_KIND, &envelope).unwrap();
        let at = payload
            .windows(state_bytes.len())
            .position(|w| w == state_bytes)
            .expect("the envelope embeds the state's own snapshot");
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
        assert!(matches!(
            target.adopt(&seal(CAMPAIGN_KIND, &forged)),
            Err(CkptError::Truncated { .. })
        ));
        // Progress that disagrees with itself: `next_point` (the field
        // after the spec blob) says 1, the envelope still holds 2 rows.
        let spec_len = u64::from_le_bytes(payload[16..24].try_into().unwrap()) as usize;
        let mut torn = payload.clone();
        torn[24 + spec_len..32 + spec_len].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            target.adopt(&seal(CAMPAIGN_KIND, &torn)),
            Err(CkptError::Malformed { .. })
        ));
        assert!(target.idle(), "a refused envelope leaves nothing behind");
        // The genuine envelope still goes home, as `Server::migrate`
        // sends it when the target refuses.
        origin.adopt(&envelope).unwrap();
        assert_eq!(origin, before);
    }

    #[test]
    fn warm_resubmission_hits_and_matches_cold_bytes() {
        let registry = registry();
        let mut shard = ShardState::new(0, 64);
        shard.submit(1, 10, tiny_spec("a", "c1", 1));
        let cold = shard.drain(&registry, None).unwrap();
        assert_eq!(shard.cache().stats().hits, 0);

        // Same spec again: every point hits, artifacts byte-identical
        // modulo the campaign id (use the same id to compare directly).
        shard.submit(1, 10, tiny_spec("a", "c1", 1));
        let warm = shard.drain(&registry, None).unwrap();
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
