//! The deterministic virtual-time batch scheduler: FIFO or conservative
//! backfill over a [`Machine`], with fault-driven capacity loss.
//!
//! The simulation is a discrete-event loop over virtual time, and the
//! campaign's future is its state: the next instant anything happens is
//! the earliest of the unconsumed crash, drain-start, drain-end and
//! submission cursors, the running attempts' end times and the pending
//! jobs' retry-eligibility times. Time jumps from one such instant to
//! the next, so a campaign costs O(instants) no matter how sparse its
//! virtual timeline is. All state lives in ordered containers and
//! every tie is broken by `(priority, eligible time, job id)`, so an
//! identical seed and job set produces a bit-identical
//! [`Schedule::log`] — the same determinism contract as
//! `jubench-faults`. An empty fault plan leaves the schedule identical
//! to a fault-free run.
//!
//! Four modules hold the scheduler's four decisions. This one holds the
//! policies, the runtime model and the loop — [`Scheduler::advance`]
//! reads the next instant off the state and runs the per-instant
//! handlers there once, in a pinned order; `state` is what is stored
//! between instants, `backfill` decides who starts, `schedule` is what a
//! finished campaign is.
//!
//! **Faults.** The scheduler reads a [`FaultPlan`] at node granularity:
//! `SlowNode { node, from_s, until_s }` drains the node for the window
//! (capacity removed, jobs running on it preempted) and
//! `RankCrash { rank, at_s }` crashes node `rank` permanently. Preempted
//! jobs requeue under their [`RetryPolicy`](jubench_faults::RetryPolicy):
//! each preemption consumes an attempt and charges the policy's backoff
//! before the job is eligible again; exhaustion fails the job.
//!
//! **Checkpointing.** A job with a [`CkptSpec`] writes a checkpoint
//! every `interval_s` of (placement-inflated) work at `cost_s` wall time
//! per write. A preempted checkpointing job banks the work covered by
//! its completed checkpoints ([`CampaignState`] tracks the credit as
//! ideal service time), so its requeued attempt only redoes the interval
//! since the last write — instead of the whole attempt.

use std::collections::BTreeSet;

use jubench_ckpt::CkptError;
use jubench_cluster::{Machine, NetModel};
use jubench_faults::{Fault, FaultPlan};

use crate::job::{CkptSpec, Job};
use crate::placement::PlacementPolicy;
pub use crate::schedule::{Attempt, JobOutcome, JobRecord, Schedule, UtilSegment};
pub use crate::state::CampaignState;
use crate::state::{Pending, Running};

/// Queueing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueuePolicy {
    /// Strict priority order with head-of-line blocking: the first job
    /// that does not fit stalls everything behind it.
    Fifo,
    /// Conservative backfill: lower-priority jobs may jump ahead when
    /// doing so cannot delay any higher-priority reservation.
    ConservativeBackfill,
}

impl QueuePolicy {
    pub fn label(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::ConservativeBackfill => "backfill",
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    pub policy: QueuePolicy,
    pub placement: PlacementPolicy,
    /// Determinism tag recorded in the schedule log. The scheduler itself
    /// draws no randomness — stochastic faults carry their own seed in
    /// the [`FaultPlan`] — but the seed keys the log so that runs are
    /// comparable bit-for-bit only when they were meant to be.
    pub seed: u64,
}

impl SchedulerConfig {
    pub fn new(policy: QueuePolicy, placement: PlacementPolicy, seed: u64) -> Self {
        SchedulerConfig {
            policy,
            placement,
            seed,
        }
    }
}

/// The batch scheduler over one machine and network model.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduler {
    pub(crate) machine: Machine,
    pub(crate) net: NetModel,
    pub(crate) config: SchedulerConfig,
}

/// One node-granularity capacity event, `(time, node, until)`: a drain
/// window's start carries the window's end.
type NodeEvent = (f64, u32, f64);

/// The plan's capacity events — drains are `[from, until)` windows,
/// crashes permanent — each list in `(time, node)` order. Deterministic
/// in the plan, so [`CampaignState`] can store bare cursors into them.
#[derive(Default)]
struct CapacityEvents {
    drain_starts: Vec<NodeEvent>,
    drain_ends: Vec<NodeEvent>,
    crashes: Vec<NodeEvent>,
}

impl CapacityEvents {
    /// Read `plan` at node granularity on a machine of `nodes` nodes.
    fn of(plan: &FaultPlan, nodes: u32) -> Self {
        let mut ev = CapacityEvents::default();
        for f in plan.faults() {
            let (from, node, until) = match *f {
                Fault::SlowNode {
                    node,
                    from_s,
                    until_s,
                    ..
                } if node < nodes => (from_s, node, until_s),
                Fault::RankCrash { rank, at_s } if rank < nodes => (at_s, rank, f64::INFINITY),
                _ => continue,
            };
            if until.is_finite() {
                ev.drain_starts.push((from, node, until));
                ev.drain_ends.push((until, node, until));
            } else {
                // An unbounded slow window is a permanent drain.
                ev.crashes.push((from, node, until));
            }
        }
        for list in [&mut ev.drain_starts, &mut ev.drain_ends, &mut ev.crashes] {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        ev
    }
}

impl Scheduler {
    pub fn new(machine: Machine, net: NetModel, config: SchedulerConfig) -> Self {
        Scheduler {
            machine,
            net,
            config,
        }
    }

    /// Checkpoint writes scheduled into `work_dur` of wall-clock work:
    /// one per full interval, except that no write follows the final
    /// stretch (the job finishes instead).
    fn planned_writes(spec: CkptSpec, work_dur: f64) -> u32 {
        ((work_dur / spec.interval_s).ceil() as u32).saturating_sub(1)
    }

    /// Runtime of an attempt that owes `remaining_s` of `job`'s ideal
    /// service when its communication share runs `comm_penalty` times
    /// slower — on an allocation, its placement
    /// [`slowdown`](crate::Allocation::slowdown) — and the checkpoint
    /// writes that much work schedules, each adding its cost.
    pub(crate) fn runtime(job: &Job, comm_penalty: f64, remaining_s: f64) -> (f64, u32) {
        let work = remaining_s * ((1.0 - job.comm_fraction) + job.comm_fraction * comm_penalty);
        match job.ckpt {
            Some(spec) => {
                let writes = Self::planned_writes(spec, work);
                (work + writes as f64 * spec.cost_s, writes)
            }
            None => (work, 0),
        }
    }

    /// Upper bound on [`Self::runtime`] over every possible allocation:
    /// full cross-cell traffic over the whole machine's footprint (plus
    /// the checkpoint writes that worst-case work schedules).
    /// Reservation durations use this, so actual runs always finish no
    /// later than reserved — the conservative-backfill guarantee
    /// depends on it.
    pub(crate) fn worst_case_runtime(&self, job: &Job, remaining_s: f64) -> f64 {
        let congestion = self.net.congestion_factor(self.machine.nodes);
        let penalty =
            (self.net.intra_cell.bandwidth / (self.net.inter_cell.bandwidth * congestion)).max(1.0);
        Self::runtime(job, penalty, remaining_s).0
    }

    /// Run the scheduler over `jobs` under `plan`. See the module docs
    /// for the fault interpretation and determinism contract. Equivalent
    /// to [`Self::begin`] + [`Self::advance`] to completion +
    /// [`Self::finish`].
    pub fn run(&self, jobs: &[Job], plan: &FaultPlan) -> Schedule {
        let mut state = self.begin(jobs);
        self.advance(&mut state, jobs, plan, f64::INFINITY);
        self.finish(state)
    }

    /// Fresh campaign state for `jobs`: nothing submitted, virtual time
    /// zero, the log holding only its header line.
    pub fn begin(&self, jobs: &[Job]) -> CampaignState {
        CampaignState {
            t: 0.0,
            free: (0..self.machine.nodes).collect(),
            down: BTreeSet::new(),
            crashed: BTreeSet::new(),
            running: Vec::new(),
            pending: Vec::new(),
            submitted: vec![false; jobs.len()],
            di: 0,
            ei: 0,
            ci: 0,
            service_done: vec![0.0; jobs.len()],
            records: jobs
                .iter()
                .map(|j| JobRecord {
                    id: j.id,
                    name: j.name.clone(),
                    nodes: j.nodes,
                    priority: j.priority,
                    submit_s: j.submit_s,
                    attempts: Vec::new(),
                    allocation: Vec::new(),
                    outcome: JobOutcome::Failed,
                    end_s: None,
                    ckpt: j.ckpt,
                })
                .collect(),
            log: vec![format!(
                "# sched machine={} nodes={} cells={} policy={} placement={} seed={}",
                self.machine.name,
                self.machine.nodes,
                self.machine.cells(),
                self.config.policy.label(),
                self.config.placement.label(),
                self.config.seed,
            )],
            done: false,
        }
    }

    /// Restore a campaign snapshot taken by
    /// [`CampaignState::snapshot`](jubench_ckpt::Checkpointable::snapshot)
    /// and verify it matches `jobs` and this machine. The same jobs and
    /// plan must be passed to the subsequent [`Self::advance`] calls —
    /// the snapshot stores neither.
    pub fn resume(&self, bytes: &[u8], jobs: &[Job]) -> Result<CampaignState, CkptError> {
        CampaignState::from_snapshot(bytes, Some((jobs, self.machine.nodes)))
    }

    /// The next instant anything happens in `state` — the first one
    /// [`Self::advance`] would process — or `INFINITY` once nothing is
    /// left. An `advance` to any time below it leaves the state
    /// untouched; one to it processes that instant (or, at `INFINITY`,
    /// completes the campaign). `jobs` and `plan` are `advance`'s.
    pub fn next_instant(&self, state: &CampaignState, jobs: &[Job], plan: &FaultPlan) -> f64 {
        if state.done {
            return f64::INFINITY;
        }
        let timeline = Timeline::of(self, jobs, plan);
        timeline.next_instant(jobs, state, timeline.cursor(state))
    }

    /// Drive the event loop until the next event lies beyond `until_s`
    /// (or the campaign completes; returns `true` then). The state stops
    /// with every event at `state.now() ≤ until_s` fully processed, so
    /// stopping, snapshotting, restoring and continuing is invisible in
    /// the log: a call whose window holds no event runs no handler and
    /// leaves the state untouched. `jobs` and `plan` must be the ones
    /// the state was begun with.
    ///
    /// Virtual time advances to the next instant the state itself names
    /// — the earliest unconsumed crash, drain edge or submission, the
    /// earliest running end time, the earliest future retry-eligibility
    /// time — and the per-instant handlers run there exactly once, in
    /// the order they stand here (every byte-identity artifact depends
    /// on it). Log lines written count under `sched/events_processed`,
    /// skipped idle virtual seconds under `events/ticks_skipped`.
    pub fn advance(
        &self,
        state: &mut CampaignState,
        jobs: &[Job],
        plan: &FaultPlan,
        until_s: f64,
    ) -> bool {
        if state.done {
            return true;
        }
        let mut at = Handlers::new(self, jobs, plan, state);
        let mut next = at.next_instant();
        // A silent slice — most of a sparse campaign's — records nothing,
        // not even the scope.
        if next > until_s && next != f64::INFINITY {
            return false;
        }
        jubench_metrics::profile_scope!("sched/advance");
        loop {
            if next == f64::INFINITY {
                at.state.done = true;
                break;
            }
            if next > until_s {
                break;
            }
            jubench_metrics::counter_add("events/ticks_skipped", (next - at.state.t) as u64);
            jubench_metrics::counter_add("sched/advance_steps", 1);
            // A running attempt may end at `now` itself (a run time
            // below the clock's resolution at its start instant); it is
            // handled at `now` again.
            at.state.t = next.max(at.state.t);
            // Every scheduler event (finish/crash/drain/submit/preempt/
            // start) appends exactly one log line, so the per-step log
            // growth is the processed-event count.
            let log_lines_before = at.state.log.len();
            // Nodes that leave service at this instant.
            let mut hit = BTreeSet::new();
            at.finish();
            at.crash(&mut hit);
            at.drain_start(&mut hit);
            at.drain_end();
            at.preempt(&hit);
            at.submit();
            at.prune();
            self.dispatch(jobs, at.state);
            jubench_metrics::counter_add(
                "sched/events_processed",
                (at.state.log.len() - log_lines_before) as u64,
            );
            next = at.next_instant();
        }
        at.state.done
    }

    /// Seal a campaign state into a [`Schedule`]: the makespan over the
    /// attempts recorded so far, the log closed by its trailer line.
    /// Straight-through and stop/snapshot/resume runs of the same
    /// campaign produce byte-identical logs here.
    pub fn finish(&self, state: CampaignState) -> Schedule {
        let (records, mut log) = (state.records, state.log);
        let makespan_s = records
            .iter()
            .flat_map(|r| r.attempts.iter().map(|a| a.end_s))
            .fold(0.0_f64, f64::max);
        log.push(format!("# makespan={makespan_s:.6}"));
        Schedule {
            machine: self.machine,
            records,
            log,
            makespan_s,
        }
    }
}

/// One [`Scheduler::advance`] call's view of its campaign, with the
/// handlers of one instant as methods: each acts at `state.t` and logs
/// one line per event it processes.
struct Handlers<'a> {
    sched: &'a Scheduler,
    jobs: &'a [Job],
    timeline: Timeline,
    /// Jobs of `timeline.submit_order` submitted so far.
    si: usize,
    state: &'a mut CampaignState,
}

/// What a campaign's future is read from besides its state, fixed for
/// the whole campaign: the plan's capacity events and the submission
/// order.
struct Timeline {
    events: CapacityEvents,
    /// Job indices in `(submit time, id)` order. The submitted set is
    /// always a prefix of it (every instant submits everything due), so
    /// one sort plus a cursor is enough.
    submit_order: Vec<usize>,
}

impl Timeline {
    fn of(sched: &Scheduler, jobs: &[Job], plan: &FaultPlan) -> Self {
        let mut submit_order: Vec<usize> = (0..jobs.len()).collect();
        submit_order.sort_by(|&a, &b| {
            jobs[a]
                .submit_s
                .total_cmp(&jobs[b].submit_s)
                .then(jobs[a].id.cmp(&jobs[b].id))
        });
        Timeline {
            events: CapacityEvents::of(plan, sched.machine.nodes),
            submit_order,
        }
    }

    /// The submission cursor of `s`: how many jobs it has submitted.
    fn cursor(&self, s: &CampaignState) -> usize {
        let si = s.submitted.iter().filter(|&&s| s).count();
        debug_assert!(
            !self.submit_order[si..].iter().any(|idx| s.submitted[*idx]),
            "submitted set must be a prefix of the submission order"
        );
        si
    }

    /// The next instant anything happens in `s`, whose submission cursor
    /// is `si` (`INFINITY`: never). Drain ends only matter while
    /// something is drained or queued: a gated one is consumed silently
    /// by the drain-end cursor at the next instant.
    fn next_instant(&self, jobs: &[Job], s: &CampaignState, si: usize) -> f64 {
        let capacity_churns = !s.pending.is_empty() || !s.down.is_empty();
        let drain_end = self.events.drain_ends.get(s.ei).map(|e| e.0);
        [
            self.events.crashes.get(s.ci).map(|c| c.0),
            self.events.drain_starts.get(s.di).map(|d| d.0),
            drain_end.filter(|_| capacity_churns),
            self.submit_order.get(si).map(|&idx| jobs[idx].submit_s),
        ]
        .into_iter()
        .flatten()
        .chain(s.running.iter().map(|r| r.end_s))
        .chain(s.pending.iter().map(|p| p.eligible_s).filter(|&e| e > s.t))
        .fold(f64::INFINITY, f64::min)
    }
}

impl<'a> Handlers<'a> {
    fn new(
        sched: &'a Scheduler,
        jobs: &'a [Job],
        plan: &FaultPlan,
        state: &'a mut CampaignState,
    ) -> Self {
        let timeline = Timeline::of(sched, jobs, plan);
        let si = timeline.cursor(state);
        Handlers {
            sched,
            jobs,
            timeline,
            si,
            state,
        }
    }

    /// The next instant anything happens, read off the state.
    fn next_instant(&self) -> f64 {
        self.timeline.next_instant(self.jobs, self.state, self.si)
    }

    /// Attempts whose end time has come complete, in `(end, job)` order.
    fn finish(&mut self) {
        let s = &mut *self.state;
        let t = s.t;
        s.running
            .sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.idx.cmp(&b.idx)));
        let ended: Vec<Running> = s.running.extract_if(.., |r| r.end_s <= t).collect();
        for r in ended {
            s.release(&r.alloc);
            let rec = &mut s.records[r.idx];
            rec.outcome = JobOutcome::Finished;
            rec.end_s = Some(r.end_s);
            s.log.push(format!(
                "[t={t:.6}] finish job {} name={}",
                rec.id, rec.name
            ));
        }
    }

    /// Crashes due by now take their node out of service for good.
    fn crash(&mut self, hit: &mut BTreeSet<u32>) {
        let s = &mut *self.state;
        while let Some(&(_, node, _)) = self
            .timeline
            .events
            .crashes
            .get(s.ci)
            .filter(|c| c.0 <= s.t)
        {
            s.ci += 1;
            if s.crashed.insert(node) {
                s.down.insert(node);
                s.free.remove(&node);
                hit.insert(node);
                s.log.push(format!("[t={:.6}] crash node {node}", s.t));
            }
        }
    }

    /// Drain windows opening by now take their node out of service.
    fn drain_start(&mut self, hit: &mut BTreeSet<u32>) {
        let s = &mut *self.state;
        let starts = &self.timeline.events.drain_starts;
        while let Some(&(_, node, until)) = starts.get(s.di).filter(|d| d.0 <= s.t) {
            s.di += 1;
            if !s.crashed.contains(&node) && s.down.insert(node) {
                s.free.remove(&node);
                hit.insert(node);
                s.log
                    .push(format!("[t={:.6}] drain node {node} until={until:.6}", s.t));
            }
        }
    }

    /// Drain windows closing by now return their node to service. It
    /// cannot be occupied: its jobs were preempted at drain start.
    fn drain_end(&mut self) {
        let s = &mut *self.state;
        while let Some(&(_, node, _)) = self
            .timeline
            .events
            .drain_ends
            .get(s.ei)
            .filter(|e| e.0 <= s.t)
        {
            s.ei += 1;
            if !s.crashed.contains(&node) && s.down.remove(&node) {
                s.free.insert(node);
                s.log.push(format!("[t={:.6}] undrain node {node}", s.t));
            }
        }
    }

    /// Running attempts that lost a node at this instant end here: the
    /// job banks what its checkpoints cover and requeues under its retry
    /// policy, or fails once that is exhausted.
    fn preempt(&mut self, hit: &BTreeSet<u32>) {
        let s = &mut *self.state;
        let t = s.t;
        if hit.is_empty() {
            return;
        }
        let lost_a_node = |r: &mut Running| r.alloc.nodes.iter().any(|n| hit.contains(n));
        let cut: Vec<Running> = s.running.extract_if(.., lost_a_node).collect();
        for r in cut {
            s.release(&r.alloc);
            let job = &self.jobs[r.idx];
            let rec = &mut s.records[r.idx];
            let a = &mut rec.attempts[r.attempt_index];
            a.end_s = t;
            a.preempted = true;
            let elapsed = t - a.start_s;
            a.lost_s = elapsed;
            if let Some(spec) = job.ckpt {
                // Bank the work covered by completed writes (each write
                // lands after a full interval of work); only progress
                // past the last write is lost. Past the final planned
                // write the job computes straight to its end, so the
                // in-segment progress is unclamped there.
                let slot = spec.interval_s + spec.cost_s;
                let k = if slot > 0.0 {
                    ((elapsed / slot).floor() as u32).min(a.ckpts)
                } else {
                    a.ckpts
                };
                let banked_work = k as f64 * spec.interval_s;
                let into_seg = elapsed - k as f64 * slot;
                let done_work = banked_work
                    + if k < a.ckpts {
                        into_seg.clamp(0.0, spec.interval_s)
                    } else {
                        into_seg.max(0.0)
                    };
                a.ckpts = k;
                a.lost_s = done_work - banked_work;
                let mix = (1.0 - job.comm_fraction) + job.comm_fraction * a.slowdown;
                s.service_done[r.idx] += banked_work / mix;
            }
            let attempt = rec.attempts.len() as u32;
            if attempt >= job.retry.max_attempts {
                rec.outcome = JobOutcome::Failed;
                s.log.push(format!(
                    "[t={t:.6}] fail job {} name={} attempts={attempt} (retries exhausted)",
                    rec.id, rec.name
                ));
                continue;
            }
            let eligible_s = t + job.retry.backoff_s(attempt);
            let banked = match job.ckpt {
                Some(_) => format!(" banked={:.6}", s.service_done[r.idx]),
                None => String::new(),
            };
            s.log.push(format!(
                "[t={t:.6}] preempt job {} name={} requeue eligible={eligible_s:.6}{banked}",
                rec.id, rec.name
            ));
            s.pending.push(Pending {
                idx: r.idx,
                eligible_s,
                attempt,
            });
        }
    }

    /// Jobs whose submit time has come enter the queue.
    fn submit(&mut self) {
        let (t, jobs) = (self.state.t, self.jobs);
        while let Some(&idx) = self.timeline.submit_order.get(self.si) {
            let job = &jobs[idx];
            if job.submit_s > t {
                break;
            }
            self.si += 1;
            self.state.submitted[idx] = true;
            self.state.log.push(format!(
                "[t={t:.6}] submit job {} name={} nodes={} prio={}",
                job.id, job.name, job.nodes, job.priority
            ));
            if self.can_ever_fit(idx) {
                self.state.pending.push(Pending {
                    idx,
                    eligible_s: job.submit_s,
                    attempt: 0,
                });
            }
        }
    }

    /// Requests can outlive capacity lost to later crashes: fail the
    /// queued ones that do. (Only an instant with a crash finds any:
    /// every other path into `pending` checks capacity on entry.)
    fn prune(&mut self) {
        let mut pending = std::mem::take(&mut self.state.pending);
        pending.retain(|p| self.can_ever_fit(p.idx));
        self.state.pending = pending;
    }

    /// Whether job `idx` requests no more nodes than survive. One that
    /// does can never start: it fails here, with its log line.
    fn can_ever_fit(&mut self, idx: usize) -> bool {
        let (s, job) = (&mut *self.state, &self.jobs[idx]);
        let alive = self.sched.machine.nodes - s.crashed.len() as u32;
        if job.nodes > alive {
            s.records[idx].outcome = JobOutcome::Failed;
            s.log.push(format!(
                "[t={:.6}] fail job {} name={} (requests {} of {alive} surviving nodes)",
                s.t, job.id, job.name, job.nodes
            ));
        }
        job.nodes <= alive
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::juwels_booster().partition(96)
    }

    fn net() -> NetModel {
        NetModel {
            congestion_onset_nodes: 16,
            ..NetModel::juwels_booster()
        }
    }

    pub(crate) fn sched(policy: QueuePolicy, placement: PlacementPolicy) -> Scheduler {
        Scheduler::new(machine(), net(), SchedulerConfig::new(policy, placement, 7))
    }

    #[test]
    fn single_job_runs_immediately() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "a", 8, 2.0)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.finished(), 1);
        let r = &out.records[0];
        assert_eq!(r.first_wait_s(), Some(0.0));
        assert_eq!(r.end_s, Some(2.0));
        assert_eq!(out.makespan_s, 2.0);
        assert_eq!(
            out.utilization_timeline(),
            vec![UtilSegment {
                t_start: 0.0,
                t_end: 2.0,
                busy_nodes: 8,
            }]
        );
    }

    #[test]
    fn schedule_log_is_bit_identical_across_runs() {
        let s = sched(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
        );
        let jobs: Vec<Job> = (0..12)
            .map(|i| {
                Job::new(i, &format!("j{i}"), 8 + (i % 5) * 16, 1.0 + i as f64 * 0.3)
                    .with_comm_fraction(0.5)
                    .with_priority((i % 3) as i32)
                    .with_submit(i as f64 * 0.4)
            })
            .collect();
        let plan = FaultPlan::new(9)
            .with_slow_node_window(5, 4.0, 1.0, 3.0)
            .with_rank_crash(40, 2.5);
        let a = s.run(&jobs, &plan);
        let b = s.run(&jobs, &plan);
        assert_eq!(a.log, b.log, "bit-identical decision log");
        assert_eq!(a.makespan_s, b.makespan_s);
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run() {
        let s = sched(QueuePolicy::ConservativeBackfill, PlacementPolicy::Scatter);
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(i, &format!("j{i}"), 24, 1.5).with_submit(i as f64 * 0.2))
            .collect();
        let empty = s.run(&jobs, &FaultPlan::new(123));
        let none = s.run(&jobs, &FaultPlan::new(456));
        // The seed lives in the plan's stochastic draws only; an empty
        // plan of any seed schedules identically.
        assert_eq!(empty.log, none.log);
    }

    #[test]
    fn contiguous_beats_scatter_on_congested_campaign() {
        // Congestion-sensitive jobs on a 2-cell machine: every job fits a
        // single cell under Contiguous (slowdown 1) but straddles both
        // cells under Scatter.
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::new(i, &format!("j{i}"), 48, 2.0).with_comm_fraction(0.6))
            .collect();
        let plan = FaultPlan::new(0);
        let contiguous = sched(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
        )
        .run(&jobs, &plan);
        let scatter =
            sched(QueuePolicy::ConservativeBackfill, PlacementPolicy::Scatter).run(&jobs, &plan);
        assert!(contiguous.machine.cells() >= 2);
        assert!(
            contiguous.makespan_s < scatter.makespan_s,
            "contiguous {} !< scatter {}",
            contiguous.makespan_s,
            scatter.makespan_s
        );
    }

    #[test]
    fn drain_preempts_and_requeues() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![
            Job::new(0, "victim", 8, 4.0).with_retry(jubench_faults::RetryPolicy::new(3, 0.5))
        ];
        // Node 3 drains during [1, 2): the job is preempted at t=1 and
        // requeues with 0.5 s backoff. At t=1.5 the machine still has 95
        // healthy free nodes, so the restart routes around node 3.
        let plan = FaultPlan::new(0).with_slow_node_window(3, 8.0, 1.0, 2.0);
        let out = s.run(&jobs, &plan);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Finished);
        assert_eq!(r.attempts.len(), 2);
        assert!(r.attempts[0].preempted);
        assert_eq!(r.attempts[0].end_s, 1.0);
        assert_eq!(r.attempts[1].start_s, 1.5);
        assert!(!r.allocation.contains(&3), "drained node routed around");
        assert_eq!(r.end_s, Some(5.5));
        assert_eq!(r.preemptions(), 1);
    }

    #[test]
    fn crash_exhausts_retries_into_failure() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        // The machine keeps 95 nodes after the crash, but the job insists
        // on 96: it fails at requeue time.
        let jobs = vec![Job::new(0, "doomed", 96, 4.0)];
        let plan = FaultPlan::new(0).with_rank_crash(10, 1.0);
        let out = s.run(&jobs, &plan);
        assert_eq!(out.records[0].outcome, JobOutcome::Failed);
        assert_eq!(out.finished(), 0);
    }

    #[test]
    fn crashed_node_is_never_reallocated() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![
            Job::new(0, "first", 96, 2.0),
            Job::new(1, "second", 95, 1.0).with_submit(0.1),
        ];
        let plan = FaultPlan::new(0).with_rank_crash(0, 1.0);
        let out = s.run(&jobs, &plan);
        let r1 = &out.records[1];
        assert_eq!(r1.outcome, JobOutcome::Finished);
        assert!(!r1.allocation.contains(&0), "node 0 stayed dark");
    }

    #[test]
    fn checkpointing_banks_progress_across_preemption() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let base =
            Job::new(0, "victim", 8, 8.0).with_retry(jubench_faults::RetryPolicy::new(3, 0.5));
        // Node 3 drains during [6, 7): the job is preempted 6 s in.
        let plan = FaultPlan::new(0).with_slow_node_window(3, 8.0, 6.0, 7.0);
        let plain = s.run(std::slice::from_ref(&base), &plan);
        let ckpt = s.run(&[base.with_checkpointing(1.0, 0.01)], &plan);
        // Without checkpoints the restart redoes all 6 s: 6.5 + 8.
        assert_eq!(plain.records[0].end_s, Some(14.5));
        let r = &ckpt.records[0];
        assert_eq!(r.attempts.len(), 2);
        // Five writes completed by t=6 (each costs 1.01 s of wall time),
        // banking 5 s of the 8 s of work; 0.95 s since the fifth write is
        // the only work lost.
        assert_eq!(r.attempts[0].ckpts, 5);
        assert!((r.attempts[0].lost_s - 0.95).abs() < 1e-9);
        assert!((r.attempts[1].resumed_service_s - 5.0).abs() < 1e-9);
        // Restart owes 3 s plus two remaining writes: 6.5 + 3.02.
        assert!((r.end_s.unwrap() - 9.52).abs() < 1e-9);
        assert!(ckpt.makespan_s < plain.makespan_s);
        assert!(
            ckpt.log
                .iter()
                .any(|l| l.contains("ckpts=7 resumed=0.000000")),
            "first start line plans seven writes: {:?}",
            ckpt.log
        );
        assert!(
            ckpt.log.iter().any(|l| l.contains("banked=5.000000")),
            "preempt line reports the banked credit: {:?}",
            ckpt.log
        );
    }

    /// Regression-pins the per-instant handler order: at one shared
    /// timestamp, a finishing job logs first, then the crash, then the
    /// drain start, then the drain end (of an earlier window), then
    /// submissions — the order the handlers appear in
    /// [`Scheduler::advance`]. Every byte-identity artifact depends on
    /// it.
    #[test]
    fn same_instant_capacity_events_keep_handler_order() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        // Job 0 finishes at exactly t=3; job 1 submits at t=3.
        let jobs = vec![
            Job::new(0, "done-at-3", 8, 3.0),
            Job::new(1, "late", 8, 1.0).with_submit(3.0),
        ];
        // Node 90 drains over [1, 3) (ends at t=3), node 91 starts
        // draining at t=3, node 92 crashes at t=3. None of them touch
        // the contiguous 8-node allocation at nodes 0..7.
        let plan = FaultPlan::new(0)
            .with_slow_node_window(90, 4.0, 1.0, 3.0)
            .with_slow_node_window(91, 4.0, 3.0, 5.0)
            .with_rank_crash(92, 3.0);
        let out = s.run(&jobs, &plan);
        let at_3: Vec<&String> = out
            .log
            .iter()
            .filter(|l| l.starts_with("[t=3.000000]"))
            .collect();
        let kinds: Vec<&str> = at_3
            .iter()
            .map(|l| {
                // "undrain" before "drain node": the latter is a
                // substring of the former's lines.
                [
                    "finish",
                    "crash",
                    "undrain",
                    "drain node",
                    "submit",
                    "start",
                ]
                .into_iter()
                .find(|k| l.contains(k))
                .expect("recognized log line")
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "finish",
                "crash",
                "drain node",
                "undrain",
                "submit",
                "start"
            ],
            "same-instant handler order: {at_3:?}"
        );
    }

    /// `next_instant` is the first instant `advance` processes: an
    /// advance to just below it changes nothing, one to it moves the
    /// clock there and mostly logs (a requeued job whose eligibility
    /// comes while it still does not fit logs nothing) — walked instant
    /// by instant over seeded FIFO and backfill campaigns under drain and
    /// crash plans, to the straight-through run's log.
    #[test]
    fn next_instant_is_the_first_instant_advance_processes() {
        for seed in 0..24u64 {
            let rng = &mut jubench_faults::rank_rng(0x1257 + seed, 3);
            let policy = [QueuePolicy::Fifo, QueuePolicy::ConservativeBackfill][seed as usize % 2];
            let s = sched(policy, PlacementPolicy::Contiguous);
            let jobs: Vec<Job> = (0..rng.gen_range(2u32..10))
                .map(|i| {
                    let work = 0.1 + 4.0 * rng.gen_f64();
                    Job::new(i, &format!("j{i}"), rng.gen_range(1u32..97), work)
                        .with_comm_fraction(rng.gen_f64())
                        .with_priority(rng.gen_range(0u32..3) as i32)
                        .with_submit(4.0 * rng.gen_f64())
                        .with_retry(jubench_faults::RetryPolicy::new(3, 0.5))
                })
                .collect();
            let plan = FaultPlan::new(seed)
                .with_slow_node_window(rng.gen_range(0u32..96), 4.0, 1.0, 3.0)
                .with_rank_crash(rng.gen_range(0u32..96), 2.5);
            let mut state = s.begin(&jobs);
            let (mut instants, mut logged) = (0, 0);
            loop {
                let next = s.next_instant(&state, &jobs, &plan);
                if next == f64::INFINITY {
                    assert!(s.advance(&mut state, &jobs, &plan, f64::NEG_INFINITY));
                    break;
                }
                let before = state.clone();
                assert!(!s.advance(&mut state, &jobs, &plan, next.next_down()));
                assert_eq!(state, before, "seed {seed}: an advance below {next} acted");
                s.advance(&mut state, &jobs, &plan, next);
                assert_eq!(state.now(), next, "seed {seed}");
                assert_ne!(state, before, "seed {seed}: nothing processed at {next}");
                logged += usize::from(state.log().len() > before.log().len());
                instants += 1;
            }
            assert_eq!(s.next_instant(&state, &jobs, &plan), f64::INFINITY);
            assert!(instants >= jobs.len(), "seed {seed}: {instants} instants");
            assert!(
                2 * logged > instants,
                "seed {seed}: {logged} of {instants} logged"
            );
            assert_eq!(s.finish(state).log, s.run(&jobs, &plan).log, "seed {seed}");
        }
    }

    /// A run time below the clock's resolution at the start instant
    /// gives `end_s == t`: the attempt must still finish, at `t`.
    #[test]
    fn sub_resolution_job_finishes() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "blip", 2, 1e-9).with_submit(1.0e9)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.records[0].attempts[0].end_s, 1.0e9, "end_s == t");
        assert_eq!(out.finished(), 1);
        assert_eq!(out.records[0].end_s, Some(1.0e9));
        assert!(
            out.log.iter().any(|l| l.contains("finish job 0")),
            "{:?}",
            out.log
        );
    }
}
