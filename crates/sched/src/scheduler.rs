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
//! **Conservative backfill.** At every dispatch point the queue is walked
//! in priority order and each job is given the earliest start compatible
//! with the running jobs and the *reservations of every job ahead of it*;
//! a job starts now only when that earliest start is now. Reservations
//! use each job's worst-case runtime (scatter placement over the whole
//! machine), an upper bound on any actual runtime, so a backfilled job
//! can never push a higher-priority reservation later — the classic
//! conservative guarantee, by construction.
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
//!
//! **Snapshot/resume.** The event loop runs over an explicit
//! [`CampaignState`] which implements
//! [`Checkpointable`]:
//! [`Scheduler::begin`] / [`Scheduler::advance`] / [`Scheduler::finish`]
//! expose the loop stepwise, so a campaign can be stopped at any virtual
//! time, snapshotted, restored (even in another process) and resumed to
//! a bit-identical [`Schedule::log`]. [`Scheduler::resume`] refuses a
//! corrupt or mismatched snapshot with a typed [`CkptError`].

use std::collections::BTreeSet;

use jubench_ckpt::{
    open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter, WriteTimes,
};
use jubench_cluster::{Machine, NetModel};
use jubench_faults::{Fault, FaultPlan};
use jubench_trace::{EventKind, SchedPhase, TraceEvent, TraceSink, SCHED_CELL_TRACK_BASE};

use crate::job::{CkptSpec, Job};
use crate::placement::{Allocation, PlacementPolicy};

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
#[derive(Debug, Clone, Copy)]
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

/// Why a job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Finished,
    /// Preemptions exhausted the retry policy, or the request could never
    /// fit the machine's surviving capacity.
    Failed,
}

/// One execution attempt of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    pub start_s: f64,
    pub end_s: f64,
    /// Cell of the attempt's first node — its Chrome track.
    pub cell: u32,
    /// Cells the allocation touched.
    pub cells: u32,
    /// Node-index footprint of the allocation.
    pub span: u32,
    /// Placement slowdown applied to the communication share.
    pub slowdown: f64,
    /// True when a drain or crash cut the attempt short.
    pub preempted: bool,
    /// Checkpoint writes completed during the attempt: the planned count
    /// for an attempt that ran to completion, the actual count when a
    /// preemption cut it short. Zero for non-checkpointing jobs.
    pub ckpts: u32,
    /// Ideal service time the attempt started with already banked from
    /// earlier attempts' checkpoints. Zero on a fresh start.
    pub resumed_service_s: f64,
    /// Wall-time work lost when the attempt was preempted: progress
    /// since the last completed checkpoint (for a non-checkpointing job,
    /// the whole attempt). Zero for attempts that ran to completion.
    pub lost_s: f64,
}

/// Everything the scheduler decided about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub id: u32,
    pub name: String,
    pub nodes: u32,
    pub priority: i32,
    pub submit_s: f64,
    /// Every execution attempt, in order. Empty for a job that failed
    /// without ever starting.
    pub attempts: Vec<Attempt>,
    /// Last allocation granted (empty when the job never started).
    pub allocation: Vec<u32>,
    pub outcome: JobOutcome,
    /// Completion time of the final attempt, when the job finished.
    pub end_s: Option<f64>,
    /// The job's checkpointing spec, copied from [`Job::ckpt`].
    pub ckpt: Option<CkptSpec>,
}

impl JobRecord {
    /// Start of the attempt that completed (the last one).
    pub fn start_s(&self) -> Option<f64> {
        self.attempts.last().map(|a| a.start_s)
    }

    /// Queue wait before the first start.
    pub fn first_wait_s(&self) -> Option<f64> {
        self.attempts.first().map(|a| a.start_s - self.submit_s)
    }

    /// Runtime of the completing attempt.
    pub fn run_s(&self) -> Option<f64> {
        match (self.start_s(), self.end_s) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        }
    }

    /// Bounded slowdown `(end − submit) / run`: 1.0 for a job that never
    /// waited, larger the more of its life it spent queued or redone.
    pub fn stretch(&self) -> Option<f64> {
        match (self.end_s, self.run_s()) {
            (Some(e), Some(r)) if r > 0.0 => Some((e - self.submit_s) / r),
            _ => None,
        }
    }

    pub fn preemptions(&self) -> u32 {
        self.attempts.iter().filter(|a| a.preempted).count() as u32
    }
}

/// One step of the machine-utilization timeline: `busy_nodes` nodes were
/// allocated during `[t_start, t_end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSegment {
    pub t_start: f64,
    pub t_end: f64,
    pub busy_nodes: u32,
}

/// The completed schedule: per-job records, the deterministic decision
/// log, and campaign-level statistics.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Machine the campaign ran on (nodes at full strength).
    pub machine: Machine,
    /// One record per job, in job-id order.
    pub records: Vec<JobRecord>,
    /// The decision log: one line per scheduler action, bit-identical
    /// across runs with the same seed and job set.
    pub log: Vec<String>,
    /// Time the last activity ended (0 for an empty campaign).
    pub makespan_s: f64,
}

impl Schedule {
    /// Node-seconds of granted allocations (preempted attempts included —
    /// they occupied the machine too).
    pub fn busy_node_s(&self) -> f64 {
        self.records
            .iter()
            .map(|r| {
                r.attempts
                    .iter()
                    .map(|a| (a.end_s - a.start_s) * r.nodes as f64)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Machine utilization over `[0, makespan]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.machine.nodes as f64 * self.makespan_s;
        if capacity == 0.0 {
            0.0
        } else {
            self.busy_node_s() / capacity
        }
    }

    /// Mean queue wait before first start, over jobs that started.
    pub fn mean_wait_s(&self) -> f64 {
        let waits: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.first_wait_s())
            .collect();
        if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        }
    }

    /// Mean bounded slowdown over finished jobs.
    pub fn mean_stretch(&self) -> f64 {
        let s: Vec<f64> = self.records.iter().filter_map(|r| r.stretch()).collect();
        if s.is_empty() {
            1.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Jain's fairness index over the finished jobs' bounded slowdowns:
    /// `(Σx)² / (n · Σx²)`, 1.0 when every job was stretched equally,
    /// approaching `1/n` when one job absorbed all the waiting.
    pub fn jain_fairness(&self) -> f64 {
        let s: Vec<f64> = self.records.iter().filter_map(|r| r.stretch()).collect();
        if s.is_empty() {
            return 1.0;
        }
        let sum: f64 = s.iter().sum();
        let sq: f64 = s.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            1.0
        } else {
            sum * sum / (s.len() as f64 * sq)
        }
    }

    /// Jobs that ran to completion.
    pub fn finished(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Finished)
            .count()
    }

    /// The piecewise-constant busy-node timeline over the campaign,
    /// segments in time order covering every instant where allocation
    /// changed.
    pub fn utilization_timeline(&self) -> Vec<UtilSegment> {
        let mut deltas: Vec<(f64, i64)> = Vec::new();
        for r in &self.records {
            for a in &r.attempts {
                deltas.push((a.start_s, r.nodes as i64));
                deltas.push((a.end_s, -(r.nodes as i64)));
            }
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut segments = Vec::new();
        let mut busy: i64 = 0;
        let mut i = 0;
        while i < deltas.len() {
            let t = deltas[i].0;
            let mut d = 0;
            while i < deltas.len() && deltas[i].0 == t {
                d += deltas[i].1;
                i += 1;
            }
            if d == 0 {
                continue;
            }
            if let Some(last) = segments.last_mut() {
                let l: &mut UtilSegment = last;
                l.t_end = t;
            }
            busy += d;
            segments.push(UtilSegment {
                t_start: t,
                t_end: t,
                busy_nodes: busy as u32,
            });
        }
        // Drop the trailing zero-width segment (busy is 0 again there).
        segments.retain(|s| s.t_end > s.t_start);
        segments
    }

    /// Emit the schedule into a trace sink as [`SchedPhase`] events: one
    /// synthetic process per cell ([`SCHED_CELL_TRACK_BASE`]`+ cell`),
    /// one thread per job. The Submit span covers the queue wait, each
    /// attempt is a Start span, preemptions and completion are markers.
    /// Checkpointing jobs additionally carry a
    /// [`CkptPhase`](jubench_trace::CkptPhase) Write span per completed
    /// write and a Restore marker (with the preceding attempt's lost
    /// work) at each restart that resumed from banked progress.
    pub fn emit(&self, sink: &dyn TraceSink) {
        use jubench_trace::CkptPhase;
        for r in &self.records {
            let mut seq: u64 = 0;
            let home = r
                .attempts
                .first()
                .map_or(SCHED_CELL_TRACK_BASE, |a| SCHED_CELL_TRACK_BASE + a.cell);
            let kind = |phase: SchedPhase, cells: u32| EventKind::Sched {
                job: r.id,
                name: r.name.clone(),
                phase,
                nodes: r.nodes,
                cells,
            };
            let first_start = r.attempts.first().map_or(r.submit_s, |a| a.start_s);
            sink.record(TraceEvent {
                rank: r.id,
                node: home,
                seq,
                t_start: r.submit_s,
                t_end: first_start,
                kind: kind(SchedPhase::Submit, 0),
            });
            seq += 1;
            let mut prev_lost = 0.0;
            for a in &r.attempts {
                sink.record(TraceEvent {
                    rank: r.id,
                    node: SCHED_CELL_TRACK_BASE + a.cell,
                    seq,
                    t_start: a.start_s,
                    t_end: a.end_s,
                    kind: kind(SchedPhase::Start, a.cells),
                });
                seq += 1;
                if let Some(spec) = r.ckpt {
                    if a.resumed_service_s > 0.0 {
                        sink.record(TraceEvent {
                            rank: r.id,
                            node: SCHED_CELL_TRACK_BASE + a.cell,
                            seq,
                            t_start: a.start_s,
                            t_end: a.start_s,
                            kind: EventKind::Ckpt {
                                job: r.id,
                                name: r.name.clone(),
                                phase: CkptPhase::Restore,
                                cost_s: 0.0,
                                lost_s: prev_lost,
                            },
                        });
                        seq += 1;
                    }
                    // Write `j` lands after `j` intervals of work and
                    // `j − 1` earlier writes — [`WriteTimes`] is that
                    // closed form.
                    let writes = WriteTimes::new(a.start_s, spec.interval_s, spec.cost_s, a.ckpts);
                    for (w_start, w_end) in writes {
                        sink.record(TraceEvent {
                            rank: r.id,
                            node: SCHED_CELL_TRACK_BASE + a.cell,
                            seq,
                            t_start: w_start,
                            t_end: w_end,
                            kind: EventKind::Ckpt {
                                job: r.id,
                                name: r.name.clone(),
                                phase: CkptPhase::Write,
                                cost_s: spec.cost_s,
                                lost_s: 0.0,
                            },
                        });
                        seq += 1;
                    }
                }
                prev_lost = a.lost_s;
                if a.preempted {
                    sink.record(TraceEvent {
                        rank: r.id,
                        node: SCHED_CELL_TRACK_BASE + a.cell,
                        seq,
                        t_start: a.end_s,
                        t_end: a.end_s,
                        kind: kind(SchedPhase::Preempt, a.cells),
                    });
                    seq += 1;
                }
            }
            if let Some(end) = r.end_s {
                let last = r.attempts.last().expect("a finished job ran");
                sink.record(TraceEvent {
                    rank: r.id,
                    node: SCHED_CELL_TRACK_BASE + last.cell,
                    seq,
                    t_start: end,
                    t_end: end,
                    kind: kind(SchedPhase::Finish, last.cells),
                });
            }
        }
    }

    /// Render the per-job table plus the campaign summary as markdown.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign on {} ({} nodes, {} cells): makespan {:.6} s, \
             utilization {:.1} %, mean wait {:.6} s, fairness {:.3}\n\n",
            self.machine.name,
            self.machine.nodes,
            self.machine.cells(),
            self.makespan_s,
            100.0 * self.utilization(),
            self.mean_wait_s(),
            self.jain_fairness(),
        );
        out.push_str(
            "| job | name           | nodes | prio |   submit[s] |    start[s] |      end[s] |     wait[s] | cells | slowdown | outcome  |\n",
        );
        out.push_str(
            "|-----|----------------|-------|------|-------------|-------------|-------------|-------------|-------|----------|----------|\n",
        );
        for r in &self.records {
            let (start, end, wait, cells, slow) = match (r.attempts.last(), r.end_s) {
                (Some(a), Some(e)) => (
                    format!("{:>11.6}", a.start_s),
                    format!("{e:>11.6}"),
                    format!("{:>11.6}", r.first_wait_s().unwrap_or(0.0)),
                    format!("{:>5}", a.cells),
                    format!("{:>8.3}", a.slowdown),
                ),
                _ => (
                    format!("{:>11}", "-"),
                    format!("{:>11}", "-"),
                    format!("{:>11}", "-"),
                    format!("{:>5}", "-"),
                    format!("{:>8}", "-"),
                ),
            };
            out.push_str(&format!(
                "| {:>3} | {:<14} | {:>5} | {:>4} | {:>11.6} | {start} | {end} | {wait} | {cells} | {slow} | {:<8} |\n",
                r.id,
                r.name,
                r.nodes,
                r.priority,
                r.submit_s,
                match r.outcome {
                    JobOutcome::Finished => "finished",
                    JobOutcome::Failed => "failed",
                },
            ));
        }
        out
    }
}

/// The batch scheduler over one machine and network model.
#[derive(Debug, Clone)]
pub struct Scheduler {
    machine: Machine,
    net: NetModel,
    config: SchedulerConfig,
}

/// A queued job awaiting dispatch.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    idx: usize,
    eligible_s: f64,
    attempt: u32,
}

/// A dispatched job occupying nodes until `end_s`.
#[derive(Debug, Clone, PartialEq)]
struct Running {
    idx: usize,
    alloc: Allocation,
    end_s: f64,
    attempt_index: usize,
}

/// The scheduler's complete mid-campaign state: everything the event
/// loop needs to continue from an arbitrary stop point. Produced by
/// [`Scheduler::begin`], stepped by [`Scheduler::advance`], turned into
/// a [`Schedule`] by [`Scheduler::finish`].
///
/// Implements [`Checkpointable`]: a campaign stopped at any virtual
/// time, snapshotted, restored and driven to completion yields records
/// and a decision log byte-identical to the uninterrupted run. The
/// snapshot does *not* embed the job set or fault plan — the caller
/// passes the same ones back to [`Scheduler::advance`]; [`Scheduler::resume`]
/// cross-checks the job set against the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    t: f64,
    free: BTreeSet<u32>,
    down: BTreeSet<u32>,
    crashed: BTreeSet<u32>,
    running: Vec<Running>,
    pending: Vec<Pending>,
    submitted: Vec<bool>,
    /// Cursors into the plan's sorted drain-start / drain-end / crash
    /// event lists (recomputed deterministically from the plan).
    di: usize,
    ei: usize,
    ci: usize,
    /// Ideal service time each job has banked through checkpoints.
    service_done: Vec<f64>,
    records: Vec<JobRecord>,
    log: Vec<String>,
    done: bool,
}

impl CampaignState {
    /// Current virtual time: the instant of the last processed event.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// True once every job has left the system and no event remains.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The decision log accumulated so far.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// The per-job records accumulated so far, in job-id order. Mid-run
    /// views let a long-running service stream completions incrementally
    /// instead of waiting for [`Scheduler::finish`].
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Jobs that have run to completion so far, as `(job id, end time)`
    /// pairs ordered by `(end time, id)` — the deterministic streaming
    /// order for incremental result delivery.
    pub fn finished_jobs(&self) -> Vec<(u32, f64)> {
        let mut done: Vec<(u32, f64)> = self
            .records
            .iter()
            .filter(|r| r.outcome == JobOutcome::Finished)
            .filter_map(|r| r.end_s.map(|e| (r.id, e)))
            .collect();
        done.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        done
    }
}

fn put_node_set(w: &mut SnapshotWriter, set: &BTreeSet<u32>) {
    w.put_seq(set, |w, &n| w.put_u32(n));
}

fn get_node_set(r: &mut SnapshotReader, what: &'static str) -> Result<BTreeSet<u32>, CkptError> {
    Ok(r.get_seq(what, |r| r.get_u32(what))?.into_iter().collect())
}

impl Checkpointable for CampaignState {
    fn kind(&self) -> &'static str {
        "sched-campaign"
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_f64(self.t);
        put_node_set(&mut w, &self.free);
        put_node_set(&mut w, &self.down);
        put_node_set(&mut w, &self.crashed);
        w.put_seq(&self.running, |w, run| {
            w.put_usize(run.idx);
            w.put_seq(&run.alloc.nodes, |w, &n| w.put_u32(n));
            w.put_f64(run.end_s);
            w.put_usize(run.attempt_index);
        });
        w.put_seq(&self.pending, |w, p| {
            w.put_usize(p.idx);
            w.put_f64(p.eligible_s);
            w.put_u32(p.attempt);
        });
        w.put_seq(&self.submitted, |w, &s| w.put_bool(s));
        w.put_usize(self.di);
        w.put_usize(self.ei);
        w.put_usize(self.ci);
        w.put_seq(&self.service_done, |w, &s| w.put_f64(s));
        w.put_seq(&self.records, |w, rec| {
            w.put_u32(rec.id);
            w.put_str(&rec.name);
            w.put_u32(rec.nodes);
            w.put_u32(rec.priority as u32);
            w.put_f64(rec.submit_s);
            w.put_seq(&rec.attempts, |w, a| {
                w.put_f64(a.start_s);
                w.put_f64(a.end_s);
                w.put_u32(a.cell);
                w.put_u32(a.cells);
                w.put_u32(a.span);
                w.put_f64(a.slowdown);
                w.put_bool(a.preempted);
                w.put_u32(a.ckpts);
                w.put_f64(a.resumed_service_s);
                w.put_f64(a.lost_s);
            });
            w.put_seq(&rec.allocation, |w, &n| w.put_u32(n));
            w.put_u8(match rec.outcome {
                JobOutcome::Finished => 0,
                JobOutcome::Failed => 1,
            });
            w.put_bool(rec.end_s.is_some());
            w.put_f64(rec.end_s.unwrap_or(0.0));
            w.put_bool(rec.ckpt.is_some());
            let spec = rec.ckpt.unwrap_or(CkptSpec {
                interval_s: 0.0,
                cost_s: 0.0,
            });
            w.put_f64(spec.interval_s);
            w.put_f64(spec.cost_s);
        });
        w.put_seq(&self.log, |w, line| w.put_str(line));
        w.put_bool(self.done);
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open("sched-campaign", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let t = r.get_f64("virtual time")?;
        let free = get_node_set(&mut r, "free node set")?;
        let down = get_node_set(&mut r, "down node set")?;
        let crashed = get_node_set(&mut r, "crashed node set")?;
        let running = r.get_seq("running count", |r| {
            Ok(Running {
                idx: r.get_usize("running job index")?,
                alloc: Allocation {
                    nodes: r.get_seq("allocation length", |r| r.get_u32("allocated node"))?,
                },
                end_s: r.get_f64("running end time")?,
                attempt_index: r.get_usize("running attempt index")?,
            })
        })?;
        let pending = r.get_seq("pending count", |r| {
            Ok(Pending {
                idx: r.get_usize("pending job index")?,
                eligible_s: r.get_f64("pending eligible time")?,
                attempt: r.get_u32("pending attempt")?,
            })
        })?;
        let submitted = r.get_seq("submitted count", |r| r.get_bool("submitted flag"))?;
        let di = r.get_usize("drain-start cursor")?;
        let ei = r.get_usize("drain-end cursor")?;
        let ci = r.get_usize("crash cursor")?;
        let service_done = r.get_seq("service-done count", |r| r.get_f64("service-done credit"))?;
        let records = r.get_seq("record count", |r| {
            let id = r.get_u32("job id")?;
            let name = r.get_str("job name")?;
            let nodes = r.get_u32("job nodes")?;
            let priority = r.get_u32("job priority")? as i32;
            let submit_s = r.get_f64("job submit time")?;
            let attempts = r.get_seq("attempt count", |r| {
                Ok(Attempt {
                    start_s: r.get_f64("attempt start")?,
                    end_s: r.get_f64("attempt end")?,
                    cell: r.get_u32("attempt cell")?,
                    cells: r.get_u32("attempt cells")?,
                    span: r.get_u32("attempt span")?,
                    slowdown: r.get_f64("attempt slowdown")?,
                    preempted: r.get_bool("attempt preempted flag")?,
                    ckpts: r.get_u32("attempt checkpoint count")?,
                    resumed_service_s: r.get_f64("attempt resumed service")?,
                    lost_s: r.get_f64("attempt lost work")?,
                })
            })?;
            let allocation = r.get_seq("record allocation length", |r| {
                r.get_u32("record allocated node")
            })?;
            let outcome = match r.get_u8("job outcome")? {
                0 => JobOutcome::Finished,
                1 => JobOutcome::Failed,
                other => {
                    return Err(CkptError::Malformed {
                        what: format!("job outcome tag {other}"),
                    })
                }
            };
            let has_end = r.get_bool("end-time presence flag")?;
            let end_val = r.get_f64("end time")?;
            let has_ckpt = r.get_bool("ckpt-spec presence flag")?;
            let interval_s = r.get_f64("ckpt interval")?;
            let cost_s = r.get_f64("ckpt cost")?;
            Ok(JobRecord {
                id,
                name,
                nodes,
                priority,
                submit_s,
                attempts,
                allocation,
                outcome,
                end_s: has_end.then_some(end_val),
                ckpt: has_ckpt.then_some(CkptSpec { interval_s, cost_s }),
            })
        })?;
        let log = r.get_seq("log line count", |r| r.get_str("log line"))?;
        let done = r.get_bool("done flag")?;
        r.expect_end()?;

        // Structural consistency: indices must address the decoded
        // records, or a later event-loop step would panic.
        let n = records.len();
        if submitted.len() != n || service_done.len() != n {
            return Err(CkptError::Malformed {
                what: format!(
                    "job-count mismatch: {n} records, {} submitted flags, {} service credits",
                    submitted.len(),
                    service_done.len()
                ),
            });
        }
        for run in &running {
            if run.idx >= n || run.attempt_index >= records[run.idx].attempts.len() {
                return Err(CkptError::Malformed {
                    what: format!("running entry addresses job {} out of range", run.idx),
                });
            }
        }
        if let Some(p) = pending.iter().find(|p| p.idx >= n) {
            return Err(CkptError::Malformed {
                what: format!("pending entry addresses job {} out of range", p.idx),
            });
        }

        *self = CampaignState {
            t,
            free,
            down,
            crashed,
            running,
            pending,
            submitted,
            di,
            ei,
            ci,
            service_done,
            records,
            log,
            done,
        };
        Ok(())
    }
}

/// Count-based availability profile for conservative-backfill
/// reservations: free-node count as a piecewise-constant function of
/// virtual time, relative to "now".
struct Profile {
    now_free: i64,
    deltas: Vec<(f64, i64)>,
}

impl Profile {
    fn available_at(&self, t: f64) -> i64 {
        self.now_free
            + self
                .deltas
                .iter()
                .filter(|&&(tt, _)| tt <= t)
                .map(|&(_, d)| d)
                .sum::<i64>()
    }

    fn min_available(&self, from: f64, until: f64) -> i64 {
        let mut min = self.available_at(from);
        for &(tt, _) in &self.deltas {
            if tt > from && tt < until {
                min = min.min(self.available_at(tt));
            }
        }
        min
    }

    /// Earliest `s ≥ from` with at least `need` nodes free throughout
    /// `[s, s + dur)`, or `None` when capacity never suffices.
    fn earliest_start(&self, from: f64, dur: f64, need: u32) -> Option<f64> {
        let mut cands: Vec<f64> = vec![from];
        cands.extend(self.deltas.iter().map(|&(t, _)| t).filter(|&t| t > from));
        cands.sort_by(f64::total_cmp);
        cands.dedup();
        cands
            .into_iter()
            .find(|&s| self.min_available(s, s + dur) >= need as i64)
    }

    fn reserve(&mut self, start: f64, end: f64, nodes: u32) {
        self.deltas.push((start, -(nodes as i64)));
        self.deltas.push((end, nodes as i64));
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

    /// Actual runtime of an attempt that still owes `remaining_s` of
    /// ideal service on `alloc`, and the checkpoint writes it schedules:
    /// the communication share of the remaining service is inflated by
    /// the placement slowdown, and each planned write adds its cost.
    fn attempt_runtime(&self, job: &Job, alloc: &Allocation, remaining_s: f64) -> (f64, u32) {
        let slow = alloc.slowdown(&self.machine, &self.net);
        let work_dur = remaining_s * ((1.0 - job.comm_fraction) + job.comm_fraction * slow);
        match job.ckpt {
            Some(spec) => {
                let writes = Self::planned_writes(spec, work_dur);
                (work_dur + writes as f64 * spec.cost_s, writes)
            }
            None => (work_dur, 0),
        }
    }

    /// Upper bound on [`Self::attempt_runtime`] over every possible
    /// allocation: full cross-cell traffic over the whole machine's
    /// footprint (plus the checkpoint writes that worst-case work
    /// schedules). Reservation durations use this, so actual runs always
    /// finish no later than reserved — the conservative-backfill
    /// guarantee depends on it.
    fn worst_case_runtime(&self, job: &Job, remaining_s: f64) -> f64 {
        let congestion = self.net.congestion_factor(self.machine.nodes);
        let penalty =
            (self.net.intra_cell.bandwidth / (self.net.inter_cell.bandwidth * congestion)).max(1.0);
        let work = remaining_s * ((1.0 - job.comm_fraction) + job.comm_fraction * penalty);
        match job.ckpt {
            Some(spec) => work + Self::planned_writes(spec, work) as f64 * spec.cost_s,
            None => work,
        }
    }

    /// Sort the plan's node-granularity capacity events: drain-start
    /// `(from, node, until)`, drain-end `(until, node)`, crash
    /// `(at, node)` lists, each in `(time, node)` order. Deterministic,
    /// so [`CampaignState`] can store bare cursors into them.
    #[allow(clippy::type_complexity)]
    fn fault_events(
        &self,
        plan: &FaultPlan,
    ) -> (Vec<(f64, u32, f64)>, Vec<(f64, u32)>, Vec<(f64, u32)>) {
        let mut drain_starts: Vec<(f64, u32, f64)> = Vec::new();
        let mut drain_ends: Vec<(f64, u32)> = Vec::new();
        let mut crashes: Vec<(f64, u32)> = Vec::new();
        for f in plan.faults() {
            match *f {
                Fault::SlowNode {
                    node,
                    from_s,
                    until_s,
                    ..
                } if node < self.machine.nodes && until_s.is_finite() => {
                    drain_starts.push((from_s, node, until_s));
                    drain_ends.push((until_s, node));
                }
                Fault::SlowNode { node, from_s, .. } if node < self.machine.nodes => {
                    // An unbounded slow window is a permanent drain.
                    crashes.push((from_s, node));
                }
                Fault::RankCrash { rank, at_s } if rank < self.machine.nodes => {
                    crashes.push((at_s, rank));
                }
                _ => {}
            }
        }
        drain_starts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        drain_ends.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        crashes.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        (drain_starts, drain_ends, crashes)
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
            down: BTreeSet::new(), // drained or crashed
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
    /// [`CampaignState::snapshot`](Checkpointable::snapshot) and verify
    /// it matches `jobs`. The same jobs and plan must be passed to the
    /// subsequent [`Self::advance`] calls — the snapshot stores neither.
    pub fn resume(&self, bytes: &[u8], jobs: &[Job]) -> Result<CampaignState, CkptError> {
        let mut state = self.begin(jobs);
        state.restore(bytes)?;
        if state.records.len() != jobs.len() {
            return Err(CkptError::Malformed {
                what: format!(
                    "snapshot holds {} jobs, campaign has {}",
                    state.records.len(),
                    jobs.len()
                ),
            });
        }
        if let Some((rec, job)) = state
            .records
            .iter()
            .zip(jobs)
            .find(|(rec, job)| rec.id != job.id || rec.name != job.name)
        {
            return Err(CkptError::Malformed {
                what: format!(
                    "snapshot job {} ({}) does not match campaign job {} ({})",
                    rec.id, rec.name, job.id, job.name
                ),
            });
        }
        if let Some(&n) = state.free.iter().chain(&state.down).max() {
            if n >= self.machine.nodes {
                return Err(CkptError::Malformed {
                    what: format!(
                        "snapshot node {n} exceeds machine of {}",
                        self.machine.nodes
                    ),
                });
            }
        }
        Ok(state)
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
    /// time — and the per-instant handlers run there exactly once.
    /// Log lines written count under `sched/events_processed`, skipped
    /// idle virtual seconds under `events/ticks_skipped`.
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
        jubench_metrics::profile_scope!("sched/advance");
        // Fault plan → node-granularity capacity events.
        // Drains: [from, until) windows; crashes: permanent.
        let (drain_starts, drain_ends, crashes) = self.fault_events(plan);
        // Submission order is fixed for the whole campaign and the
        // submitted set is always a prefix of it (every instant submits
        // everything due), so one sort plus a cursor is enough.
        let mut submit_order: Vec<usize> = (0..jobs.len()).collect();
        submit_order.sort_by(|&a, &b| {
            jobs[a]
                .submit_s
                .total_cmp(&jobs[b].submit_s)
                .then(jobs[a].id.cmp(&jobs[b].id))
        });
        let CampaignState {
            t: now,
            free,
            down,
            crashed,
            running,
            pending,
            submitted,
            di,
            ei,
            ci,
            service_done,
            records,
            log,
            done,
        } = state;
        let mut si = submit_order
            .iter()
            .take_while(|&&idx| submitted[idx])
            .count();
        debug_assert!(
            submit_order[si..].iter().all(|&idx| !submitted[idx]),
            "submitted set must be a prefix of the submission order"
        );

        loop {
            // The next instant anything happens, read off the state.
            // Drain ends only matter while something is drained or
            // queued: a gated one is consumed silently by the drain-end
            // cursor at the next instant. A running attempt may end at
            // `now` itself (a run time below the clock's resolution at
            // its start instant); it is handled at `now` again.
            let capacity_churns = !pending.is_empty() || !down.is_empty();
            let next = [
                crashes.get(*ci).map(|c| c.0),
                drain_starts.get(*di).map(|d| d.0),
                drain_ends.get(*ei).map(|e| e.0).filter(|_| capacity_churns),
                submit_order.get(si).map(|&idx| jobs[idx].submit_s),
            ]
            .into_iter()
            .flatten()
            .chain(running.iter().map(|r| r.end_s))
            .chain(pending.iter().map(|p| p.eligible_s).filter(|&e| e > *now))
            .fold(f64::INFINITY, f64::min);
            if next == f64::INFINITY {
                *done = true;
                break;
            }
            if next > until_s {
                break;
            }
            jubench_metrics::counter_add("events/ticks_skipped", (next - *now) as u64);
            *now = next.max(*now);
            let t = *now;
            jubench_metrics::counter_add("sched/advance_steps", 1);
            // Every scheduler event (finish/crash/drain/submit/preempt/
            // start) appends exactly one log line, so the per-step log
            // growth is the processed-event count.
            let log_lines_before = log.len();
            // --- completions at t --------------------------------------
            running.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.idx.cmp(&b.idx)));
            let mut k = 0;
            while k < running.len() {
                if running[k].end_s <= t {
                    let r = running.remove(k);
                    for &n in &r.alloc.nodes {
                        if !down.contains(&n) {
                            free.insert(n);
                        }
                    }
                    let rec = &mut records[r.idx];
                    rec.outcome = JobOutcome::Finished;
                    rec.end_s = Some(r.end_s);
                    log.push(format!(
                        "[t={:.6}] finish job {} name={}",
                        t, rec.id, rec.name
                    ));
                } else {
                    k += 1;
                }
            }

            // --- capacity transitions at t -----------------------------
            let mut hit: BTreeSet<u32> = BTreeSet::new();
            while *ci < crashes.len() && crashes[*ci].0 <= t {
                let (_, node) = crashes[*ci];
                *ci += 1;
                if crashed.insert(node) {
                    down.insert(node);
                    free.remove(&node);
                    hit.insert(node);
                    log.push(format!("[t={t:.6}] crash node {node}"));
                }
            }
            while *di < drain_starts.len() && drain_starts[*di].0 <= t {
                let (_, node, until) = drain_starts[*di];
                *di += 1;
                if !crashed.contains(&node) && down.insert(node) {
                    free.remove(&node);
                    hit.insert(node);
                    log.push(format!("[t={t:.6}] drain node {node} until={until:.6}"));
                }
            }
            while *ei < drain_ends.len() && drain_ends[*ei].0 <= t {
                let (_, node) = drain_ends[*ei];
                *ei += 1;
                if !crashed.contains(&node) && down.remove(&node) {
                    // The node returns to service unless occupied (it
                    // cannot be: its jobs were preempted at drain start).
                    free.insert(node);
                    log.push(format!("[t={t:.6}] undrain node {node}"));
                }
            }
            // Preempt running jobs that lost nodes.
            if !hit.is_empty() {
                let mut k = 0;
                while k < running.len() {
                    if running[k].alloc.nodes.iter().any(|n| hit.contains(n)) {
                        let r = running.remove(k);
                        for &n in &r.alloc.nodes {
                            if !down.contains(&n) {
                                free.insert(n);
                            }
                        }
                        let job = &jobs[r.idx];
                        let rec = &mut records[r.idx];
                        let a = &mut rec.attempts[r.attempt_index];
                        a.end_s = t;
                        a.preempted = true;
                        let elapsed = t - a.start_s;
                        a.lost_s = elapsed;
                        if let Some(spec) = job.ckpt {
                            // Bank the work covered by completed writes
                            // (each write lands after a full interval of
                            // work); only progress past the last write is
                            // lost. Past the final planned write the job
                            // computes straight to its end, so the
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
                            service_done[r.idx] += banked_work / mix;
                        }
                        let attempt = rec.attempts.len() as u32;
                        if attempt >= job.retry.max_attempts {
                            rec.outcome = JobOutcome::Failed;
                            log.push(format!(
                                "[t={:.6}] fail job {} name={} attempts={attempt} (retries exhausted)",
                                t, rec.id, rec.name
                            ));
                        } else {
                            let backoff = job.retry.backoff_s(attempt);
                            pending.push(Pending {
                                idx: r.idx,
                                eligible_s: t + backoff,
                                attempt,
                            });
                            if job.ckpt.is_some() {
                                log.push(format!(
                                    "[t={:.6}] preempt job {} name={} requeue eligible={:.6} banked={:.6}",
                                    t,
                                    rec.id,
                                    rec.name,
                                    t + backoff,
                                    service_done[r.idx]
                                ));
                            } else {
                                log.push(format!(
                                    "[t={:.6}] preempt job {} name={} requeue eligible={:.6}",
                                    t,
                                    rec.id,
                                    rec.name,
                                    t + backoff
                                ));
                            }
                        }
                    } else {
                        k += 1;
                    }
                }
            }

            // --- submissions at t --------------------------------------
            while si < submit_order.len() && jobs[submit_order[si]].submit_s <= t {
                let idx = submit_order[si];
                si += 1;
                submitted[idx] = true;
                let job = &jobs[idx];
                log.push(format!(
                    "[t={:.6}] submit job {} name={} nodes={} prio={}",
                    t, job.id, job.name, job.nodes, job.priority
                ));
                let alive = self.machine.nodes - crashed.len() as u32;
                if job.nodes > alive {
                    records[idx].outcome = JobOutcome::Failed;
                    log.push(format!(
                        "[t={:.6}] fail job {} name={} (requests {} of {alive} surviving nodes)",
                        t, job.id, job.name, job.nodes
                    ));
                } else {
                    pending.push(Pending {
                        idx,
                        eligible_s: job.submit_s,
                        attempt: 0,
                    });
                }
            }

            // Requests can outlive capacity lost to later crashes. The
            // surviving-node count only shrinks when `hit` is non-empty
            // (a crash always lands in `hit`) and every other path into
            // `pending` checks capacity on entry, so the scan need
            // only fire on capacity-loss instants.
            if !hit.is_empty() {
                pending.retain(|p| {
                    let alive = self.machine.nodes - crashed.len() as u32;
                    if jobs[p.idx].nodes > alive {
                        records[p.idx].outcome = JobOutcome::Failed;
                        log.push(format!(
                            "[t={:.6}] fail job {} name={} (requests {} of {alive} surviving nodes)",
                            t, jobs[p.idx].id, jobs[p.idx].name, jobs[p.idx].nodes
                        ));
                        false
                    } else {
                        true
                    }
                });
            }

            // --- dispatch ----------------------------------------------
            self.dispatch(t, jobs, pending, free, running, records, service_done, log);
            jubench_metrics::counter_add(
                "sched/events_processed",
                (log.len() - log_lines_before) as u64,
            );
        }
        *done
    }

    /// Seal a campaign state into a [`Schedule`]: the makespan over the
    /// attempts recorded so far, the log closed by its trailer line.
    /// Straight-through and stop/snapshot/resume runs of the same
    /// campaign produce byte-identical logs here.
    pub fn finish(&self, state: CampaignState) -> Schedule {
        let CampaignState {
            records, mut log, ..
        } = state;
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

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        t: f64,
        jobs: &[Job],
        pending: &mut Vec<Pending>,
        free: &mut BTreeSet<u32>,
        running: &mut Vec<Running>,
        records: &mut [JobRecord],
        service_done: &[f64],
        log: &mut Vec<String>,
    ) {
        // Wall-clock self-profile of the backfill scan — the scheduler's
        // hot path. Observational only: nothing below reads the clock.
        jubench_metrics::profile_scope!("sched/backfill");
        jubench_metrics::counter_add("sched/backfill_scans", 1);
        jubench_metrics::counter_add("sched/backfill_queue_jobs", pending.len() as u64);
        pending.sort_by(|a, b| {
            jobs[b.idx]
                .priority
                .cmp(&jobs[a.idx].priority)
                .then(a.eligible_s.total_cmp(&b.eligible_s))
                .then(jobs[a.idx].id.cmp(&jobs[b.idx].id))
        });
        let mut profile = Profile {
            now_free: free.len() as i64,
            deltas: running
                .iter()
                .map(|r| (r.end_s, r.alloc.nodes.len() as i64))
                .collect(),
        };
        let mut i = 0;
        while i < pending.len() {
            let job = &jobs[pending[i].idx];
            let remaining = (job.service_s - service_done[pending[i].idx]).max(0.0);
            let est = self.worst_case_runtime(job, remaining);
            let from = t.max(pending[i].eligible_s);
            let start = profile.earliest_start(from, est, job.nodes);
            let starts_now = start == Some(t) && pending[i].eligible_s <= t;
            if starts_now {
                let p = pending.remove(i);
                let alloc = self
                    .config
                    .placement
                    .place(&self.machine, free, job.nodes)
                    .expect("profile said the job fits now");
                for n in &alloc.nodes {
                    free.remove(n);
                }
                let (dur, writes) = self.attempt_runtime(job, &alloc, remaining);
                let rec = &mut records[p.idx];
                rec.allocation = alloc.nodes.clone();
                rec.attempts.push(Attempt {
                    start_s: t,
                    end_s: t + dur,
                    cell: alloc.primary_cell(&self.machine),
                    cells: alloc.cell_count(&self.machine),
                    span: alloc.span(),
                    slowdown: alloc.slowdown(&self.machine, &self.net),
                    preempted: false,
                    ckpts: writes,
                    resumed_service_s: service_done[p.idx],
                    lost_s: 0.0,
                });
                let ckpt_note = if job.ckpt.is_some() {
                    format!(" ckpts={} resumed={:.6}", writes, service_done[p.idx])
                } else {
                    String::new()
                };
                log.push(format!(
                    "[t={:.6}] start job {} name={} attempt={} nodes={}..{} cells={} span={} slowdown={:.6} end={:.6}{}",
                    t,
                    rec.id,
                    rec.name,
                    p.attempt + 1,
                    alloc.nodes.first().unwrap(),
                    alloc.nodes.last().unwrap(),
                    alloc.cell_count(&self.machine),
                    alloc.span(),
                    alloc.slowdown(&self.machine, &self.net),
                    t + dur,
                    ckpt_note,
                ));
                profile.reserve(t, t + dur, job.nodes);
                running.push(Running {
                    idx: p.idx,
                    alloc,
                    end_s: t + dur,
                    attempt_index: records[p.idx].attempts.len() - 1,
                });
                continue; // re-examine position i (next job shifted in)
            }
            // A job whose capacity can never be satisfied against the
            // current reservations gets none: it blocks nothing and waits
            // for capacity churn (e.g. a drain ending).
            if let Some(s) = start {
                profile.reserve(s, s + est, job.nodes);
            }
            if self.config.policy == QueuePolicy::Fifo {
                break; // head-of-line blocking
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
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

    fn sched(policy: QueuePolicy, placement: PlacementPolicy) -> Scheduler {
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
    fn fifo_blocks_head_of_line() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        // Job 0 takes the whole machine; job 1 waits the full 4 s.
        let jobs = vec![
            Job::new(0, "big", 96, 4.0),
            Job::new(1, "small", 1, 1.0).with_submit(0.5),
        ];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.records[1].start_s(), Some(4.0));
        assert_eq!(out.makespan_s, 5.0);
    }

    #[test]
    fn backfill_slips_small_jobs_into_holes() {
        let s = sched(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
        );
        // 90 nodes busy until t=4; a 90-node job queues behind it; a
        // 6-node, 1 s job fits the hole without delaying the reservation.
        let jobs = vec![
            Job::new(0, "wall", 90, 4.0),
            Job::new(1, "wide", 90, 2.0).with_submit(0.1),
            Job::new(2, "tiny", 6, 1.0).with_submit(0.2),
        ];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.records[2].start_s(), Some(0.2), "backfilled now");
        assert_eq!(out.records[1].start_s(), Some(4.0), "not delayed");
    }

    #[test]
    fn fifo_would_have_stalled_that_backfill() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![
            Job::new(0, "wall", 90, 4.0),
            Job::new(1, "wide", 90, 2.0).with_submit(0.1),
            Job::new(2, "tiny", 6, 1.0).with_submit(0.2),
        ];
        let out = s.run(&jobs, &FaultPlan::new(0));
        // FIFO dispatches in queue order: tiny sits behind wide until the
        // wall clears at t=4 (backfill started it at t=0.2).
        assert_eq!(out.records[2].start_s(), Some(4.0), "behind the line");
    }

    #[test]
    fn priorities_outrank_submit_order() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![
            Job::new(0, "wall", 96, 2.0),
            Job::new(1, "low", 96, 1.0)
                .with_submit(0.1)
                .with_priority(0),
            Job::new(2, "high", 96, 1.0)
                .with_submit(0.2)
                .with_priority(5),
        ];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.records[2].start_s(), Some(2.0));
        assert_eq!(out.records[1].start_s(), Some(3.0));
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
    fn stats_are_consistent() {
        let s = sched(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
        );
        let jobs = vec![Job::new(0, "a", 96, 2.0), Job::new(1, "b", 96, 2.0)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        assert_eq!(out.makespan_s, 4.0);
        assert!((out.utilization() - 1.0).abs() < 1e-12, "back to back");
        assert_eq!(out.mean_wait_s(), 1.0);
        // Stretches 1.0 and 2.0 → Jain = 9/10.
        assert!((out.jain_fairness() - 0.9).abs() < 1e-12);
        let timeline = out.utilization_timeline();
        assert_eq!(timeline.len(), 1, "constant 96 busy nodes: {timeline:?}");
        assert_eq!(timeline[0].busy_nodes, 96);
    }

    #[test]
    fn emitted_events_land_on_cell_tracks() {
        use jubench_trace::{Recorder, RunReport};
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "a", 8, 2.0), Job::new(1, "b", 8, 1.0)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        let rec = Recorder::new();
        out.emit(&rec);
        let events = rec.take_events();
        assert!(events.iter().all(|e| e.is_synthetic()));
        let report = RunReport::from_events(&events);
        assert_eq!(report.sched.submitted, 2);
        assert_eq!(report.sched.started, 2);
        assert_eq!(report.sched.finished, 2);
        assert!((report.sched.busy_node_s - out.busy_node_s()).abs() < 1e-9);
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

    #[test]
    fn emitted_ckpt_events_carry_overhead_and_lost_work() {
        use jubench_trace::{Recorder, RunReport};
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "victim", 8, 8.0)
            .with_retry(jubench_faults::RetryPolicy::new(3, 0.5))
            .with_checkpointing(1.0, 0.01)];
        let plan = FaultPlan::new(0).with_slow_node_window(3, 8.0, 6.0, 7.0);
        let out = s.run(&jobs, &plan);
        let rec = Recorder::new();
        out.emit(&rec);
        let events = rec.take_events();
        assert!(events.iter().all(|e| e.is_synthetic()));
        let report = RunReport::from_events(&events);
        let c = &report.ckpt;
        // Five writes completed before the preemption at t=6, two more in
        // the resumed attempt (3 s of work left); one restore marker.
        assert_eq!(c.writes, 7);
        assert_eq!(c.restores, 1);
        assert!((c.write_s - 0.07).abs() < 1e-9);
        assert!((c.lost_work_s - 0.95).abs() < 1e-9);
        assert!((report.total_makespan_s() - out.makespan_s).abs() < 1e-9);
        assert!(c.overhead_fraction(report.total_makespan_s()) > 0.0);
    }

    #[test]
    fn stopped_snapshotted_resumed_campaign_is_bit_identical() {
        use jubench_ckpt::Checkpointable;
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
                    .with_checkpointing(0.4, 0.02)
            })
            .collect();
        let plan = FaultPlan::new(9)
            .with_slow_node_window(5, 4.0, 1.0, 3.0)
            .with_rank_crash(40, 2.5);
        let reference = s.run(&jobs, &plan);
        // Kill points straddle the drain window and the crash.
        for t_kill in [0.0, 1.0, 2.5, 3.7] {
            let mut state = s.begin(&jobs);
            s.advance(&mut state, &jobs, &plan, t_kill);
            let snap = state.snapshot();
            let mut resumed = s.resume(&snap, &jobs).unwrap();
            assert_eq!(resumed.snapshot(), snap, "round trip at t={t_kill}");
            s.advance(&mut resumed, &jobs, &plan, f64::INFINITY);
            let out = s.finish(resumed);
            assert_eq!(out.log, reference.log, "kill at t={t_kill}");
        }
    }

    #[test]
    fn corrupt_campaign_snapshot_is_refused_typed() {
        use jubench_ckpt::{Checkpointable, CkptError};
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![
            Job::new(0, "a", 8, 2.0),
            Job::new(1, "b", 8, 1.0).with_submit(0.5),
        ];
        let plan = FaultPlan::new(0);
        let mut state = s.begin(&jobs);
        s.advance(&mut state, &jobs, &plan, 1.0);
        let good = state.snapshot();
        // Bit flip and truncation are typed errors, never a panic.
        let mut flipped = good.clone();
        flipped[12] ^= 0x10;
        assert!(s.resume(&flipped, &jobs).is_err());
        assert!(matches!(
            s.resume(&good[..good.len() - 3], &jobs),
            Err(CkptError::ChecksumMismatch { .. } | CkptError::Truncated { .. })
        ));
        // A snapshot of some other campaign is rejected too.
        let other = vec![Job::new(7, "other", 8, 2.0), Job::new(8, "x", 8, 1.0)];
        assert!(matches!(
            s.resume(&good, &other),
            Err(CkptError::Malformed { .. })
        ));
        // A validly sealed payload whose running / pending / submitted
        // count lies runs out of bytes; it must not reach the allocator.
        for empty_vecs in 0..3 {
            let mut w = SnapshotWriter::new();
            w.put_f64(0.0);
            for _ in 0..3 + empty_vecs {
                w.put_usize(0);
            }
            w.put_usize(1 << 60);
            let lying = seal("sched-campaign", &w.finish());
            assert!(
                matches!(s.resume(&lying, &jobs), Err(CkptError::Truncated { .. })),
                "lying count after {empty_vecs} empty vectors"
            );
        }
        // The intact snapshot still resumes, to the state it was taken of.
        assert_eq!(s.resume(&good, &jobs).unwrap(), state);
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

    #[test]
    fn render_has_a_row_per_job() {
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "amber", 8, 2.0), Job::new(1, "icon", 8, 1.0)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        let table = out.render();
        assert!(table.contains("| amber"));
        assert!(table.contains("| icon"));
        assert!(table.contains("utilization"));
    }
}
