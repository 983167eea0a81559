//! What a finished campaign *is*: the per-job records and the decision
//! log, plus everything derived from them — the statistics, the markdown
//! table ([`Schedule::render`]) and the trace events
//! ([`Schedule::emit`]). A [`Schedule`] is plain data and nothing here
//! reaches back into the scheduler, so equal records export equal bytes.

use jubench_ckpt::WriteTimes;
use jubench_cluster::Machine;
use jubench_trace::{
    CkptPhase, EventKind, SchedPhase, TraceEvent, TraceSink, SCHED_CELL_TRACK_BASE,
};

use crate::job::CkptSpec;

/// Why a job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Finished = 0,
    /// Preemptions exhausted the retry policy, or the request could never
    /// fit the machine's surviving capacity.
    Failed = 1,
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
    /// The job's checkpointing spec, copied from
    /// [`Job::ckpt`](crate::Job::ckpt).
    pub ckpt: Option<CkptSpec>,
}

impl JobRecord {
    /// Start of the attempt that completed (the last one).
    pub fn start_s(&self) -> Option<f64> {
        self.attempts.last().map(|a| a.start_s)
    }

    /// Queue wait before the first start.
    pub(crate) fn first_wait_s(&self) -> Option<f64> {
        self.attempts.first().map(|a| a.start_s - self.submit_s)
    }

    /// Runtime of the completing attempt.
    pub(crate) fn run_s(&self) -> Option<f64> {
        Some(self.end_s? - self.start_s()?)
    }

    /// Bounded slowdown `(end − submit) / run`: 1.0 for a job that never
    /// waited, larger the more of its life it spent queued or redone.
    pub fn stretch(&self) -> Option<f64> {
        let (end, run) = (self.end_s?, self.run_s()?);
        (run > 0.0).then(|| (end - self.submit_s) / run)
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

/// Mean of `xs`, summed in order; `empty` when there is nothing to average.
fn mean_or(xs: impl Iterator<Item = f64>, empty: f64) -> f64 {
    let xs: Vec<f64> = xs.collect();
    if xs.is_empty() {
        empty
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
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
        let waits = self.records.iter().filter_map(|r| r.first_wait_s());
        mean_or(waits, 0.0)
    }

    /// The finished jobs' bounded slowdowns, in job-id order.
    fn stretches(&self) -> impl Iterator<Item = f64> + '_ {
        self.records.iter().filter_map(|r| r.stretch())
    }

    /// Mean bounded slowdown over finished jobs.
    pub fn mean_stretch(&self) -> f64 {
        mean_or(self.stretches(), 1.0)
    }

    /// Jain's fairness index over the finished jobs' bounded slowdowns:
    /// `(Σx)² / (n · Σx²)`, 1.0 when every job was stretched equally,
    /// approaching `1/n` when one job absorbed all the waiting.
    pub fn jain_fairness(&self) -> f64 {
        let s: Vec<f64> = self.stretches().collect();
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
        let mut segments: Vec<UtilSegment> = Vec::new();
        let mut busy: i64 = 0;
        for at_t in deltas.chunk_by(|a, b| a.0 == b.0) {
            let (t, d) = (at_t[0].0, at_t.iter().map(|x| x.1).sum::<i64>());
            if d == 0 {
                continue;
            }
            if let Some(last) = segments.last_mut() {
                last.t_end = t;
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

    /// The schedule as [`SchedPhase`] trace events, ordered by
    /// `(rank, seq)` as [`jubench_trace::Recorder::take_events`] orders
    /// them: one synthetic process per cell
    /// ([`SCHED_CELL_TRACK_BASE`]`+ cell`), one thread (`rank`) per job.
    /// The Submit span covers the queue wait, each attempt is a Start
    /// span, preemptions and completion are markers. Checkpointing jobs
    /// additionally carry a [`CkptPhase`] Write span per completed write
    /// and a Restore marker (with the preceding attempt's lost work) at
    /// each restart that resumed from banked progress. Write `j` lands
    /// after `j` intervals of work and `j − 1` earlier writes —
    /// [`WriteTimes`] is that closed form.
    pub fn events(&self) -> Vec<TraceEvent> {
        use SchedPhase::{Finish, Preempt, Start, Submit};
        let mut events = Vec::new();
        for r in &self.records {
            let mut seq: u64 = 0;
            let mut put = |cell: u32, t_start: f64, t_end: f64, kind: EventKind| {
                events.push(TraceEvent {
                    rank: r.id,
                    node: SCHED_CELL_TRACK_BASE + cell,
                    seq,
                    t_start,
                    t_end,
                    kind,
                });
                seq += 1;
            };
            let sched = |phase, cells| EventKind::Sched {
                job: r.id,
                name: r.name.clone(),
                phase,
                nodes: r.nodes,
                cells,
            };
            let ckpt = |phase, cost_s, lost_s| EventKind::Ckpt {
                job: r.id,
                name: r.name.clone(),
                phase,
                cost_s,
                lost_s,
            };
            let first = r.attempts.first();
            let (home, first_start) = first.map_or((0, r.submit_s), |a| (a.cell, a.start_s));
            put(home, r.submit_s, first_start, sched(Submit, 0));
            let mut prev_lost = 0.0;
            for a in &r.attempts {
                put(a.cell, a.start_s, a.end_s, sched(Start, a.cells));
                if let Some(spec) = r.ckpt {
                    if a.resumed_service_s > 0.0 {
                        let restore = ckpt(CkptPhase::Restore, 0.0, prev_lost);
                        put(a.cell, a.start_s, a.start_s, restore);
                    }
                    let writes = WriteTimes::new(a.start_s, spec.interval_s, spec.cost_s, a.ckpts);
                    for (w_start, w_end) in writes {
                        let write = ckpt(CkptPhase::Write, spec.cost_s, 0.0);
                        put(a.cell, w_start, w_end, write);
                    }
                }
                prev_lost = a.lost_s;
                if a.preempted {
                    put(a.cell, a.end_s, a.end_s, sched(Preempt, a.cells));
                }
            }
            if let (Some(end), Some(last)) = (r.end_s, r.attempts.last()) {
                put(last.cell, end, end, sched(Finish, last.cells));
            }
        }
        events.sort_by_key(|e| (e.rank, e.seq));
        events
    }

    /// Deliver [`Schedule::events`] to `sink`, in that order.
    pub fn emit(&self, sink: &dyn TraceSink) {
        for event in self.events() {
            sink.record(event);
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
            // A job that never finished shows a dash in every run column.
            let ran = r.attempts.last().zip(r.end_s);
            let col = |width: usize, value: Option<String>| {
                format!("{:>width$}", value.unwrap_or_else(|| "-".to_string()))
            };
            let start = col(11, ran.map(|(a, _)| format!("{:.6}", a.start_s)));
            let end = col(11, ran.map(|(_, e)| format!("{e:.6}")));
            let wait = col(
                11,
                ran.map(|_| format!("{:.6}", r.first_wait_s().unwrap_or(0.0))),
            );
            let cells = col(5, ran.map(|(a, _)| a.cells.to_string()));
            let slow = col(8, ran.map(|(a, _)| format!("{:.3}", a.slowdown)));
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

#[cfg(test)]
mod tests {
    use crate::scheduler::tests::sched;
    use crate::{Job, PlacementPolicy, QueuePolicy};
    use jubench_faults::FaultPlan;

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
        use jubench_trace::RunReport;
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "a", 8, 2.0), Job::new(1, "b", 8, 1.0)];
        let out = s.run(&jobs, &FaultPlan::new(0));
        let events = out.events();
        assert!(events.iter().all(|e| e.is_synthetic()));
        let report = RunReport::from_events(&events);
        assert_eq!(report.sched.submitted, 2);
        assert_eq!(report.sched.started, 2);
        assert_eq!(report.sched.finished, 2);
        assert!((report.sched.busy_node_s - out.busy_node_s()).abs() < 1e-9);
    }

    #[test]
    fn emitted_ckpt_events_carry_overhead_and_lost_work() {
        use jubench_trace::RunReport;
        let s = sched(QueuePolicy::Fifo, PlacementPolicy::Contiguous);
        let jobs = vec![Job::new(0, "victim", 8, 8.0)
            .with_retry(jubench_faults::RetryPolicy::new(3, 0.5))
            .with_checkpointing(1.0, 0.01)];
        let plan = FaultPlan::new(0).with_slow_node_window(3, 8.0, 6.0, 7.0);
        let out = s.run(&jobs, &plan);
        let events = out.events();
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
