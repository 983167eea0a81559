//! Who *starts*: the dispatch pass that ends every instant.
//!
//! **Conservative backfill.** The queue is walked in priority order and
//! each job is given the earliest start compatible with the running
//! jobs and the *reservations of every job ahead of it*; a job starts
//! now only when that earliest start is now. Reservations use each job's
//! worst-case runtime (scatter placement over the whole machine), an
//! upper bound on any actual runtime, so a backfilled job can never push
//! a higher-priority reservation later — the classic conservative
//! guarantee, by construction.

use crate::job::Job;
use crate::schedule::Attempt;
use crate::scheduler::{QueuePolicy, Scheduler};
use crate::state::{CampaignState, Running};

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
    /// Start every pending job of `state` whose reservation is now.
    pub(crate) fn dispatch(&self, jobs: &[Job], state: &mut CampaignState) {
        // Wall-clock self-profile of the backfill scan — the scheduler's
        // hot path. Observational only: nothing below reads the clock.
        jubench_metrics::profile_scope!("sched/backfill");
        jubench_metrics::counter_add("sched/backfill_scans", 1);
        jubench_metrics::counter_add("sched/backfill_queue_jobs", state.pending.len() as u64);
        let t = state.t;
        state.pending.sort_by(|a, b| {
            jobs[b.idx]
                .priority
                .cmp(&jobs[a.idx].priority)
                .then(a.eligible_s.total_cmp(&b.eligible_s))
                .then(jobs[a.idx].id.cmp(&jobs[b.idx].id))
        });
        let releases = state
            .running
            .iter()
            .map(|r| (r.end_s, r.alloc.nodes.len() as i64));
        let mut profile = Profile {
            now_free: state.free.len() as i64,
            deltas: releases.collect(),
        };
        let mut i = 0;
        while i < state.pending.len() {
            let idx = state.pending[i].idx;
            let job = &jobs[idx];
            let remaining = (job.service_s - state.service_done[idx]).max(0.0);
            let est = self.worst_case_runtime(job, remaining);
            let eligible_s = state.pending[i].eligible_s;
            let start = profile.earliest_start(t.max(eligible_s), est, job.nodes);
            if start == Some(t) && eligible_s <= t {
                let end_s = self.start(job, remaining, state, i);
                profile.reserve(t, end_s, job.nodes);
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

    /// Start `state.pending[i]` — an attempt of `job` owing `remaining`
    /// ideal service — now: place it, record and log the attempt, move
    /// it to `running`. Returns the attempt's end time.
    fn start(&self, job: &Job, remaining: f64, state: &mut CampaignState, i: usize) -> f64 {
        let machine = &self.machine;
        let p = state.pending.remove(i);
        let alloc = self
            .config
            .placement
            .place(machine, &state.free, job.nodes)
            .expect("profile said the job fits now");
        for n in &alloc.nodes {
            state.free.remove(n);
        }
        let (t, resumed) = (state.t, state.service_done[p.idx]);
        let (cells, span) = (alloc.cell_count(machine), alloc.span());
        let slowdown = alloc.slowdown(machine, &self.net);
        let (dur, writes) = Scheduler::runtime(job, slowdown, remaining);
        let rec = &mut state.records[p.idx];
        rec.allocation = alloc.nodes.clone();
        rec.attempts.push(Attempt {
            start_s: t,
            end_s: t + dur,
            cell: alloc.primary_cell(machine),
            cells,
            span,
            slowdown,
            preempted: false,
            ckpts: writes,
            resumed_service_s: resumed,
            lost_s: 0.0,
        });
        let ckpt_note = if job.ckpt.is_some() {
            format!(" ckpts={writes} resumed={resumed:.6}")
        } else {
            String::new()
        };
        state.log.push(format!(
            "[t={t:.6}] start job {} name={} attempt={} nodes={}..{} cells={cells} span={span} slowdown={slowdown:.6} end={:.6}{ckpt_note}",
            rec.id,
            rec.name,
            p.attempt + 1,
            alloc.nodes.first().unwrap(),
            alloc.nodes.last().unwrap(),
            t + dur,
        ));
        state.running.push(Running {
            idx: p.idx,
            attempt_index: rec.attempts.len() - 1,
            alloc,
            end_s: t + dur,
        });
        t + dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::sched;
    use crate::PlacementPolicy;
    use jubench_faults::FaultPlan;

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
}
