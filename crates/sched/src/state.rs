//! What is *stored*: [`CampaignState`], its snapshot format, and every
//! check bytes must pass to become a state again.
//!
//! The snapshot is the state's fields in declaration order through the
//! `jubench-ckpt` sequence codec, sealed as kind `"sched-campaign"`; it
//! embeds neither the job set nor the fault plan.
//! [`CampaignState::from_snapshot`] is the one way back from bytes —
//! [`Checkpointable::restore`] and `Scheduler::resume` both go through
//! it — so the envelope, structural and job-set checks live here and
//! nowhere else.

use std::collections::BTreeSet;

use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};

use crate::job::{CkptSpec, Job};
use crate::placement::Allocation;
use crate::schedule::{Attempt, JobOutcome, JobRecord};

/// A queued job awaiting dispatch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pending {
    pub(crate) idx: usize,
    pub(crate) eligible_s: f64,
    pub(crate) attempt: u32,
}

/// A dispatched job occupying nodes until `end_s`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Running {
    pub(crate) idx: usize,
    pub(crate) alloc: Allocation,
    pub(crate) end_s: f64,
    pub(crate) attempt_index: usize,
}

/// The scheduler's complete mid-campaign state: everything the event
/// loop needs to continue from an arbitrary stop point. Produced by
/// [`Scheduler::begin`](crate::Scheduler::begin), stepped by
/// [`Scheduler::advance`](crate::Scheduler::advance), turned into a
/// [`Schedule`](crate::Schedule) by
/// [`Scheduler::finish`](crate::Scheduler::finish).
///
/// Implements [`Checkpointable`]: a campaign stopped at any virtual
/// time, snapshotted, restored and driven to completion yields records
/// and a decision log byte-identical to the uninterrupted run. The
/// snapshot does *not* embed the job set or fault plan — the caller
/// passes the same ones back to `advance`;
/// [`Scheduler::resume`](crate::Scheduler::resume) cross-checks the job
/// set against the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    pub(crate) t: f64,
    pub(crate) free: BTreeSet<u32>,
    /// Drained or crashed.
    pub(crate) down: BTreeSet<u32>,
    pub(crate) crashed: BTreeSet<u32>,
    pub(crate) running: Vec<Running>,
    pub(crate) pending: Vec<Pending>,
    pub(crate) submitted: Vec<bool>,
    /// Cursors into the plan's sorted drain-start / drain-end / crash
    /// event lists (recomputed deterministically from the plan).
    pub(crate) di: usize,
    pub(crate) ei: usize,
    pub(crate) ci: usize,
    /// Ideal service time each job has banked through checkpoints.
    pub(crate) service_done: Vec<f64>,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) log: Vec<String>,
    pub(crate) done: bool,
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
    /// instead of waiting for [`Scheduler::finish`](crate::Scheduler::finish).
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

    /// Return an ended attempt's nodes to service — those that are not
    /// drained or crashed.
    pub(crate) fn release(&mut self, alloc: &Allocation) {
        let up = alloc.nodes.iter().filter(|n| !self.down.contains(n));
        self.free.extend(up);
    }

    /// Decode a sealed snapshot and check it, the only way bytes become
    /// a state: envelope kind and checksum, then the fields, then
    /// structural consistency (every index addresses a decoded record,
    /// or a later step of the loop would panic), then — when the caller
    /// names the `campaign` it resumes, as `(jobs, machine nodes)` —
    /// that the snapshot belongs to these jobs on this machine.
    pub(crate) fn from_snapshot(
        bytes: &[u8],
        campaign: Option<(&[Job], u32)>,
    ) -> Result<Self, CkptError> {
        let payload = open("sched-campaign", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let state = CampaignState {
            t: r.get_f64("virtual time")?,
            free: get_node_set(&mut r, "free node set")?,
            down: get_node_set(&mut r, "down node set")?,
            crashed: get_node_set(&mut r, "crashed node set")?,
            running: r.get_seq("running count", |r| {
                Ok(Running {
                    idx: r.get_usize("running job index")?,
                    alloc: Allocation {
                        nodes: r.get_seq("allocation length", |r| r.get_u32("allocated node"))?,
                    },
                    end_s: r.get_f64("running end time")?,
                    attempt_index: r.get_usize("running attempt index")?,
                })
            })?,
            pending: r.get_seq("pending count", |r| {
                Ok(Pending {
                    idx: r.get_usize("pending job index")?,
                    eligible_s: r.get_f64("pending eligible time")?,
                    attempt: r.get_u32("pending attempt")?,
                })
            })?,
            submitted: r.get_seq("submitted count", |r| r.get_bool("submitted flag"))?,
            di: r.get_usize("drain-start cursor")?,
            ei: r.get_usize("drain-end cursor")?,
            ci: r.get_usize("crash cursor")?,
            service_done: r.get_seq("service-done count", |r| r.get_f64("service-done credit"))?,
            records: r.get_seq("record count", get_record)?,
            log: r.get_seq("log line count", |r| r.get_str("log line"))?,
            done: r.get_bool("done flag")?,
        };
        r.expect_end()?;
        state
            .check(campaign)
            .map_err(|what| CkptError::Malformed { what })?;
        Ok(state)
    }

    /// What [`Self::from_snapshot`] requires of decoded fields.
    fn check(&self, campaign: Option<(&[Job], u32)>) -> Result<(), String> {
        let n = self.records.len();
        if self.submitted.len() != n || self.service_done.len() != n {
            return Err(format!(
                "job-count mismatch: {n} records, {} submitted flags, {} service credits",
                self.submitted.len(),
                self.service_done.len()
            ));
        }
        for run in &self.running {
            if run.idx >= n || run.attempt_index >= self.records[run.idx].attempts.len() {
                return Err(format!(
                    "running entry addresses job {} out of range",
                    run.idx
                ));
            }
        }
        if let Some(p) = self.pending.iter().find(|p| p.idx >= n) {
            return Err(format!(
                "pending entry addresses job {} out of range",
                p.idx
            ));
        }
        let Some((jobs, nodes)) = campaign else {
            return Ok(());
        };
        if n != jobs.len() {
            return Err(format!(
                "snapshot holds {n} jobs, campaign has {}",
                jobs.len()
            ));
        }
        let mut pairs = self.records.iter().zip(jobs);
        if let Some((rec, job)) = pairs.find(|(rec, job)| rec.id != job.id || rec.name != job.name)
        {
            return Err(format!(
                "snapshot job {} ({}) does not match campaign job {} ({})",
                rec.id, rec.name, job.id, job.name
            ));
        }
        match self.free.iter().chain(&self.down).max() {
            Some(&node) if node >= nodes => {
                Err(format!("snapshot node {node} exceeds machine of {nodes}"))
            }
            _ => Ok(()),
        }
    }
}

fn get_node_set(r: &mut SnapshotReader, what: &'static str) -> Result<BTreeSet<u32>, CkptError> {
    Ok(r.get_seq(what, |r| r.get_u32(what))?.into_iter().collect())
}

fn get_record(r: &mut SnapshotReader) -> Result<JobRecord, CkptError> {
    Ok(JobRecord {
        id: r.get_u32("job id")?,
        name: r.get_str("job name")?,
        nodes: r.get_u32("job nodes")?,
        priority: r.get_u32("job priority")? as i32,
        submit_s: r.get_f64("job submit time")?,
        attempts: r.get_seq("attempt count", |r| {
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
        })?,
        allocation: r.get_seq("record allocation length", |r| {
            r.get_u32("record allocated node")
        })?,
        outcome: match r.get_u8("job outcome")? {
            0 => JobOutcome::Finished,
            1 => JobOutcome::Failed,
            other => {
                return Err(CkptError::Malformed {
                    what: format!("job outcome tag {other}"),
                })
            }
        },
        // A presence flag each, and values that are written either way.
        end_s: {
            let present = r.get_bool("end-time presence flag")?;
            Some(r.get_f64("end time")?).filter(|_| present)
        },
        ckpt: {
            let present = r.get_bool("ckpt-spec presence flag")?;
            let (interval_s, cost_s) = (r.get_f64("ckpt interval")?, r.get_f64("ckpt cost")?);
            present.then_some(CkptSpec { interval_s, cost_s })
        },
    })
}

impl Checkpointable for CampaignState {
    fn kind(&self) -> &'static str {
        "sched-campaign"
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_f64(self.t);
        for nodes in [&self.free, &self.down, &self.crashed] {
            w.put_seq(nodes, |w, &n| w.put_u32(n));
        }
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
            w.put_u8(rec.outcome as u8);
            w.put_bool(rec.end_s.is_some());
            w.put_f64(rec.end_s.unwrap_or(0.0));
            w.put_bool(rec.ckpt.is_some());
            let (interval_s, cost_s) = rec.ckpt.map_or((0.0, 0.0), |c| (c.interval_s, c.cost_s));
            w.put_f64(interval_s);
            w.put_f64(cost_s);
        });
        w.put_seq(&self.log, |w, line| w.put_str(line));
        w.put_bool(self.done);
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        *self = Self::from_snapshot(bytes, None)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::tests::sched;
    use crate::{PlacementPolicy, QueuePolicy};
    use jubench_faults::FaultPlan;

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
}
