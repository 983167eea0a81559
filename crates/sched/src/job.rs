//! Batch jobs: the unit of work the scheduler places on the machine.

use jubench_faults::RetryPolicy;

/// Checkpointing behaviour of a job: write a checkpoint every
/// `interval_s` seconds of (placement-inflated) work, each write costing
/// `cost_s` of wall time. A preempted job restarts from its last
/// completed checkpoint instead of from zero, so the work lost to a
/// drain or crash is at most one interval plus the progress into the
/// interrupted write. See [`jubench_ckpt::young_interval`] /
/// [`jubench_ckpt::daly_interval`] for choosing `interval_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptSpec {
    /// Work between consecutive checkpoint writes, wall seconds.
    pub interval_s: f64,
    /// Wall time each checkpoint write costs.
    pub cost_s: f64,
}

/// One batch job: a node request plus a cost model. `service_s` is the
/// job's fault-free runtime on an ideal (single-cell, congestion-free)
/// allocation; the placement the scheduler actually grants inflates the
/// communication share of that time (see
/// [`Allocation::slowdown`](crate::placement::Allocation::slowdown)).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Caller-assigned id; schedule records and trace tracks key on it.
    pub id: u32,
    /// Display name (benchmark id for campaign jobs).
    pub name: String,
    /// Nodes requested.
    pub nodes: u32,
    /// Runtime on an ideal allocation, virtual seconds.
    pub service_s: f64,
    /// Fraction of `service_s` spent communicating — the part placement
    /// can inflate. In `[0, 1]`.
    pub comm_fraction: f64,
    /// Larger runs first. Ties broken by submit time, then id.
    pub priority: i32,
    /// Virtual submit time, seconds.
    pub submit_s: f64,
    /// Requeue policy after a preemption (node drain or crash). Each
    /// preemption consumes one attempt and charges the policy's backoff
    /// before the job becomes eligible again.
    pub retry: RetryPolicy,
    /// Checkpointing spec, when the job checkpoints. `None` (the
    /// default) means a preempted job restarts from zero.
    pub ckpt: Option<CkptSpec>,
}

impl Job {
    /// A job with neutral priority, submit time zero, no communication
    /// sensitivity, and three restart attempts.
    pub fn new(id: u32, name: &str, nodes: u32, service_s: f64) -> Self {
        assert!(nodes >= 1, "a job needs at least one node");
        assert!(service_s > 0.0, "a job needs positive service time");
        Job {
            id,
            name: name.to_string(),
            nodes,
            service_s,
            comm_fraction: 0.0,
            priority: 0,
            submit_s: 0.0,
            retry: RetryPolicy::new(3, 1.0),
            ckpt: None,
        }
    }

    pub fn with_comm_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.comm_fraction = fraction;
        self
    }

    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_submit(mut self, submit_s: f64) -> Self {
        assert!(submit_s >= 0.0);
        self.submit_s = submit_s;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Checkpoint every `interval_s` of work at `cost_s` per write.
    pub fn with_checkpointing(mut self, interval_s: f64, cost_s: f64) -> Self {
        assert!(interval_s > 0.0, "checkpoint interval must be positive");
        assert!(cost_s >= 0.0, "checkpoint cost cannot be negative");
        self.ckpt = Some(CkptSpec { interval_s, cost_s });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let j = Job::new(3, "amber", 8, 2.5)
            .with_comm_fraction(0.4)
            .with_priority(2)
            .with_submit(10.0)
            .with_retry(RetryPolicy::new(5, 0.5))
            .with_checkpointing(0.5, 0.05);
        assert_eq!(j.id, 3);
        assert_eq!(j.nodes, 8);
        assert_eq!(j.comm_fraction, 0.4);
        assert_eq!(j.priority, 2);
        assert_eq!(j.submit_s, 10.0);
        assert_eq!(j.retry.max_attempts, 5);
        assert_eq!(
            j.ckpt,
            Some(CkptSpec {
                interval_s: 0.5,
                cost_s: 0.05
            })
        );
    }

    #[test]
    fn checkpointing_defaults_to_off() {
        assert_eq!(Job::new(0, "x", 1, 1.0).ckpt, None);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_ckpt_interval_rejected() {
        let _ = Job::new(0, "x", 1, 1.0).with_checkpointing(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Job::new(0, "x", 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive service time")]
    fn zero_service_rejected() {
        Job::new(0, "x", 1, 0.0);
    }
}
