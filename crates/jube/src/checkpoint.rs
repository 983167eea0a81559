//! Workflow checkpoint/resume: a store of completed step executions.
//!
//! A [`WorkflowCheckpoint`] attached via [`crate::Workflow::with_checkpoint`]
//! records every finished step run — its outputs, how many attempts it
//! took, and whether it succeeded. When the same workflow executes again
//! with the store attached (after a crash, an abort, or an explicit
//! snapshot/restore cycle), recorded steps are *not* re-executed: their
//! outputs and trace phases are replayed from the record, so the resumed
//! run's result tables and Chrome traces are byte-identical to an
//! uninterrupted run. Only steps that never completed (including the one
//! whose failure aborted the original run) execute again.

use std::collections::BTreeMap;
use std::sync::Mutex;

use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};

use crate::step::StepOutput;

/// One finished step execution of one workpackage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedStep {
    /// Attempts the step took (1 = first try succeeded); replayed as
    /// `attempt − 1` step-retry trace phases.
    pub attempt: u32,
    /// Whether the action eventually succeeded. `false` records a
    /// retries-exhausted step whose policy was `Continue`.
    pub succeeded: bool,
    /// The outputs as merged into the workpackage (including the
    /// `<name>.attempts` / `<name>.failed` bookkeeping keys).
    pub outputs: StepOutput,
}

/// Thread-safe store of completed `(workpackage, step)` executions —
/// the workflow engine's checkpoint state.
#[derive(Default)]
pub struct WorkflowCheckpoint {
    done: Mutex<BTreeMap<(u32, String), CompletedStep>>,
}

impl WorkflowCheckpoint {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed step executions recorded so far.
    pub fn len(&self) -> usize {
        self.done.lock().unwrap().len()
    }

    /// True when nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the record for one step of one workpackage.
    pub fn lookup(&self, workpackage: u32, step: &str) -> Option<CompletedStep> {
        self.done
            .lock()
            .unwrap()
            .get(&(workpackage, step.to_string()))
            .cloned()
    }

    /// Record a finished step execution.
    pub fn record(&self, workpackage: u32, step: &str, done: CompletedStep) {
        self.done
            .lock()
            .unwrap()
            .insert((workpackage, step.to_string()), done);
    }
}

impl Checkpointable for WorkflowCheckpoint {
    fn kind(&self) -> &'static str {
        "jube-workflow"
    }

    fn snapshot(&self) -> Vec<u8> {
        let done = self.done.lock().unwrap();
        let mut w = SnapshotWriter::new();
        w.put_seq(done.iter(), |w, ((wp, step), rec)| {
            w.put_u32(*wp);
            w.put_str(step);
            w.put_u32(rec.attempt);
            w.put_bool(rec.succeeded);
            w.put_seq(&rec.outputs, |w, (k, v)| {
                w.put_str(k);
                w.put_str(v);
            });
        });
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open("jube-workflow", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let done = r.get_seq("completed-step count", |r| {
            let key = (r.get_u32("workpackage")?, r.get_str("step name")?);
            let attempt = r.get_u32("attempt count")?;
            let succeeded = r.get_bool("succeeded flag")?;
            let outputs = r.get_seq("output count", |r| {
                Ok((r.get_str("output key")?, r.get_str("output value")?))
            })?;
            Ok((
                key,
                CompletedStep {
                    attempt,
                    succeeded,
                    outputs: outputs.into_iter().collect(),
                },
            ))
        })?;
        r.expect_end()?;
        self.done = Mutex::new(done.into_iter().collect());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::output1;

    fn sample() -> WorkflowCheckpoint {
        let store = WorkflowCheckpoint::new();
        store.record(
            0,
            "execute",
            CompletedStep {
                attempt: 3,
                succeeded: true,
                outputs: output1("fom", "17"),
            },
        );
        store.record(
            1,
            "execute",
            CompletedStep {
                attempt: 2,
                succeeded: false,
                outputs: output1("execute.failed", "always down"),
            },
        );
        store
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_identity() {
        let store = sample();
        let snap = store.snapshot();
        let mut restored = WorkflowCheckpoint::new();
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.lookup(0, "execute").unwrap().attempt, 3);
        assert!(!restored.lookup(1, "execute").unwrap().succeeded);
        assert_eq!(restored.lookup(2, "execute"), None);
    }

    #[test]
    fn corrupt_store_snapshot_errors() {
        let good = sample().snapshot();
        let mut target = WorkflowCheckpoint::new();
        for cut in 0..good.len() {
            assert!(target.restore(&good[..cut]).is_err());
        }
        let mut bad = good.clone();
        bad[20] ^= 0x40;
        assert!(target.restore(&bad).is_err());
    }
}
