//! Checkpoint/restart differential tests: the headline invariant is
//! that killing a computation at **any** virtual time, snapshotting,
//! restoring (as another process would) and continuing produces result
//! tables and Chrome traces **byte-identical** to the uninterrupted
//! reference run. Exercised here for the HMC chain, a jube workflow,
//! and the full scheduler campaign — the campaign at 1, 2, and 8 pool
//! threads — plus the corruption sweeps: truncated or bit-flipped
//! snapshots error (never panic), leave the restore target untouched,
//! and degrade into a restart from zero at the scheduler.

use std::sync::Arc;

use jubench::apps_lattice::HmcChain;
use jubench::jube::{output1, WorkflowCheckpoint};
use jubench::pool::with_threads;
use jubench::prelude::*;
use jubench::sched::CampaignState;

const THREADS: [usize; 3] = [1, 2, 8];

// ----- HMC chain ---------------------------------------------------------

fn fresh_chain() -> HmcChain {
    HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.1, 17)
}

#[test]
fn hmc_kill_resume_matches_the_uninterrupted_chain_anywhere() {
    let mut reference = fresh_chain();
    reference.run(6);
    let ref_table = reference.history_table();
    let ref_snap = reference.snapshot();
    for kill_after in [0u64, 1, 3, 5, 6] {
        let mut victim = fresh_chain();
        victim.run(kill_after);
        let snap = victim.snapshot();
        drop(victim); // the process is gone; only the bytes survive
        let mut resumed = fresh_chain();
        resumed.restore(&snap).unwrap();
        resumed.run(6 - kill_after);
        assert_eq!(
            resumed.history_table(),
            ref_table,
            "killed after {kill_after} trajectories"
        );
        assert_eq!(
            resumed.snapshot(),
            ref_snap,
            "killed after {kill_after} trajectories"
        );
    }
}

#[test]
fn corrupt_hmc_snapshot_errors_and_leaves_the_chain_untouched() {
    let mut source = fresh_chain();
    source.run(2);
    let good = source.snapshot();
    let mut target = fresh_chain();
    let pristine = target.snapshot();
    // Truncation at every prefix length must error, never panic.
    for cut in 0..good.len() {
        assert!(target.restore(&good[..cut]).is_err(), "prefix {cut}");
    }
    // A sample of single-bit flips across the whole snapshot.
    for pos in (0..good.len()).step_by(37) {
        let mut bad = good.clone();
        bad[pos] ^= 0x08;
        assert!(target.restore(&bad).is_err(), "bit flip at {pos}");
    }
    // Every failed restore left the target exactly as it was.
    assert_eq!(target.snapshot(), pristine);
    target.restore(&good).unwrap();
    assert_eq!(target.snapshot(), good);
}

// ----- jube workflow -----------------------------------------------------

fn study_workflow(fail_execute_once: bool) -> Workflow {
    use std::sync::atomic::{AtomicU32, Ordering};
    let mut wf = Workflow::new();
    wf.params.set_list("nodes", ["2", "4", "8"]);
    wf.add_step(Step::new("compile", |_| Ok(output1("binary", "bench.x"))));
    let failures = Arc::new(AtomicU32::new(0));
    wf.add_step(
        Step::new("execute", move |ctx| {
            if fail_execute_once && failures.fetch_add(1, Ordering::SeqCst) == 1 {
                return Err("node died mid-campaign".into());
            }
            let nodes = ctx.param("nodes").unwrap().to_string();
            Ok(output1("out", format!("ran-on-{nodes}")))
        })
        .after("compile"),
    );
    wf.add_step(
        Step::new("analyse", |ctx| {
            Ok(output1(
                "fom",
                format!("{}!", ctx.output("execute", "out").unwrap()),
            ))
        })
        .after("execute"),
    );
    wf
}

/// Result table + full trace of one workflow run, as comparable bytes.
fn workflow_artifact(wf: &Workflow, rec: &Recorder) -> String {
    let results = wf.execute(&[]).unwrap();
    let table: String = results
        .iter()
        .map(|r| {
            format!(
                "nodes={} fom={}\n",
                r.value("nodes").unwrap(),
                r.value("fom").unwrap()
            )
        })
        .collect();
    format!("{table}{}", chrome_trace_json(&rec.take_events()))
}

#[test]
fn workflow_killed_and_resumed_from_snapshot_matches_reference() {
    let ref_rec = Arc::new(Recorder::new());
    let reference = workflow_artifact(
        &study_workflow(false).with_recorder(ref_rec.clone()),
        &ref_rec,
    );

    // First run dies inside the second workpackage's execute step; the
    // checkpoint keeps every step that completed before the crash.
    let store = Arc::new(WorkflowCheckpoint::new());
    assert!(study_workflow(true)
        .with_checkpoint(store.clone())
        .execute(&[])
        .is_err());
    assert!(!store.is_empty());

    // Process death: only the snapshot bytes cross over.
    let snap = store.snapshot();
    let mut restored = WorkflowCheckpoint::new();
    restored.restore(&snap).unwrap();
    let res_rec = Arc::new(Recorder::new());
    let resumed = workflow_artifact(
        &study_workflow(false)
            .with_recorder(res_rec.clone())
            .with_checkpoint(Arc::new(restored)),
        &res_rec,
    );
    assert_eq!(resumed, reference, "resumed run must be byte-identical");
}

// ----- scheduler campaign ------------------------------------------------

fn campaign_scheduler() -> Scheduler {
    Scheduler::new(
        Machine::juwels_booster().partition(96),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            9,
        ),
    )
}

fn campaign_jobs() -> Vec<Job> {
    (0..10u32)
        .map(|i| {
            let mut j = Job::new(i, &format!("job{i}"), 8 + 8 * (i % 4), 2.0 + 0.3 * i as f64)
                .with_comm_fraction(0.2)
                .with_priority((i % 3) as i32)
                .with_submit(0.25 * i as f64)
                .with_retry(RetryPolicy::new(16, 0.05).with_multiplier(1.0));
            if i % 2 == 0 {
                j = j.with_checkpointing(0.4, 0.02);
            }
            j
        })
        .collect()
}

fn campaign_plan() -> FaultPlan {
    // Seeded recurring drains plus a pinned drain window [1, 3) and a
    // permanent crash, so kill times can land inside a fault window.
    FaultPlan::periodic_drains(9, 96, 4.0, 0.5, 30.0, 4.0)
        .with_slow_node_window(5, 4.0, 1.0, 3.0)
        .with_rank_crash(40, 2.5)
}

/// Schedule log + Chrome trace of one campaign run, as comparable bytes.
fn campaign_artifact(state: CampaignState) -> String {
    let schedule = campaign_scheduler().finish(state);
    let rec = Recorder::new();
    schedule.emit(&rec);
    format!(
        "{}\n{}",
        schedule.log.join("\n"),
        chrome_trace_json(&rec.take_events())
    )
}

fn straight_through_campaign() -> String {
    let sched = campaign_scheduler();
    let (jobs, plan) = (campaign_jobs(), campaign_plan());
    let mut state = sched.begin(&jobs);
    sched.advance(&mut state, &jobs, &plan, f64::INFINITY);
    campaign_artifact(state)
}

fn killed_and_resumed_campaign(t_kill: f64) -> String {
    let sched = campaign_scheduler();
    let (jobs, plan) = (campaign_jobs(), campaign_plan());
    let mut state = sched.begin(&jobs);
    sched.advance(&mut state, &jobs, &plan, t_kill);
    let snap = state.snapshot();
    drop(state); // the scheduler process dies here
    let mut resumed = campaign_scheduler().resume(&snap, &jobs).unwrap();
    sched.advance(&mut resumed, &jobs, &plan, f64::INFINITY);
    campaign_artifact(resumed)
}

/// Kill times covering campaign start, mid-queue, the interior of the
/// pinned drain window [1, 3), the crash instant, and the tail.
const KILL_TIMES: [f64; 5] = [0.0, 0.8, 2.0, 2.5, 6.5];

#[test]
fn campaign_kill_resume_is_byte_identical_at_every_kill_time() {
    let reference = straight_through_campaign();
    assert!(
        reference.contains("drain node 5"),
        "the pinned fault window must be active"
    );
    for t_kill in KILL_TIMES {
        assert_eq!(
            killed_and_resumed_campaign(t_kill),
            reference,
            "killed at t={t_kill}"
        );
    }
}

#[test]
fn campaign_kill_resume_is_byte_identical_across_pool_widths() {
    // The same differential at every pool width: the 1-thread run is the
    // sequential reference; any scheduling-order leak into the log or
    // trace shows up as a byte diff.
    let artifact = || {
        let reference = straight_through_campaign();
        for t_kill in KILL_TIMES {
            assert_eq!(killed_and_resumed_campaign(t_kill), reference);
        }
        reference
    };
    let reference = with_threads(THREADS[0], artifact);
    for &t in &THREADS[1..] {
        assert_eq!(
            with_threads(t, artifact),
            reference,
            "campaign artifact at {t} pool threads diverged from sequential"
        );
    }
}

#[test]
fn corrupt_campaign_snapshot_is_refused_with_a_typed_error() {
    let sched = campaign_scheduler();
    let (jobs, plan) = (campaign_jobs(), campaign_plan());
    let mut state = sched.begin(&jobs);
    sched.advance(&mut state, &jobs, &plan, 2.0);
    let good = state.snapshot();

    // Truncation at every prefix length errors, never panics.
    for cut in 0..good.len() {
        assert!(sched.resume(&good[..cut], &jobs).is_err(), "prefix {cut}");
    }
    // A sample of single-bit flips across the snapshot.
    for pos in (0..good.len()).step_by(53) {
        let mut bad = good.clone();
        bad[pos] ^= 0x10;
        assert!(sched.resume(&bad, &jobs).is_err(), "bit flip at {pos}");
    }
    // A snapshot of a different job set is refused too.
    assert!(matches!(
        sched.resume(&good, &jobs[1..]),
        Err(CkptError::Malformed { .. })
    ));
    // The intact snapshot still resumes, and a caller that answers a
    // refusal by restarting from zero converges to the same artifact.
    let mut resumed = sched.resume(&good, &jobs).unwrap();
    assert_eq!(resumed.now(), state.now());
    sched.advance(&mut resumed, &jobs, &plan, f64::INFINITY);
    let mut from_zero = sched.begin(&jobs);
    sched.advance(&mut from_zero, &jobs, &plan, f64::INFINITY);
    assert_eq!(campaign_artifact(resumed), campaign_artifact(from_zero));
}

#[test]
fn wrong_kind_snapshot_is_rejected_with_a_typed_error() {
    // An HMC snapshot is a structurally valid envelope of the wrong
    // kind: every consumer must reject it with WrongKind, not decode it.
    let mut chain = fresh_chain();
    chain.run(1);
    let hmc_snap = chain.snapshot();
    let sched = campaign_scheduler();
    let jobs = campaign_jobs();
    let err = sched.resume(&hmc_snap, &jobs).map(|_| ()).unwrap_err();
    match err {
        CkptError::WrongKind { expected, found } => {
            assert_eq!(expected, "sched-campaign");
            assert_eq!(found, "hmc-chain");
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
    let mut store = WorkflowCheckpoint::new();
    assert!(matches!(
        store.restore(&hmc_snap),
        Err(CkptError::WrongKind { .. })
    ));
}
