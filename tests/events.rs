//! Determinism harness for the event-driven virtual-time core.
//!
//! The scheduler (`Scheduler::run`) moves virtual time from one instant
//! to the next — the earliest future its `CampaignState` names — and
//! runs its handlers there in a fixed order. That is pinned here: every
//! artifact the suite exports — the decision log, the rendered schedule
//! table, the `RunReport` aggregate, and the Chrome trace JSON — is
//! byte-identical across pool widths and across any snapshot/resume
//! slicing of the same campaign, and a slice whose window holds no
//! event changes nothing. Any divergence in event ordering, float
//! arithmetic, or tie-breaking shows up as a byte diff here, not as a
//! subtly different table in a paper figure.

use std::sync::Arc;

use jubench::pool::with_threads;
use jubench::prelude::*;
use jubench::sched::registry_jobs;
use jubench::trace::RunReport;

const THREADS: [usize; 3] = [1, 2, 8];

fn booster_scheduler(seed: u64) -> Scheduler {
    Scheduler::new(
        Machine::juwels_booster().partition(144),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            seed,
        ),
    )
}

/// A plan that measurably perturbs the registry campaign: two drain
/// windows and one node crash landing while jobs are running.
fn faulted_plan() -> FaultPlan {
    FaultPlan::new(5)
        .with_slow_node_window(3, 2.0, 0.5, 3.0)
        .with_slow_node_window(70, 2.0, 1.0, 4.0)
        .with_rank_crash(10, 2.0)
}

/// Every exported artifact of one campaign run, concatenated: the
/// byte-identity surface of the harness.
fn campaign_bundle(scheduler: &Scheduler, jobs: &[Job], plan: &FaultPlan) -> String {
    let schedule = scheduler.run(jobs, plan);
    let rec = Arc::new(Recorder::new());
    schedule.emit(rec.as_ref());
    let events = rec.take_events();
    format!(
        "{}\n{}\n{}\n{}",
        schedule.log.join("\n"),
        schedule.render(),
        RunReport::from_events(&events).render(),
        chrome_trace_json(&events)
    )
}

/// The headline contract: over the full registry campaign, with and
/// without faults, the event engine's bytes are identical at every pool
/// width.
#[test]
fn event_engine_is_byte_identical_across_the_pool_matrix() {
    let registry = full_registry();
    let jobs = registry_jobs(&registry, 0.05);
    assert_eq!(jobs.len(), registry.len(), "one job per benchmark");
    let scheduler = booster_scheduler(2024);
    for (name, plan) in [("empty", FaultPlan::new(0)), ("faulted", faulted_plan())] {
        let oracle = with_threads(1, || campaign_bundle(&scheduler, &jobs, &plan));
        for &t in &THREADS {
            let bundle = with_threads(t, || campaign_bundle(&scheduler, &jobs, &plan));
            assert_eq!(
                bundle, oracle,
                "event engine is thread-variant ({name} plan, {t} pool threads)"
            );
        }
    }
}

/// The faulted arm of the matrix must actually exercise fault handling,
/// or the matrix above degenerates into the empty-plan case run twice.
#[test]
fn faulted_matrix_arm_preempts_jobs() {
    let jobs = registry_jobs(&full_registry(), 0.05);
    let scheduler = booster_scheduler(2024);
    let faulted = scheduler.run(&jobs, &faulted_plan());
    let clean = scheduler.run(&jobs, &FaultPlan::new(0));
    assert_eq!(faulted.finished(), jobs.len(), "retries recover every job");
    let preemptions: u32 = faulted.records.iter().map(|r| r.preemptions()).sum();
    assert!(preemptions > 0, "the drains must hit running jobs");
    assert_ne!(faulted.log, clean.log, "the plan must perturb the log");
}

/// `CampaignState` is the whole future of a campaign — so one sliced at
/// arbitrary points, with a snapshot/restore round trip across every
/// slice boundary, produces the same bytes as the straight-through run.
#[test]
fn snapshot_slicing_matches_the_straight_run() {
    let jobs = registry_jobs(&full_registry(), 0.05);
    let plan = faulted_plan();
    let scheduler = booster_scheduler(2024);
    let oracle = scheduler.run(&jobs, &plan);

    // First half → snapshot → resume to the end.
    let mut state = scheduler.begin(&jobs);
    scheduler.advance(&mut state, &jobs, &plan, oracle.makespan_s / 2.0);
    let bytes = state.snapshot();
    let mut resumed = scheduler
        .resume(&bytes, &jobs)
        .expect("own snapshot restores");
    scheduler.advance(&mut resumed, &jobs, &plan, f64::INFINITY);
    let handover = scheduler.finish(resumed);
    assert_eq!(handover.log, oracle.log, "half-way handover drifted");
    assert_eq!(handover.makespan_s, oracle.makespan_s);

    // Slice with an awkward width, snapshotting across every boundary.
    let mut state = scheduler.begin(&jobs);
    let slice = oracle.makespan_s / 7.3;
    let mut until = 0.0;
    loop {
        until += slice;
        let mut s = scheduler
            .resume(&state.snapshot(), &jobs)
            .expect("slice snapshot restores");
        let done = scheduler.advance(&mut s, &jobs, &plan, until);
        state = s;
        if done {
            break;
        }
    }
    let sliced = scheduler.finish(state);
    assert_eq!(sliced.log, oracle.log, "slice alternation drifted");
    assert_eq!(sliced.makespan_s, oracle.makespan_s);
}

/// The engine reports its own economy: far fewer processed events than
/// the virtual seconds it covered, with idle stretches skipped.
#[test]
fn event_engine_counters_reflect_event_economy() {
    let _guard = jubench::metrics::registry::test_mutex().lock().unwrap();
    jubench::metrics::set_enabled(true);
    let jobs = registry_jobs(&full_registry(), 0.05);
    let scheduler = booster_scheduler(2024);

    jubench::metrics::reset();
    let schedule = scheduler.run(&jobs, &faulted_plan());
    let snap = jubench::metrics::snapshot();
    let processed = snap
        .counters
        .get("sched/events_processed")
        .copied()
        .unwrap_or(0);
    let skipped = snap
        .counters
        .get("events/ticks_skipped")
        .copied()
        .unwrap_or(0);
    assert!(processed > 0, "the campaign processes events");
    assert!(
        (processed as f64) < schedule.makespan_s * 100.0,
        "processed {processed} events should be far below the tick count \
         of a {}s campaign",
        schedule.makespan_s
    );
    assert!(skipped > 0, "idle stretches are skipped, not stepped");
}

/// An `advance` whose window holds no event is free: the state is the
/// same value and the same bytes, and no handler, backfill scan or
/// nested scope runs.
#[test]
fn silent_reentry_changes_nothing() {
    let _guard = jubench::metrics::registry::test_mutex().lock().unwrap();
    jubench::metrics::set_enabled(true);
    let scheduler = booster_scheduler(2024);
    let jobs = vec![
        Job::new(0, "first", 8, 4.0),
        Job::new(1, "second", 8, 1.0).with_submit(2.0),
    ];
    let plan = FaultPlan::new(0);
    let mut state = scheduler.begin(&jobs);
    // Past the first start (t=0); the next instant is the submit at 2.
    assert!(!scheduler.advance(&mut state, &jobs, &plan, 0.5));
    assert_eq!(state.now(), 0.0);
    let before = state.clone();
    let bytes = state.snapshot();

    // The other tests of this binary drive schedulers on their own
    // threads into the same registry, so a window they touched is taken
    // again; five dirty windows in a row is the call itself.
    let moved = (0..5).all(|_| {
        jubench::metrics::reset();
        assert!(!scheduler.advance(&mut state, &jobs, &plan, 1.5));
        let snap = jubench::metrics::snapshot();
        snap.counters.contains_key("sched/advance_steps")
            || snap.counters.contains_key("sched/backfill_scans")
            || snap.scopes.contains_key("sched/advance;sched/backfill")
    });
    assert!(
        !moved,
        "a silent slice runs no handler and no backfill scan"
    );
    assert_eq!(state, before);
    assert_eq!(state.snapshot(), bytes);
}
