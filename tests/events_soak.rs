//! Soak test for the event-driven virtual-time core: a sparse campaign
//! spanning a **million virtual seconds** with only a few thousand
//! events must be processed in O(events), not O(virtual time).
//!
//! The assertion is on the engine's own self-observability counters —
//! `sched/events_processed` (log lines written) and `events/ticks_skipped`
//! (idle virtual seconds jumped over) — not on wall clock, so the test
//! is immune to machine speed and build profile. A snapshot/resume
//! differential on a prefix of the same workload guards the counters
//! against measuring a wrong schedule fast.

use jubench::pool::with_threads;
use jubench::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// `n` short jobs spaced `spacing_s` apart: the machine is idle for
/// almost the entire campaign, so a stepping engine would grind through
/// ~`n · spacing_s` virtual seconds while the event engine logs 3
/// events per job (submit, start, finish).
fn sparse_jobs(n: u32, spacing_s: f64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::new(i, &format!("sparse-{i}"), 4, 10.0)
                .with_comm_fraction(0.1)
                .with_submit(f64::from(i) * spacing_s)
        })
        .collect()
}

fn small_scheduler(seed: u64) -> Scheduler {
    Scheduler::new(
        Machine::juwels_booster().partition(48),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            seed,
        ),
    )
}

#[test]
fn million_second_sparse_campaign_processes_o_events() {
    let _guard = jubench::metrics::registry::test_mutex().lock().unwrap();
    jubench::metrics::set_enabled(true);
    let jobs = sparse_jobs(2000, 500.0);
    let scheduler = small_scheduler(7);
    // Sprinkle drains across the megasecond so fault instants fall in
    // the idle stretches too.
    let plan = FaultPlan::periodic_drains(11, 48, 2.0e5, 50.0, 1.0e6, 4.0);

    let mut reference_log: Option<Vec<String>> = None;
    for &t in &THREADS {
        jubench::metrics::reset();
        let schedule = with_threads(t, || scheduler.run(&jobs, &plan));
        assert_eq!(schedule.finished(), jobs.len(), "{t} threads");
        assert!(
            schedule.makespan_s > 9.9e5,
            "the campaign must actually span ~1M virtual seconds, got {}",
            schedule.makespan_s
        );

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
        assert!(
            processed > 0 && processed < 10_000,
            "{t} threads: {processed} events processed for 2000 jobs — \
             the engine must scale with events, not virtual seconds"
        );
        assert!(
            skipped > 900_000,
            "{t} threads: only {skipped} idle virtual seconds skipped \
             over a ~1M-second campaign"
        );

        // The counters must measure the *same* schedule at every width.
        match &reference_log {
            None => reference_log = Some(schedule.log.clone()),
            Some(reference) => assert_eq!(
                &schedule.log, reference,
                "{t} threads: soak schedule diverged from sequential"
            ),
        }
    }
}

/// The economy proven above must not come from computing a different
/// (cheaper) schedule: on a prefix of the same sparse workload, slicing
/// the campaign through snapshot/resume boundaries reproduces the
/// straight run byte for byte.
#[test]
fn sparse_campaign_prefix_is_slice_invariant() {
    let jobs = sparse_jobs(300, 500.0);
    let scheduler = small_scheduler(7);
    let plan = FaultPlan::periodic_drains(11, 48, 2.0e5, 50.0, 1.5e5, 4.0);
    let straight = scheduler.run(&jobs, &plan);
    let mut state = scheduler.begin(&jobs);
    let mut until = 0.0;
    loop {
        until += straight.makespan_s / 11.7;
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
    assert_eq!(sliced.log, straight.log);
    assert_eq!(sliced.makespan_s, straight.makespan_s);
}
