//! Campaign walkthrough: the full 23-benchmark suite as a batch of jobs
//! on a Booster partition. Derives one job per benchmark (cost probed
//! from a virtual-time run, priority from its category), schedules the
//! campaign with conservative backfill under both placement policies,
//! prints the per-job schedule and the utilization timeline, sweeps
//! placement × machine size in the scaling study's table, kills a
//! checkpointed campaign mid-run and resumes it from the snapshot
//! bytes, sweeps checkpoint interval × failure rate against the
//! Young/Daly predictions, and exports the contiguous campaign as a
//! Chrome trace.
//!
//! Run with: `cargo run --release --example campaign`

use jubench::ckpt::young_interval;
use jubench::prelude::*;
use jubench::scaling::{campaign_table, ckpt_table};
use jubench::sched::{registry_jobs, run_campaign};
use jubench::trace::RunReport;

fn main() {
    // ----- the job set: one job per suite benchmark --------------------
    let registry = full_registry();
    let jobs = registry_jobs(&registry, 0.05);
    println!(
        "campaign of {} jobs (node counts {}..{}), submissions 50 ms apart\n",
        jobs.len(),
        jobs.iter().map(|j| j.nodes).min().unwrap(),
        jobs.iter().map(|j| j.nodes).max().unwrap(),
    );

    // ----- schedule it on 13 cells under both placements ---------------
    let machine = Machine::juwels_booster().partition(624);
    let config =
        |placement| SchedulerConfig::new(QueuePolicy::ConservativeBackfill, placement, 2024);
    let contiguous = run_campaign(
        machine,
        NetModel::juwels_booster(),
        config(PlacementPolicy::Contiguous),
        &jobs,
        &FaultPlan::new(0),
    );
    println!("=== Contiguous placement ===\n");
    println!("{}", contiguous.render());

    // The utilization timeline: how many nodes were busy when.
    println!("utilization timeline (contiguous):");
    for seg in contiguous.utilization_timeline() {
        println!(
            "  [{:>9.4} s, {:>9.4} s)  {:>4} / {} nodes busy",
            seg.t_start, seg.t_end, seg.busy_nodes, machine.nodes
        );
    }
    println!();

    let scatter = run_campaign(
        machine,
        NetModel::juwels_booster(),
        config(PlacementPolicy::Scatter),
        &jobs,
        &FaultPlan::new(0),
    );
    println!(
        "placement and the makespan: contiguous {:.4} s vs scatter {:.4} s \
         ({:+.1} % from cell-aware packing)\n",
        contiguous.makespan_s,
        scatter.makespan_s,
        100.0 * (contiguous.makespan_s / scatter.makespan_s - 1.0),
    );

    // ----- the placement × machine-size study --------------------------
    println!("=== Campaign study: placement x machine size ===\n");
    println!(
        "{}",
        campaign_table(&registry, &[144, 624], 0.05, 2024).render()
    );

    // ----- checkpoint/restart: kill the scheduler, resume from bytes ---
    println!("=== Checkpoint/restart: kill mid-campaign and resume ===\n");
    let part = Machine::juwels_booster().partition(96);
    let sched = Scheduler::new(
        part,
        NetModel::juwels_booster(),
        config(PlacementPolicy::Contiguous),
    );
    // Checkpoint writes cost 0.02 s; with node drains every ~4 s the
    // Young interval sqrt(2 C M) places the writes.
    let interval = young_interval(0.02, 4.0);
    let ckpt_jobs: Vec<Job> = (0..10u32)
        .map(|i| {
            Job::new(
                i,
                &format!("job{i}"),
                8 + 8 * (i % 4),
                2.0 + 0.3 * f64::from(i),
            )
            .with_comm_fraction(0.2)
            .with_submit(0.25 * f64::from(i))
            .with_retry(RetryPolicy::new(16, 0.05).with_multiplier(1.0))
            .with_checkpointing(interval, 0.02)
        })
        .collect();
    let plan = FaultPlan::periodic_drains(2024, 96, 4.0, 0.5, 30.0, 4.0);

    // The uninterrupted reference run.
    let mut reference = sched.begin(&ckpt_jobs);
    sched.advance(&mut reference, &ckpt_jobs, &plan, f64::INFINITY);
    let reference = sched.finish(reference);

    // Kill the scheduler process halfway through; only the snapshot
    // bytes survive the crash.
    let t_kill = reference.makespan_s * 0.5;
    let mut state = sched.begin(&ckpt_jobs);
    sched.advance(&mut state, &ckpt_jobs, &plan, t_kill);
    let snap = state.snapshot();
    println!(
        "killed the campaign at t = {:.3} s: {} log lines so far, snapshot = {} bytes",
        state.now(),
        state.log().len(),
        snap.len(),
    );
    drop(state);

    let mut resumed = sched.resume(&snap, &ckpt_jobs).expect("snapshot is intact");
    sched.advance(&mut resumed, &ckpt_jobs, &plan, f64::INFINITY);
    let resumed = sched.finish(resumed);
    assert_eq!(
        resumed.log, reference.log,
        "resume must replay to the same schedule"
    );
    println!(
        "resumed to completion: {} log lines, makespan {:.4} s — byte-identical \
         to the uninterrupted run\n",
        resumed.log.len(),
        resumed.makespan_s,
    );

    // ----- the checkpoint-interval study -------------------------------
    println!("=== Checkpoint study: interval x failure rate ===\n");
    let young = young_interval(0.05, 6.0);
    println!(
        "{}",
        ckpt_table(
            8,
            0.05,
            &[None, Some(0.05), Some(young), Some(4.0)],
            &[3.0, 6.0, 12.0],
            17,
        )
        .render()
    );

    // ----- Chrome trace export -----------------------------------------
    let events = contiguous.events();
    let report = RunReport::from_events(&events);
    println!("{}", report.render());
    let json = chrome_trace_json(&events);
    println!(
        "chrome trace: {} events over {} cell tracks, {} bytes of JSON \
         (load in chrome://tracing or Perfetto)",
        events.len(),
        machine.cells(),
        json.len(),
    );
}
