//! The differential parallel-vs-sequential harness: the workspace-wide
//! determinism guarantee as an enforced invariant.
//!
//! Every study, the full campaign, and a traced workflow are executed at
//! 1, 2, and 8 pool threads (`jubench::pool::with_threads`), and their
//! rendered result tables, `RunReport` aggregates, and Chrome trace
//! exports are asserted **byte-identical**. One pool thread is the
//! sequential reference; any scheduling-order leak into an output shows
//! up as a byte diff here.
//!
//! The paper's artifacts — the Fig. 2 and Fig. 3 series and Tables I
//! and II — are also pinned to digests of their bytes, so a change that
//! moves them identically at every pool width still fails.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use jubench::core::fnv1a64;
use jubench::pool::with_threads;
use jubench::prelude::*;
use jubench::scaling::{
    campaign_table, ckpt_table, fig3_all_series, render_table1, render_table2, resilience_table,
    strong_scaling_series, traffic_table,
};
use jubench::sched::{registry_jobs, run_campaign};
use jubench::trace::RunReport;

const THREADS: [usize; 3] = [1, 2, 8];

/// Render `artifact()` at each pool width, assert the bytes agree with
/// the 1-thread (sequential) reference, and return that reference.
fn assert_thread_invariant(what: &str, artifact: impl Fn() -> String) -> String {
    let reference = with_threads(THREADS[0], &artifact);
    for &t in &THREADS[1..] {
        let got = with_threads(t, &artifact);
        assert_eq!(
            got, reference,
            "{what}: output at {t} pool threads diverged from sequential"
        );
    }
    reference
}

/// `fnv1a64` digests of the paper artifacts' bytes, taken at `a3e817d`
/// (the last commit that also printed them from a bench harness). Equal
/// in debug and release builds.
const FIG2_DIGEST: u64 = 0x5fd378621159fc2e;
const FIG3_DIGEST: u64 = 0xe440b4f238d074cd;
const TABLES_DIGEST: u64 = 0x1fb294a7de507ba6;

fn assert_pinned(what: &str, bytes: &str, pinned: u64) {
    let got = fnv1a64(bytes.as_bytes());
    assert_eq!(got, pinned, "{what} moved (got 0x{got:016x})");
}

/// The Fig. 2 renders of Arbor, GROMACS and JUQCS, concatenated.
#[test]
fn strong_scaling_series_are_thread_invariant() {
    let r = full_registry();
    let mut renders = String::new();
    for id in [BenchmarkId::Arbor, BenchmarkId::Gromacs, BenchmarkId::Juqcs] {
        let bench = r.get(id).unwrap();
        renders.push_str(&assert_thread_invariant(
            &format!("strong scaling of {}", id.name()),
            || strong_scaling_series(bench, 1).render(),
        ));
    }
    assert_pinned("Fig. 2 renders", &renders, FIG2_DIGEST);
}

#[test]
fn weak_scaling_series_are_thread_invariant() {
    let renders = assert_thread_invariant("Fig. 3 weak scaling (all series)", || {
        fig3_all_series(1)
            .iter()
            .map(|s| s.render())
            .collect::<Vec<_>>()
            .join("\n")
    });
    assert_pinned("Fig. 3 renders", &renders, FIG3_DIGEST);
}

/// Tables I and II come from static metadata: no pool, no execution.
#[test]
fn paper_tables_match_their_pinned_digest() {
    assert_pinned(
        "Tables I and II",
        &(render_table1() + &render_table2()),
        TABLES_DIGEST,
    );
}

#[test]
fn traffic_table_is_thread_invariant() {
    assert_thread_invariant("traffic table", || traffic_table(&[1, 2, 4]).render());
}

#[test]
fn resilience_table_is_thread_invariant() {
    assert_thread_invariant("resilience table", || {
        resilience_table(4, &[0.0, 0.25, 0.5], 4.0, 17).render()
    });
}

#[test]
fn ckpt_study_is_thread_invariant() {
    assert_thread_invariant("checkpoint-interval study table", || {
        ckpt_table(8, 0.05, &[None, Some(0.8)], &[6.0, 12.0], 17).render()
    });
}

#[test]
fn campaign_study_is_thread_invariant() {
    let registry = full_registry();
    assert_thread_invariant("campaign study table", || {
        campaign_table(&registry, &[144], 0.05, 2024).render()
    });
}

/// The full-campaign artifact bundle: probe the whole registry into a
/// job set, schedule it, and export the schedule's rendered table, its
/// `RunReport` aggregate, and its Chrome trace JSON. Shared between the
/// thread-invariance and metrics-invariance sweeps.
fn campaign_artifact(registry: &Registry) -> String {
    let jobs = registry_jobs(registry, 0.05);
    let schedule = run_campaign(
        Machine::juwels_booster().partition(144),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            2024,
        ),
        &jobs,
        &FaultPlan::new(0),
    );
    let recorder = Arc::new(Recorder::new());
    schedule.emit(recorder.as_ref());
    let events = recorder.take_events();
    let report = RunReport::from_events(&events);
    format!(
        "{}\n{}\n{}",
        schedule.render(),
        report.render(),
        chrome_trace_json(&events)
    )
}

/// The full campaign end to end at every pool width.
#[test]
fn full_campaign_artifacts_are_thread_invariant() {
    let registry = full_registry();
    assert_thread_invariant("full campaign (table + report + trace)", || {
        campaign_artifact(&registry)
    });
}

/// The hard invariant of `jubench-metrics`: recording is observational
/// only. The full-campaign artifact bundle — which exercises the
/// instrumented pool, scheduler, simulated MPI, checkpoint, and trace
/// paths — must be **byte-identical** with metrics enabled and disabled,
/// at 1, 2, and 8 pool threads.
#[test]
fn artifacts_are_byte_identical_with_metrics_on_and_off() {
    let _guard = jubench::metrics::registry::test_mutex().lock().unwrap();
    let registry = full_registry();
    jubench::metrics::set_enabled(true);
    let reference = with_threads(THREADS[0], || campaign_artifact(&registry));
    for &t in &THREADS {
        for on in [true, false] {
            jubench::metrics::set_enabled(on);
            let got = with_threads(t, || campaign_artifact(&registry));
            assert_eq!(
                got,
                reference,
                "campaign artifact at {t} pool threads with metrics {} diverged",
                if on { "on" } else { "off" }
            );
        }
    }
    jubench::metrics::set_enabled(true);
}

/// A traced parameter-space workflow with dependent levels and a
/// deterministically flaky step: results, per-step attempt counts, and
/// the exported trace must not depend on the pool width.
#[test]
fn traced_workflow_is_thread_invariant() {
    assert_thread_invariant("traced workflow (results + trace)", || {
        // Each workpackage's execute step fails exactly twice before
        // succeeding, tracked per workpackage so the retry count is
        // deterministic under any interleaving.
        let failures: Arc<Mutex<BTreeMap<String, u32>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let rec = Arc::new(Recorder::new());
        let mut wf = Workflow::new();
        wf.params.set_list("nodes", ["2", "4", "8", "16"]);
        wf.add_step(Step::new("compile", |_| {
            Ok(jubench::jube::output1("binary", "bench.x"))
        }));
        let f = Arc::clone(&failures);
        wf.add_step(
            Step::new("execute", move |ctx| {
                let nodes = ctx.param("nodes").unwrap().to_string();
                let mut seen = f.lock().unwrap();
                let attempts = seen.entry(nodes.clone()).or_insert(0);
                *attempts += 1;
                if *attempts <= 2 {
                    Err(format!("transient failure on {nodes} nodes"))
                } else {
                    Ok(jubench::jube::output1("runtime", nodes))
                }
            })
            .with_retry(RetryPolicy::new(5, 0.1))
            .after("compile"),
        );
        wf.add_step(
            Step::new("verify", |ctx| {
                let rt = ctx.output("execute", "runtime").unwrap();
                Ok(jubench::jube::output1("verified", rt))
            })
            .after("execute"),
        );
        let wf = wf.with_recorder(rec.clone());
        let results = wf.execute(&[]).unwrap();
        let table: String = results
            .iter()
            .map(|r| {
                format!(
                    "nodes={} verified={} attempts={}\n",
                    r.value("nodes").unwrap(),
                    r.value("verified").unwrap(),
                    r.value("execute.attempts").unwrap(),
                )
            })
            .collect();
        let events = rec.take_events();
        let report = RunReport::from_events(&events);
        format!(
            "{table}\n{}\n{}",
            report.render(),
            chrome_trace_json(&events)
        )
    });
}

/// The simulated-MPI probe itself: rank programs run on dedicated
/// threads, so a traced world's report must be byte-stable regardless of
/// how wide the surrounding pool is.
#[test]
fn traced_world_report_is_thread_invariant() {
    assert_thread_invariant("traced world run report", || {
        let rec = Arc::new(Recorder::new());
        let w = World::new(Machine::juwels_booster().partition(2)).with_recorder(rec.clone());
        w.run(|comm| {
            comm.advance_compute(1e-3 * (comm.rank() + 1) as f64);
            let mut acc = [comm.rank() as f64; 8];
            comm.allreduce_f64(&mut acc, ReduceOp::Sum).unwrap();
            comm.barrier();
        });
        let events = rec.take_events();
        format!(
            "{}\n{}",
            RunReport::from_events(&events).render(),
            chrome_trace_json(&events)
        )
    });
}
