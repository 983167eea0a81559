//! What a campaign *is*: point → row → jobs → schedule → artifacts.
//!
//! The paper's suite is a pipeline — parameterise, run, tabulate — and
//! so is a campaign: [`run_point`] per point, [`build_jobs`] from the
//! rows, the [`scheduler`] of its partition, [`artifacts`] of the
//! finished [`Schedule`]. Each stage is a pure function of the spec and
//! the stage before it; nothing here knows a shard, a result cache, a
//! snapshot or the wire. [`crate::campaign`] runs the stages a unit at a
//! time; `reference` (under `cfg(test)`) composes them straight through,
//! and is the model the service is tested against.
//!
//! The one thing [`run_point`] may be handed is the server's
//! [`RealTracks`]: it then asks the store for the point's real track
//! instead of executing it unconditionally. What a row reads of a track
//! is a pure function of its key, so the row is the same either way —
//! `reference` passes `None` and executes every point.

use crate::cache::PointResult;
use crate::spec::{CampaignSpec, RunPoint};
use crate::tracks::RealTracks;
use jubench_core::{BenchmarkId, Registry, RunConfig};
use jubench_sched::{category_priority, measured_job, Job, Schedule, Scheduler, SchedulerConfig};
use jubench_trace::{chrome_trace_json, Recorder, RunReport};
use std::sync::Arc;

/// The eight cells of `p`'s result row; a point that did not execute
/// shows a dash for `time` and `comm`.
fn row_cells(p: &RunPoint, time: &str, comm: &str, status: String) -> Vec<String> {
    vec![
        p.bench.clone(),
        p.nodes.to_string(),
        format!("{:?}", p.scale),
        p.variant.map_or("base".to_string(), |v| format!("{v:?}")),
        p.seed.to_string(),
        time.to_string(),
        comm.to_string(),
        status,
    ]
}

/// Execute one run point for real. Pure in its inputs: the registry's
/// benchmark, the point parameters, and nothing else — `tracks` decides
/// whether the point's real track is executed here or was already, never
/// what the row says.
///
/// Specs are validated at submit, but the registry handed to a *drain*
/// is a different argument than the one validated against — a
/// mismatched caller must get an error row, not a worker panic that
/// takes the whole drain down.
pub(crate) fn run_point(
    registry: &Registry,
    spec: &CampaignSpec,
    index: usize,
    tracks: Option<&RealTracks>,
) -> PointResult {
    let p = &spec.points[index];
    let failed = |why: String, priority: i32| PointResult {
        cells: row_cells(p, "-", "-", format!("error: {why}")),
        service_s: 0.0,
        comm_fraction: 0.0,
        priority,
    };
    let Some(id) = BenchmarkId::from_name(&p.bench) else {
        return failed(format!("unknown benchmark `{}`", p.bench), 0);
    };
    let Some(bench) = registry.get(id) else {
        return failed(format!("benchmark `{}` not registered", p.bench), 0);
    };
    let config = RunConfig {
        nodes: p.nodes,
        variant: p.variant,
        scale: p.scale,
        seed: p.seed,
        backend: spec.backend,
    };
    let priority = category_priority(bench.meta().category);
    let outcome = bench.layout(&config).and_then(|layout| {
        let track = match tracks {
            Some(tracks) => tracks.get_or_execute(id, layout, |layout| bench.execute(layout))?,
            None => Arc::new(bench.execute(&layout)?),
        };
        Ok(bench.cost(&config, &track))
    });
    match outcome {
        // A job of that length would never end (or end before it
        // started) in the schedule built from this row.
        Ok(outcome) if !(outcome.virtual_time_s.is_finite() && outcome.virtual_time_s >= 0.0) => {
            failed(
                format!("virtual time {} s", outcome.virtual_time_s),
                priority,
            )
        }
        Ok(outcome) => {
            let comm_fraction = outcome.comm_fraction();
            let verified = if outcome.verification.passed() {
                "pass"
            } else {
                "FAIL"
            };
            PointResult {
                cells: row_cells(
                    p,
                    &format!("{:.6}", outcome.virtual_time_s),
                    &format!("{comm_fraction:.4}"),
                    verified.to_string(),
                ),
                service_s: outcome.virtual_time_s,
                comm_fraction,
                priority,
            }
        }
        Err(err) => failed(err.to_string(), priority),
    }
}

/// The scheduler of the campaign's machine partition.
pub(crate) fn scheduler(spec: &CampaignSpec) -> Scheduler {
    Scheduler::new(
        spec.machine(),
        spec.backend.net,
        SchedulerConfig::new(spec.policy, spec.placement, spec.seed),
    )
}

/// Derive the campaign's scheduler jobs from its executed rows. Pure in
/// `(spec, rows)`, so a restored or adopted campaign rebuilds exactly
/// the jobs its snapshot was taken against.
pub(crate) fn build_jobs(spec: &CampaignSpec, rows: &[Arc<PointResult>]) -> Vec<Job> {
    spec.points
        .iter()
        .zip(rows)
        .enumerate()
        .map(|(i, (p, row))| {
            measured_job(
                i,
                &format!("{}#{i}", p.bench),
                p.nodes,
                row.service_s,
                row.comm_fraction,
                row.priority,
                spec.spacing_s,
            )
        })
        .collect()
}

/// The artifacts of a finished campaign: the result table, the Chrome
/// trace of its schedule, and the run report — deterministic in
/// `(spec, rows, schedule)`. The report's out-of-band cache and guard
/// blocks are the caller's to fill; they are observability, not part of
/// any of the three.
pub(crate) fn artifacts(
    spec: &CampaignSpec,
    rows: &[Arc<PointResult>],
    schedule: &Schedule,
) -> (String, String, RunReport) {
    let recorder = Recorder::new();
    schedule.emit(&recorder);
    let events = recorder.take_events();
    (
        render_table(spec, rows, schedule),
        chrome_trace_json(&events),
        RunReport::from_events(&events),
    )
}

/// Render the campaign result table: one row per run point joined with
/// its schedule record, plus a header and a makespan footer. Pure in
/// `(spec, rows, schedule)` — cache activity leaves no mark here.
fn render_table(spec: &CampaignSpec, rows: &[Arc<PointResult>], schedule: &Schedule) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# campaign {} tenant={} machine={}x{} policy={} placement={} seed={}\n",
        spec.name,
        spec.tenant,
        schedule.machine.name,
        schedule.machine.nodes,
        spec.policy.label(),
        spec.placement.label(),
        spec.seed,
    ));
    out.push_str(
        "| point | benchmark | nodes | scale | variant | seed | time_s | comm | verify \
         | start_s | end_s | outcome |\n",
    );
    for (i, row) in rows.iter().enumerate() {
        let record = &schedule.records[i];
        let at = |t: Option<f64>| t.map_or_else(|| "-".to_string(), |t| format!("{t:.6}"));
        out.push_str(&format!(
            "| {i} | {} | {} | {} | {:?} |\n",
            row.cells.join(" | "),
            at(record.start_s()),
            at(record.end_s),
            record.outcome,
        ));
    }
    out.push_str(&format!("# makespan_s={:.6}\n", schedule.makespan_s));
    out
}

/// What [`reference`] computes for one campaign.
#[cfg(test)]
pub(crate) struct Reference {
    pub(crate) rows: Vec<Arc<PointResult>>,
    pub(crate) schedule: Schedule,
    /// Table, Chrome trace, run report.
    pub(crate) artifacts: (String, String, RunReport),
}

/// The reference model of the service: the pipeline composed straight
/// through — no shard, no queue, no cache, no snapshot, no wire.
#[cfg(test)]
pub(crate) fn reference(registry: &Registry, spec: &CampaignSpec) -> Reference {
    let rows: Vec<Arc<PointResult>> = (0..spec.points.len())
        .map(|i| Arc::new(run_point(registry, spec, i, None)))
        .collect();
    let schedule = scheduler(spec).run(&build_jobs(spec, &rows), &spec.plan);
    let artifacts = artifacts(spec, &rows, &schedule);
    Reference {
        rows,
        schedule,
        artifacts,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use crate::server::Server;
    use crate::shard::{Emit, ShardState};
    use crate::supervisor::SupervisorConfig;
    use crate::tracks::RealTracks;
    use crate::wire::Frame;
    use jubench_ckpt::Checkpointable;
    use jubench_faults::{DetRng, FaultPlan};
    use jubench_kernels::rank_rng;
    use jubench_sched::{JobOutcome, PlacementPolicy, QueuePolicy};

    /// Seeded populations the sweep drives; CI runs it in release too.
    const CASES: u64 = 48;
    /// Far more units than any generated population needs: a service
    /// that stalls fails the sweep instead of hanging it.
    const MAX_UNITS: usize = 5_000;

    fn pick<T: Copy>(rng: &mut DetRng, from: &[T]) -> T {
        from[rng.gen_range(0..from.len())]
    }

    /// One campaign over the cheap benchmarks, every scheduler knob drawn.
    /// Their points take from microseconds (OSU) to minutes (HPL,
    /// Graph500) of virtual time, and a multi-node STREAM point is an
    /// error row: a job below the clock's resolution.
    fn spec(rng: &mut DetRng, name: &str) -> CampaignSpec {
        let nodes = pick(rng, &[8u32, 12, 16]);
        let mut spec = CampaignSpec::new(pick(rng, &["a", "b"]), name, nodes, rng.next_u64() % 8);
        for _ in 0..rng.gen_range(1usize..7) {
            let bench = pick(rng, &["OSU", "LinkTest", "HPL", "STREAM", "Graph500"]);
            let seed = rng.gen_range(1u64..3);
            spec.points
                .push(RunPoint::test(bench, pick(rng, &[2, 4]), seed));
        }
        spec.policy = pick(rng, &[QueuePolicy::Fifo, QueuePolicy::ConservativeBackfill]);
        spec.placement = pick(
            rng,
            &[PlacementPolicy::Contiguous, PlacementPolicy::Scatter],
        );
        spec.spacing_s = pick(rng, &[0.0, 10.0, 50.0]);
        // From "one slice holds everything" to "mostly silent".
        spec.slice_s = pick(rng, &[5000.0, 100.0, 20.0, 5.0]);
        if rng.gen_bool(0.4) {
            // A node drained for a while and one lost for good, while
            // jobs are in flight.
            spec.plan = FaultPlan::new(rng.next_u64())
                .with_slow_node_window(1, 2.0, 20.0, 120.0)
                .with_rank_crash(0, 60.0);
        }
        if rng.gen_bool(0.3) {
            spec.deadline_s = 1e6; // past any makespan here
        }
        spec
    }

    /// Make `specs` a two-backend population: every campaign gains the
    /// point of a split proxy, and a twin on a second backend whose
    /// layouts equal its own — what the real-track store shares between
    /// campaigns, and between shards. Drawn from a stream of its own, so
    /// every other draw of the case is a single-backend population's.
    fn add_second_backend(specs: &mut Vec<CampaignSpec>, case: u64) {
        let rng = &mut rank_rng(0x2BAC + case, 23);
        let twins: Vec<CampaignSpec> = specs
            .iter_mut()
            .map(|spec| {
                let bench = pick(rng, &["ParFlow", "SOMA", "PIConGPU", "ICON"]);
                let seed = rng.gen_range(1u64..3);
                spec.points
                    .push(RunPoint::test(bench, pick(rng, &[2, 4]), seed));
                let mut twin = spec
                    .clone()
                    .with_backend(jubench_cluster::Machine::jupiter_proposal());
                twin.name.push_str("-twin");
                twin
            })
            .collect();
        specs.extend(twins);
    }

    fn server_with(
        specs: &[CampaignSpec],
        registry: &Registry,
        shards: usize,
        cap: usize,
    ) -> Server {
        let mut server = Server::new(shards, cap);
        for (i, spec) in specs.iter().enumerate() {
            let (id, _) = server.submit(7, spec.clone(), registry).unwrap();
            assert_eq!(id, i as u64 + 1, "campaign ids follow submission order");
        }
        server
    }

    /// Step `server` until idle (or `units` steps), collecting the frames.
    fn step_for(server: &mut Server, registry: &Registry, units: usize) -> Vec<Emit> {
        let mut out = Vec::new();
        for _ in 0..units {
            if server.idle() {
                break;
            }
            out.extend(server.step(registry).unwrap());
        }
        out
    }

    /// A run report without its out-of-band cache and guard blocks (the
    /// last two `render` writes).
    fn deterministic_part(report: &str) -> &str {
        let cut = |s: &'static str| report.find(s).unwrap_or(report.len());
        &report[..cut("\nresult-cache activity:").min(cut("\nguard activity:"))]
    }

    /// Every campaign of `specs` (ids 1, 2, …) in `emits` against the model.
    pub(crate) fn assert_matches_model(emits: &[Emit], model: &[Reference], how: &str) {
        for (i, reference) in model.iter().enumerate() {
            let Reference {
                rows,
                schedule,
                artifacts: (table, chrome_trace, report),
            } = reference;
            let id = i as u64 + 1;
            let (mut cells, mut job_dones, mut dones) = (Vec::new(), Vec::new(), 0);
            for emit in emits {
                match &emit.frame {
                    Frame::Row {
                        campaign,
                        index,
                        cells: c,
                    } if *campaign == id => {
                        assert_eq!(*index as usize, cells.len(), "{how}: row order");
                        cells.push(c.clone());
                    }
                    Frame::JobDone {
                        campaign,
                        job,
                        end_s,
                    } if *campaign == id => job_dones.push((*job, *end_s)),
                    Frame::Done {
                        campaign,
                        table: t,
                        chrome_trace: c,
                        report: r,
                    } if *campaign == id => {
                        dones += 1;
                        assert_eq!(t, table, "{how}: table of campaign {id}");
                        assert_eq!(c, chrome_trace, "{how}: trace of campaign {id}");
                        assert_eq!(deterministic_part(r), report.render(), "{how}: report");
                    }
                    Frame::Cancelled { campaign, .. } if *campaign == id => {
                        panic!("{how}: campaign {id} cancelled")
                    }
                    _ => {}
                }
            }
            assert_eq!(dones, 1, "{how}: campaign {id} needs exactly one Done");
            let model_cells: Vec<_> = rows.iter().map(|r| r.cells.clone()).collect();
            assert_eq!(cells, model_cells, "{how}: rows of campaign {id}");
            let mut finished: Vec<(u32, f64)> = schedule
                .records
                .iter()
                .filter(|r| r.outcome == JobOutcome::Finished)
                .filter_map(|r| r.end_s.map(|e| (r.id, e)))
                .collect();
            finished.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            assert_eq!(job_dones, finished, "{how}: JobDones of campaign {id}");
        }
    }

    /// A machine model may be slow enough to overflow a run's virtual
    /// times — its rates are still positive and finite, so it validates.
    /// A job of infinite length never ends in the schedule (`end_s`
    /// `inf` in the table), so the point must come back as the typed
    /// error row and the campaign must finish — whether the time came
    /// from a synthetic's `run` or a split proxy's `cost`, and without
    /// panicking its worker on the ∞/∞ communication share (which,
    /// under supervision, would burn the restart budget of its
    /// co-tenants).
    #[test]
    fn a_model_slow_enough_to_overflow_is_an_error_row_not_an_endless_job() {
        let registry = jubench_scaling::full_registry();
        let mut spec = CampaignSpec::new("t", "glacial", 8, 1)
            .with_point(RunPoint::test("OSU", 2, 1))
            .with_point(RunPoint::test("SOMA", 4, 2))
            .with_point(RunPoint::test("STREAM", 1, 3));
        let glacial = f64::from_bits(1 << 32);
        let net = &mut spec.backend.net;
        for link in [
            &mut net.intra_node,
            &mut net.intra_cell,
            &mut net.inter_cell,
            &mut net.inter_module,
        ] {
            link.bandwidth = glacial;
        }
        spec.backend.node.nic_bw = glacial;
        spec.validate(&registry).expect("positive finite rates");
        let tracks = RealTracks::new(4);
        for (i, tracks) in [(0, None), (1, None), (1, Some(&tracks))] {
            let row = run_point(&registry, &spec, i, tracks);
            assert_eq!(row.cells[7], "error: virtual time inf s", "{:?}", row.cells);
            assert_eq!((row.service_s, row.comm_fraction), (0.0, 0.0));
        }
        // A node-local run never touches the network.
        assert_eq!(run_point(&registry, &spec, 2, None).cells[7], "pass");
        let emits = server_with(&[spec.clone()], &registry, 1, 4)
            .drain(&registry)
            .unwrap();
        let model = reference(&registry, &spec);
        assert!(
            !model.artifacts.0.contains("inf |"),
            "{}",
            model.artifacts.0
        );
        assert_matches_model(&emits, &[model], "glacial backend");
    }

    /// The service against its model: whatever the shard count, the
    /// cache, the drain, a kill-and-restore, a migration or a supervised
    /// chaos plan do, every campaign's frames are the pipeline's.
    #[test]
    fn every_way_to_drive_the_service_matches_the_reference() {
        let registry = jubench_scaling::full_registry();
        for case in 0..CASES {
            let rng = &mut rank_rng(0x90DE1 + case, 19);
            let mut specs: Vec<CampaignSpec> = (0..rng.gen_range(1usize..5))
                .map(|i| spec(rng, &format!("case{case}-{i}")))
                .collect();
            let two_backends = case % 4 == 3;
            if two_backends {
                add_second_backend(&mut specs, case);
            }
            let model: Vec<_> = specs.iter().map(|s| reference(&registry, s)).collect();
            let shards = rng.gen_range(1usize..5);
            let cap = pick(rng, &[0usize, 2, 64]);
            let fresh = || server_with(&specs, &registry, shards, cap);
            let cut = rng.gen_range(0usize..40);
            let how = |mode: &str| format!("case {case} ({shards} shards, cache {cap}): {mode}");

            // Stepped, with every shard killed and restored from its
            // snapshot after `cut` units. First, because it is bounded.
            let mut server = fresh();
            let mut emits = step_for(&mut server, &registry, cut);
            for shard in &mut server.shards {
                let mut restored = ShardState::new(99, 1);
                restored.restore(&shard.snapshot()).unwrap();
                *shard = restored;
            }
            emits.extend(step_for(&mut server, &registry, MAX_UNITS));
            assert!(server.idle(), "{}", how("still busy after MAX_UNITS"));
            assert_matches_model(&emits, &model, &how("step + restore"));

            let mut server = fresh();
            let emits = server.drain(&registry).unwrap();
            assert_matches_model(&emits, &model, &how("drain"));
            // The model never saw the store; the service used it.
            let shared = server.real_tracks().shared;
            match cap {
                0 => assert_eq!(shared, 0, "{}", how("no store, no sharing")),
                64 if two_backends => assert!(shared > 0, "{}", how("twins share")),
                _ => {}
            }
            let emits = fresh().drain_parallel(&registry).unwrap();
            assert_matches_model(&emits, &model, &how("drain_parallel"));

            // A live campaign migrated mid-flight.
            let mut server = fresh();
            let mut emits = step_for(&mut server, &registry, cut);
            let live: Vec<u64> = server.shards.iter().flat_map(|s| s.active()).collect();
            if !live.is_empty() {
                let to = rng.gen_range(0..shards) as u32;
                assert!(server.migrate(pick(rng, &live), to).unwrap());
            }
            emits.extend(server.drain(&registry).unwrap());
            assert_matches_model(&emits, &model, &how("migrate"));

            // At most as many crashes as the default restart budget.
            let chaos = ChaosPlan::scattered(case, shards as u32, rng.gen_range(0u32..4), 30);
            let outcome = fresh()
                .drain_supervised(&registry, &SupervisorConfig::default(), Some(&chaos))
                .unwrap();
            assert!(!outcome.degraded(), "{}", how("supervised drain degraded"));
            assert_matches_model(&outcome.emits, &model, &how("drain_supervised"));
        }
    }
}
