//! Part A of the per-layer metrics: each workload's inputs run again
//! with spans recorded around the calls into each layer.
//!
//! The two wire workloads are stepped on a 1-shard `Server` through
//! `Server::submit` / `Server::step` — one step is exactly one shard
//! unit — and each unit is classified by the frames it emitted and the
//! change in the shard's cache counters. A short raw-frame session then
//! measures what only a wire client sees. `serve_backlog` and
//! `fleet_study` wrap their submit / drain / render calls.
//! `serve_supervised`'s unit loop is inside `drain_supervised`, so its
//! trace wraps each batch call and attributes snapshot and restore time
//! as *computed*: units × a timed `snapshot()` of each shard between
//! batches, plus restarts × a timed `restore()`.
//!
//! Every traced workload ends by running the same amount of the same
//! kind of input untraced on the same server; the ratio of the two
//! spans is the tracing overhead.

use crate::population::population;
use crate::span::{shares, Tracer};
use crate::stats::{median, Digest};
use crate::workloads::{
    backlog_queue, cache_totals, check_study, fleet_setup, frame_campaign, hit_ratio, study_at,
    submit_all, supervised_batch_plan, Config, Fixture, Submitted, Tally, BATCH, CLIENT,
    DIGEST_CAMPAIGNS, SHARDS,
};
use jubench::ckpt::Checkpointable;
use jubench::core::Registry;
use jubench::serve::{
    read_frame, serve_session, write_frame, CampaignSpec, DuplexPipe, Emit, Frame, Server,
    Transport,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of `--seconds` the traced span runs for (the untraced repeat
/// takes as long again; the isolated layer measurements get the rest).
const TRACED_SHARE: f64 = 0.2;
/// Batches of the raw-frame session on the wire workloads.
const WIRE_BATCHES: usize = 16;

/// Part A names and units. A metric that does not apply to a workload
/// (no wire on `serve_backlog`, no cache miss on a warm one) reads 0
/// there.
pub const METRICS: [(&str, &str); 27] = [
    ("server.submit_us", "us"),
    ("server.submit_share", "ratio"),
    ("server.drain_parallel_share", "ratio"),
    ("client.submit_rtt_us", "us"),
    ("client.first_frame_ms", "ms"),
    ("wire.bytes_per_campaign", "count"),
    ("wire.frames_per_campaign", "count"),
    ("shard.point_miss_us", "us"),
    ("shard.point_miss_share", "ratio"),
    ("shard.point_hit_us", "us"),
    ("shard.point_hit_share", "ratio"),
    ("shard.sched_slice_us", "us"),
    ("shard.sched_slice_share", "ratio"),
    ("shard.slices_per_campaign", "count"),
    ("shard.finish_us", "us"),
    ("shard.finish_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("supervisor.unit_us", "us"),
    ("supervisor.restarts", "count"),
    ("supervisor.snapshot_restore_share", "ratio"),
    ("fleet.run_share", "ratio"),
    ("fleet.render_share", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.generator_share", "ratio"),
    ("bench.traced_campaigns", "count"),
    ("bench.traced_span_s", "s"),
];

/// The outcome of one traced run.
pub struct Traced {
    pub tracer: Tracer,
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
}

impl Traced {
    fn new(tracer: Tracer, tally: Tally) -> Self {
        let mut values: BTreeMap<&'static str, f64> =
            METRICS.iter().map(|(name, _)| (*name, 0.0)).collect();
        let share = shares(tracer.spans());
        let of = |name: &str| share.get(name).copied().unwrap_or(0.0);
        values.insert("server.submit_share", of("server.submit"));
        values.insert("server.drain_parallel_share", of("server.drain_parallel"));
        values.insert("shard.point_miss_share", of("shard.point_miss"));
        values.insert("shard.point_hit_share", of("shard.point_hit"));
        values.insert("shard.sched_slice_share", of("shard.sched_slice"));
        values.insert("shard.finish_share", of("shard.finish"));
        values.insert("fleet.run_share", of("fleet.run"));
        values.insert("fleet.render_share", of("fleet.render"));
        values.insert(
            "bench.generator_share",
            of("bench.generate") + of("bench.check"),
        );
        for (metric, span) in [
            ("server.submit_us", "server.submit"),
            ("shard.point_miss_us", "shard.point_miss"),
            ("shard.point_hit_us", "shard.point_hit"),
            ("shard.sched_slice_us", "shard.sched_slice"),
            ("shard.finish_us", "shard.finish"),
        ] {
            values.insert(metric, median(&tracer.durations_us(span)));
        }
        let campaigns = tally.attempted.max(1) as f64;
        let slices = tracer.count("shard.sched_slice") + tracer.count("shard.finish");
        values.insert("shard.slices_per_campaign", slices as f64 / campaigns);
        values.insert("bench.traced_campaigns", tally.attempted as f64);
        let root_s = tracer
            .spans()
            .first()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9);
        values.insert("bench.traced_span_s", root_s);
        Traced {
            tracer,
            values,
            tally,
        }
    }

    fn set_cache(&mut self, server: &Server, before: jubench::trace::CacheStats) {
        let after = cache_totals(server);
        self.values
            .insert("cache.hit_ratio", hit_ratio(before, after));
        self.values
            .insert("cache.evictions", after.evictions as f64);
    }

    fn set_overhead(&mut self, untraced_s: f64) {
        let traced_s = self.values["bench.traced_span_s"];
        self.values.insert(
            "bench.trace_overhead_frac",
            traced_s / untraced_s.max(1e-9) - 1.0,
        );
    }
}

/// Submit `specs` one span each; the span carries the assigned id.
fn submit_traced(
    tracer: &mut Tracer,
    server: &mut Server,
    registry: &Registry,
    specs: Vec<CampaignSpec>,
    reference: Option<&[Digest]>,
) -> Result<Vec<Submitted>, String> {
    let mut batch = Vec::with_capacity(specs.len());
    for (i, spec) in specs.into_iter().enumerate() {
        let points = spec.points.len();
        let sent = Instant::now();
        let span = tracer.enter("server.submit", 0);
        let submitted = server.submit(CLIENT, spec, registry);
        let id = submitted.as_ref().map_or(0, |(id, _)| *id);
        tracer.exit_as(span, "server.submit", id);
        submitted.map_err(|r| format!("rejected: {r}"))?;
        batch.push(Submitted {
            id,
            points,
            reference: reference.map(|r| r[i]),
            sent,
        });
    }
    Ok(batch)
}

/// Step a 1-shard server idle, one span per unit, named for what the
/// unit did.
fn step_traced(
    tracer: &mut Tracer,
    server: &mut Server,
    registry: &Registry,
) -> Result<Vec<Emit>, String> {
    let mut out = Vec::new();
    let drain = tracer.enter("server.drain", 0);
    while !server.idle() {
        let before = server.shard(0).cache().stats();
        let unit = tracer.enter("shard.unit", 0);
        let emits = server.step(registry).map_err(|e| e.to_string())?;
        let after = server.shard(0).cache().stats();
        let name = if after.misses > before.misses {
            "shard.point_miss"
        } else if after.hits > before.hits {
            "shard.point_hit"
        } else if emits.iter().any(|e| matches!(e.frame, Frame::Done { .. })) {
            "shard.finish"
        } else {
            "shard.sched_slice"
        };
        // A silent slice has no frame to name its campaign.
        let campaign = emits.first().and_then(|e| frame_campaign(&e.frame));
        tracer.exit_as(unit, name, campaign.unwrap_or(0));
        out.extend(emits);
    }
    tracer.exit(drain);
    Ok(out)
}

/// What a raw-frame client measured.
#[derive(Default)]
struct WireStats {
    submit_rtt_us: Vec<f64>,
    first_frame_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
    campaigns: u64,
}

/// Speak the frame protocol directly for a few batches: the round trip
/// of a `Submit`, the wait from `Drain` to the first result frame, and
/// the frames and bytes a campaign costs in both directions.
fn wire_session(
    server: &mut Server,
    registry: &Registry,
    specs: &[CampaignSpec],
    tally: &mut Tally,
) -> Result<WireStats, String> {
    let mut stats = WireStats::default();
    let (mut client_end, mut server_end) = DuplexPipe::pair();
    std::thread::scope(|scope| -> Result<(), String> {
        let session = scope.spawn(|| serve_session(server, registry, &mut server_end, CLIENT));
        let t: &mut dyn Transport = &mut client_end;
        let send = |t: &mut dyn Transport, frame: &Frame, stats: &mut WireStats| {
            stats.frames += 1;
            stats.bytes += 4 + frame.encode().len() as u64;
            write_frame(t, frame).map_err(|e| e.to_string())
        };
        let recv = |t: &mut dyn Transport, stats: &mut WireStats| {
            let frame = read_frame(t).map_err(|e| e.to_string())?;
            stats.frames += 1;
            stats.bytes += 4 + frame.encode().len() as u64;
            Ok::<Frame, String>(frame)
        };
        for chunk in specs.chunks(BATCH) {
            let mut batch = Vec::with_capacity(BATCH);
            for spec in chunk {
                let submit = Frame::Submit { spec: spec.clone() };
                let sent = Instant::now();
                send(t, &submit, &mut stats)?;
                let reply = recv(t, &mut stats)?;
                stats.submit_rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
                match reply {
                    Frame::Accepted { campaign, .. } => batch.push(Submitted {
                        id: campaign,
                        points: spec.points.len(),
                        reference: None,
                        sent,
                    }),
                    other => return Err(format!("expected Accepted, got {other:?}")),
                }
            }
            let started = Instant::now();
            send(t, &Frame::Drain, &mut stats)?;
            let mut frames = Vec::new();
            let mut outstanding = batch.len();
            while outstanding > 0 {
                let frame = recv(t, &mut stats)?;
                if frames.is_empty() {
                    stats
                        .first_frame_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
                if matches!(frame, Frame::Done { .. } | Frame::Cancelled { .. }) {
                    outstanding -= 1;
                }
                frames.push(frame);
            }
            stats.campaigns += batch.len() as u64;
            tally.check_batch(&batch, frames.iter(), Instant::now());
        }
        send(t, &Frame::Bye, &mut stats)?;
        session
            .join()
            .map_err(|_| "serve_session panicked".to_string())?
            .map_err(|e| e.to_string())
    })?;
    Ok(stats)
}

/// `serve_cold` / `serve_warm`, stepped unit by unit on one shard.
fn wire_workload(cfg: &Config, cold: bool) -> Result<Traced, String> {
    let Fixture {
        registry,
        pop,
        mut server,
        ..
    } = Fixture::build(cfg.seed, 1, cold)?;
    let before = cache_totals(&server);
    // Cold batches never repeat: each pass takes the next generation.
    let mut generation = 0u64;
    let next_specs = |generation: &mut u64| -> Cow<[CampaignSpec]> {
        *generation += 1;
        if cold {
            Cow::Owned(population(cfg.seed, *generation - 1))
        } else {
            Cow::Borrowed(&pop)
        }
    };

    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let budget_s = cfg.seconds * TRACED_SHARE;
    let mut batches = 0usize;
    let root = tracer.enter("workload", 0);
    let start = Instant::now();
    'span: loop {
        let specs = tracer.scope("bench.generate", 0, || next_specs(&mut generation));
        for chunk in specs.chunks(BATCH) {
            let enough = tally.attempted >= DIGEST_CAMPAIGNS as u64;
            if enough && start.elapsed().as_secs_f64() >= budget_s {
                break 'span;
            }
            let chunk = tracer.scope("bench.generate", 0, || chunk.to_vec());
            let batch = submit_traced(&mut tracer, &mut server, &registry, chunk, None)?;
            let emits = step_traced(&mut tracer, &mut server, &registry)?;
            tracer.scope("bench.check", 0, || {
                tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now())
            });
            batches += 1;
        }
    }
    tracer.exit(root);
    let mut traced = Traced::new(tracer, tally);
    traced.set_cache(&server, before);

    // The same number of batches again, untraced, through `drain`.
    let mut untraced = Tally::default();
    let mut remaining = batches;
    let start = Instant::now();
    while remaining > 0 {
        let specs = next_specs(&mut generation);
        for chunk in specs.chunks(BATCH).take(remaining) {
            let batch = submit_all(&mut server, &registry, chunk, None, &mut untraced);
            let emits = server.drain(&registry).map_err(|e| e.to_string())?;
            untraced.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
            remaining -= 1;
        }
    }
    traced.set_overhead(start.elapsed().as_secs_f64());

    let specs = next_specs(&mut generation);
    let wire = wire_session(
        &mut server,
        &registry,
        &specs[..(WIRE_BATCHES * BATCH).min(specs.len())],
        &mut untraced,
    )?;
    traced.tally.absorb_failures(untraced);
    let campaigns = wire.campaigns.max(1) as f64;
    let v = &mut traced.values;
    v.insert("client.submit_rtt_us", median(&wire.submit_rtt_us));
    v.insert("client.first_frame_ms", median(&wire.first_frame_ms));
    v.insert("wire.bytes_per_campaign", wire.bytes as f64 / campaigns);
    v.insert("wire.frames_per_campaign", wire.frames as f64 / campaigns);
    Ok(traced)
}

/// `serve_backlog`: spans wrap each submit, the parallel drain, and the
/// benchmark's own generation and checking.
fn backlog_workload(cfg: &Config) -> Result<Traced, String> {
    let Fixture {
        registry,
        pop,
        mut server,
        ..
    } = Fixture::build(cfg.seed, SHARDS, false)?;
    let before = cache_totals(&server);
    let round = || backlog_queue(&pop);
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut rounds = 0usize;
    let root = tracer.enter("workload", 0);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds * TRACED_SHARE {
        let specs = tracer.scope("bench.generate", 0, round);
        let batch = submit_traced(&mut tracer, &mut server, &registry, specs, None)?;
        let emits = tracer
            .scope("server.drain_parallel", 0, || {
                server.drain_parallel(&registry)
            })
            .map_err(|e| e.to_string())?;
        tracer.scope("bench.check", 0, || {
            tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now())
        });
        rounds += 1;
    }
    tracer.exit(root);
    let mut traced = Traced::new(tracer, tally);
    traced.set_cache(&server, before);

    let mut untraced = Tally::default();
    let start = Instant::now();
    for _ in 0..rounds {
        let batch = submit_all(&mut server, &registry, &round(), None, &mut untraced);
        let emits = server
            .drain_parallel(&registry)
            .map_err(|e| e.to_string())?;
        untraced.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    }
    traced.set_overhead(start.elapsed().as_secs_f64());
    traced.tally.absorb_failures(untraced);
    Ok(traced)
}

/// Step the same batch unsupervised and count the units each shard
/// took: a campaign's unit count does not depend on how it is drained.
fn count_units(
    server: &mut Server,
    registry: &Registry,
    chunk: &[CampaignSpec],
    tally: &mut Tally,
) -> Result<Vec<u64>, String> {
    let mut units = vec![0u64; server.n_shards()];
    let batch = submit_all(server, registry, chunk, None, tally);
    let mut emits = Vec::new();
    while !server.idle() {
        for (i, n) in units.iter_mut().enumerate() {
            *n += !server.shard(i as u32).idle() as u64;
        }
        emits.extend(server.step(registry).map_err(|e| e.to_string())?);
    }
    tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    Ok(units)
}

fn supervised_workload(cfg: &Config) -> Result<Traced, String> {
    let Fixture {
        registry,
        pop,
        mut server,
        reference,
    } = Fixture::build(cfg.seed, SHARDS, false)?;
    let reference = reference.expect("warm fixtures carry references");
    let before = cache_totals(&server);
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut uncounted = Tally::default();
    let mut restarts_prefix = 0u64;
    let mut units_total = 0u64;
    let mut supervised_ns = 0u64;
    // Computed: what the snapshots and restores inside the drains cost.
    let mut snapshot_restore_ns = 0.0f64;
    let mut batch_index = 0u64;
    let root = tracer.enter("workload", 0);
    let start = Instant::now();
    'span: loop {
        for (chunk_index, chunk) in pop.chunks(BATCH).enumerate() {
            let in_prefix = (tally.attempted as usize) < DIGEST_CAMPAIGNS;
            if !in_prefix && start.elapsed().as_secs_f64() >= cfg.seconds * TRACED_SHARE {
                break 'span;
            }
            let refs = &reference[chunk_index * BATCH..];
            let specs = tracer.scope("bench.generate", 0, || chunk.to_vec());
            let batch = submit_traced(&mut tracer, &mut server, &registry, specs, Some(refs))?;
            let (plan, sup) = supervised_batch_plan(cfg.seed, batch_index);
            let span = tracer.enter("supervisor.drain_supervised", 0);
            let outcome = server
                .drain_supervised(&registry, &sup, Some(&plan))
                .map_err(|e| e.to_string())?;
            tracer.exit(span);
            supervised_ns += tracer.spans()[span].duration_ns();
            if outcome.degraded() {
                tally.fail(format!("batch {batch_index} degraded"));
            }
            if in_prefix {
                restarts_prefix += outcome.restarts;
            }
            tracer.scope("bench.check", 0, || {
                tally.check_batch(
                    &batch,
                    outcome.emits.iter().map(|e| &e.frame),
                    Instant::now(),
                )
            });

            // Probes, outside the supervised drain: what one snapshot and
            // one restore of each shard cost at the live cache size, and
            // how many units the batch is.
            let probe = tracer.enter("bench.probe", 0);
            let mut snapshot_ns = Vec::with_capacity(SHARDS);
            let mut restore_ns = Vec::with_capacity(SHARDS);
            for i in 0..server.n_shards() as u32 {
                let span = tracer.enter("shard.snapshot", 0);
                let bytes = server.shard(i).snapshot();
                tracer.exit(span);
                snapshot_ns.push(tracer.spans()[span].duration_ns() as f64);
                let mut scratch = server.shard(i).clone();
                let span = tracer.enter("shard.restore", 0);
                scratch.restore(&bytes).map_err(|e| e.to_string())?;
                tracer.exit(span);
                restore_ns.push(tracer.spans()[span].duration_ns() as f64);
            }
            let units = count_units(&mut server, &registry, chunk, &mut uncounted)?;
            tracer.exit(probe);
            units_total += units.iter().sum::<u64>();
            snapshot_restore_ns += units
                .iter()
                .zip(&snapshot_ns)
                .map(|(n, ns)| *n as f64 * ns)
                .sum::<f64>();
            snapshot_restore_ns += outcome.restarts as f64 * median(&restore_ns);
            batch_index += 1;
        }
    }
    tracer.exit(root);
    tally.absorb_failures(uncounted);
    let mut traced = Traced::new(tracer, tally);
    traced.set_cache(&server, before);
    let v = &mut traced.values;
    v.insert("supervisor.restarts", restarts_prefix as f64);
    v.insert(
        "supervisor.unit_us",
        supervised_ns as f64 / 1e3 / units_total.max(1) as f64,
    );
    // The probes are the benchmark's own work: leave them out of the
    // span the shares are of.
    let probes_ns: u64 = traced
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.probe")
        .map(|s| s.duration_ns())
        .sum();
    let span_ns = traced.tracer.spans()[0].duration_ns() - probes_ns;
    v.insert(
        "supervisor.snapshot_restore_share",
        snapshot_restore_ns / span_ns.max(1) as f64,
    );
    // The supervised drain has no untraced twin worth timing: its three
    // spans per batch cost nanoseconds against ~100 ms.
    Ok(traced)
}

fn fleet_workload(cfg: &Config) -> Result<Traced, String> {
    let (registry, seeds) = fleet_setup(cfg.seed)?;
    let mut tracer = Tracer::default();
    let mut tally = Tally::default();
    let mut studies = 0usize;
    let root = tracer.enter("workload", 0);
    let start = Instant::now();
    while studies == 0 || start.elapsed().as_secs_f64() < cfg.seconds * TRACED_SHARE {
        let study = study_at(seeds[studies % seeds.len()]);
        let report = tracer.scope("fleet.run", 0, || study.run(&registry))?;
        let rendered = tracer.scope("fleet.render", 0, || report.render());
        tracer.scope("bench.check", 0, || {
            check_study(&mut tally, &report, &rendered, registry.len())
        });
        studies += 1;
    }
    tracer.exit(root);
    let mut traced = Traced::new(tracer, tally);

    let mut untraced = Tally::default();
    let start = Instant::now();
    for i in 0..studies {
        let study = study_at(seeds[i % seeds.len()]);
        let report = study.run(&registry)?;
        let rendered = report.render();
        check_study(&mut untraced, &report, &rendered, registry.len());
    }
    traced.set_overhead(start.elapsed().as_secs_f64());
    traced.tally.absorb_failures(untraced);
    Ok(traced)
}

/// Run workload `name` with spans recorded.
pub fn run(name: &str, cfg: &Config) -> Result<Traced, String> {
    match name {
        "serve_cold" => wire_workload(cfg, true),
        "serve_warm" => wire_workload(cfg, false),
        "serve_backlog" => backlog_workload(cfg),
        "serve_supervised" => supervised_workload(cfg),
        "fleet_study" => fleet_workload(cfg),
        _ => Err(format!("unknown workload `{name}`")),
    }
}
