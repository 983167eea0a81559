//! Part B of the per-layer metrics: isolated calls into each layer's
//! public functions on fixed inputs, independent of `--workload` and
//! `--seed`, so a layer's own cost can be followed from commit to
//! commit next to the traced shares.
//!
//! Each timing is the median of up to [`MAX_SAMPLES`] samples taken for
//! a per-metric time budget (at least [`MIN_SAMPLES`]), after one
//! untimed warm-up sample; nanosecond-scale calls are timed in batches.

use crate::population::population;
use crate::stats::median;
use crate::workloads::{study_at, submit_all, Tally, CLIENT};
use crate::Metric;
use jubench::ckpt::{open, seal, Checkpointable};
use jubench::cluster::{Machine, NetModel};
use jubench::core::{content_key128, Registry, RunConfig};
use jubench::events::EventQueue;
use jubench::faults::FaultPlan;
use jubench::kernels::cg::{cg_solve, DenseOp};
use jubench::kernels::{fft_3d, gemm, lu_factor, rank_rng, Matrix, C64};
use jubench::sched::{Job, PlacementPolicy, QueuePolicy, Scheduler, SchedulerConfig};
use jubench::serve::{
    AdmissionConfig, AdmissionGate, CampaignSpec, DuplexPipe, Frame, PointResult, ResultCache,
    RunPoint, Server, Transport,
};
use jubench::simmpi::{ReduceOp, World};
use jubench::trace::{chrome_trace_json, Recorder, RunReport};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIN_SAMPLES: usize = 3;
const MAX_SAMPLES: usize = 200;
/// Seed of every fixed input here.
const FIXED_SEED: u64 = 0xF1_5ED;
/// A study seed on which the whole registry verifies.
const FIXED_STUDY_SEED: u64 = 2024;
/// Entries of the large cache and shard fixtures.
const LARGE_CACHE: usize = 4096;
/// Campaigns of the small warm fixture (4 points each: 64 cache entries).
const SMALL_FIXTURE_CAMPAIGNS: usize = 16;
/// STREAM array length (f64): 3 × 32 MB, timed inside `stream_kernels`
/// with allocation outside the timed region.
const STREAM_N: usize = 4_000_000;
/// Last-level cache of the sandbox the benchmark was sized on (bytes).
const SANDBOX_LLC_BYTES: usize = 260 << 20;

/// Part B names and units in the order [`measure`] produces them; the
/// `apps.<bench>_ms` of the registry come between the two lists.
const BEFORE_APPS: [(&str, &str); 39] = [
    ("spec.point_key_ns", "ns"),
    ("spec.validate_us", "us"),
    ("spec.encode_us", "us"),
    ("spec.decode_us", "us"),
    ("admission.admit_release_ns", "ns"),
    ("cache.lookup_miss_ns", "ns"),
    ("cache.insert_evict_ns", "ns"),
    ("cache.lookup_hit_ns", "ns"),
    ("wire.encode_submit_us", "us"),
    ("wire.decode_submit_us", "us"),
    ("wire.encode_done_us", "us"),
    ("wire.decode_done_us", "us"),
    ("transport.roundtrip_us", "us"),
    ("server.step_us.depth8", "us"),
    ("server.step_us.depth1000", "us"),
    ("metrics.counter_add_ns", "ns"),
    ("metrics.observe_ns", "ns"),
    ("metrics.snapshot_us", "us"),
    ("metrics.on_off_ratio", "ratio"),
    ("shard.snapshot_us.c64", "us"),
    ("shard.snapshot_us.c4096", "us"),
    ("shard.snapshot_bytes.c4096", "count"),
    ("shard.restore_us.c4096", "us"),
    ("ckpt.seal_open_1mb_us", "us"),
    ("sched.slice_cycle_us", "us"),
    ("trace.chrome_json_us", "us"),
    ("trace.run_report_us", "us"),
    ("sched.run_4000_ms", "ms"),
    ("events.push_drain_4096_us", "us"),
    ("pool.run_dedicated_2_us", "us"),
    ("pool.par_map_1k_us", "us"),
    ("simmpi.world_spawn_8r_us", "us"),
    ("simmpi.allreduce_8r_us", "us"),
    ("simmpi.sendrecv_us", "us"),
    ("kernels.gemm_128_us", "us"),
    ("kernels.lu_96_us", "us"),
    ("kernels.fft3d_32_us", "us"),
    ("kernels.cg_64_us", "us"),
    ("kernels.stream_triad_gbs", "GB/s"),
];
const AFTER_APPS: [(&str, &str); 2] = [("fleet.render_us", "us"), ("fleet.warm_study_ms", "ms")];

/// Every Part B metric's name and unit, without measuring anything.
pub fn names(registry: &Registry) -> Vec<(String, &'static str)> {
    let fixed = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut out = fixed(&BEFORE_APPS);
    out.extend(
        registry
            .iter()
            .map(|b| (format!("apps.{}_ms", slug(b.meta().id.name())), "ms")),
    );
    out.extend(fixed(&AFTER_APPS));
    out
}

/// Median nanoseconds per call of `f`, timed in batches of `batch`.
fn time_ns(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f();
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || (samples.len() < MAX_SAMPLES && start.elapsed() < budget) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

/// Collects the metrics under one per-metric time budget.
struct Bench {
    budget: Duration,
    out: Vec<Metric>,
}

impl Bench {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.out.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn ns(&mut self, name: &str, batch: u32, f: impl FnMut()) {
        let v = time_ns(self.budget, batch, f);
        self.push(name, "ns", v);
    }

    fn us(&mut self, name: &str, f: impl FnMut()) {
        let v = time_ns(self.budget, 1, f) / 1e3;
        self.push(name, "us", v);
    }

    fn ms(&mut self, name: impl Into<String>, f: impl FnMut()) {
        let v = time_ns(self.budget, 1, f) / 1e6;
        self.push(name, "ms", v);
    }
}

/// `[a-z0-9_]` slug of a benchmark name.
pub fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// A synthetic cache entry shaped like a real row.
fn synthetic_result(i: u64) -> PointResult {
    PointResult {
        cells: vec![
            "HPCG".to_string(),
            "4".to_string(),
            "Test".to_string(),
            "base".to_string(),
            i.to_string(),
            format!("{:.6}", 1.0 + i as f64 * 1e-3),
            "0.1250".to_string(),
            "pass".to_string(),
        ],
        service_s: 1.0 + i as f64 * 1e-3,
        comm_fraction: 0.125,
        priority: 1,
    }
}

fn key(i: u64) -> u128 {
    content_key128(&i.to_le_bytes())
}

/// A 1-shard server whose cache holds `LARGE_CACHE` entries, filled
/// with the cheapest real point there is (HPL on one node).
fn large_shard_fixture(registry: &Registry) -> Result<Server, String> {
    const POINTS: usize = 32;
    let mut server = Server::new(1, 2 * LARGE_CACHE);
    let specs: Vec<CampaignSpec> = (0..LARGE_CACHE / POINTS)
        .map(|c| {
            let mut spec = CampaignSpec::new("fixture", &format!("fill-{c}"), 8, FIXED_SEED);
            // One slice per campaign: this only fills the cache.
            spec.slice_s = 1.0e9;
            for p in 0..POINTS {
                spec = spec.with_point(RunPoint::test("HPL", 1, (c * POINTS + p) as u64));
            }
            spec
        })
        .collect();
    let mut tally = Tally::default();
    let batch = submit_all(&mut server, registry, &specs, None, &mut tally);
    let emits = server.drain(registry).map_err(|e| e.to_string())?;
    tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    if tally.failed > 0 || server.shard(0).cache().len() != LARGE_CACHE {
        return Err(format!("large shard fixture failed: {:?}", tally.errors));
    }
    Ok(server)
}

/// Submit `n` campaigns (cycling `specs`) to a warm 1-shard server and
/// step it idle; returns (seconds, steps).
fn drain_depth(
    server: &mut Server,
    registry: &Registry,
    specs: &[CampaignSpec],
    n: usize,
) -> Result<(f64, u64), String> {
    for spec in specs.iter().cycle().take(n) {
        server
            .submit(CLIENT, spec.clone(), registry)
            .map_err(|r| r.to_string())?;
    }
    let mut steps = 0u64;
    let t = Instant::now();
    while !server.idle() {
        black_box(server.step(registry).map_err(|e| e.to_string())?);
        steps += 1;
    }
    Ok((t.elapsed().as_secs_f64(), steps))
}

fn serve_layers(b: &mut Bench, registry: &Registry) -> Result<(), String> {
    let specs = population(FIXED_SEED, 0);
    let spec = &specs[0];

    // spec: content address, validation, canonical codec.
    b.ns("spec.point_key_ns", 100, || {
        black_box(spec.point_key(black_box(1)));
    });
    b.us("spec.validate_us", || {
        black_box(spec.validate(registry)).ok();
    });
    b.us("spec.encode_us", || {
        black_box(spec.encode());
    });
    let encoded = spec.encode();
    b.us("spec.decode_us", || {
        black_box(CampaignSpec::decode(&encoded)).ok();
    });

    // admission: one charge and its refund.
    let mut gate = AdmissionGate::new(AdmissionConfig::default());
    b.ns("admission.admit_release_ns", 100, || {
        gate.admit("tenant-0", 4).ok();
        gate.release("tenant-0", 4);
    });

    // cache: a store full at 4096, so every insert of a new key evicts.
    let mut cache = ResultCache::new(LARGE_CACHE);
    for i in 0..LARGE_CACHE as u64 {
        cache.insert(key(i), synthetic_result(i));
    }
    let mut i = 0u64;
    b.ns("cache.lookup_miss_ns", 100, || {
        i += 1;
        black_box(cache.lookup(key(u64::MAX - i)));
    });
    let fresh = synthetic_result(0);
    let mut next = LARGE_CACHE as u64;
    b.ns("cache.insert_evict_ns", 10, || {
        cache.insert(key(next), fresh.clone());
        next += 1;
    });
    // Inserts evicted the oldest keys; look the newest ones up.
    let newest = next - 1;
    let mut i = 0u64;
    b.ns("cache.lookup_hit_ns", 100, || {
        i = (i + 1) % 1024;
        black_box(cache.lookup(key(newest - i)));
    });

    // A small warm server: 16 campaigns, 64 cache entries.
    let small = &specs[..SMALL_FIXTURE_CAMPAIGNS];
    let mut server = Server::new(1, 8192);
    let mut tally = Tally::default();
    let batch = submit_all(&mut server, registry, small, None, &mut tally);
    let emits = server.drain(registry).map_err(|e| e.to_string())?;
    tally.check_batch(&batch, emits.iter().map(|e| &e.frame), Instant::now());
    if tally.failed > 0 {
        return Err(format!("small fixture failed: {:?}", tally.errors));
    }

    // wire: the two frames that carry the bytes.
    let submit = Frame::Submit { spec: spec.clone() };
    let done = emits
        .iter()
        .map(|e| &e.frame)
        .find(|f| matches!(f, Frame::Done { .. }))
        .ok_or("fixture produced no Done frame")?
        .clone();
    let (submit_bytes, done_bytes) = (submit.encode(), done.encode());
    b.us("wire.encode_submit_us", || {
        black_box(submit.encode());
    });
    b.us("wire.decode_submit_us", || {
        black_box(Frame::decode(&submit_bytes)).ok();
    });
    b.us("wire.encode_done_us", || {
        black_box(done.encode());
    });
    b.us("wire.decode_done_us", || {
        black_box(Frame::decode(&done_bytes)).ok();
    });

    // transport: an 8-byte ping-pong over the in-process pipe.
    let (mut near, mut far) = DuplexPipe::pair();
    let roundtrip_us = std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            let mut buf = [0u8; 8];
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        let mut buf = [0u8; 8];
        let v = time_ns(b.budget, 1, || {
            near.write_all(&buf).expect("echo thread is alive");
            near.read_exact(&mut buf).expect("echo thread is alive");
        });
        near.shutdown();
        echo.join().expect("echo thread does not panic");
        v / 1e3
    });
    b.push("transport.roundtrip_us", "us", roundtrip_us);

    // server: mean step cost when a queue 8 deep / 1000 deep is drained
    // (the deep one once: it averages ~9000 steps).
    let mut shallow = Vec::new();
    let start = Instant::now();
    while shallow.len() < MIN_SAMPLES || (shallow.len() < MAX_SAMPLES && start.elapsed() < b.budget)
    {
        let (s, steps) = drain_depth(&mut server, registry, small, 8)?;
        shallow.push(s * 1e6 / steps as f64);
    }
    b.push("server.step_us.depth8", "us", median(&shallow));
    let (s, steps) = drain_depth(&mut server, registry, small, 1000)?;
    b.push("server.step_us.depth1000", "us", s * 1e6 / steps as f64);

    // metrics: the registry's own cost, and what leaving it on costs a
    // warm round (the existing switch, flipped in process).
    b.ns("metrics.counter_add_ns", 1000, || {
        jubench::metrics::counter_add("benchmark/probe_counter", 1);
    });
    b.ns("metrics.observe_ns", 1000, || {
        jubench::metrics::observe("benchmark/probe_histogram", 1234);
    });
    b.us("metrics.snapshot_us", || {
        black_box(jubench::metrics::snapshot());
    });
    let was_enabled = jubench::metrics::enabled();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (enabled, times) in [(true, &mut on), (false, &mut off)] {
            jubench::metrics::set_enabled(enabled);
            times.push(drain_depth(&mut server, registry, small, small.len())?.0);
        }
    }
    jubench::metrics::set_enabled(was_enabled);
    b.push("metrics.on_off_ratio", "ratio", median(&off) / median(&on));

    // shard: snapshot and restore against cache size.
    let shard = server.shard(0);
    b.us("shard.snapshot_us.c64", || {
        black_box(shard.snapshot());
    });
    let large = large_shard_fixture(registry)?;
    let shard = large.shard(0);
    b.us("shard.snapshot_us.c4096", || {
        black_box(shard.snapshot());
    });
    let bytes = shard.snapshot();
    b.push("shard.snapshot_bytes.c4096", "count", bytes.len() as f64);
    let mut scratch = shard.clone();
    b.us("shard.restore_us.c4096", || {
        scratch.restore(&bytes).expect("own snapshot restores");
    });

    // ckpt: the envelope around every snapshot.
    let payload = vec![0x5Au8; 1 << 20];
    b.us("ckpt.seal_open_1mb_us", || {
        let sealed = seal("benchmark/probe", &payload);
        black_box(open("benchmark/probe", &sealed)).ok();
    });
    Ok(())
}

fn sched_layers(b: &mut Bench) {
    // One serve slice as `shard::sched_slice` does it: resume from
    // bytes, advance one 10 s window, snapshot back to bytes.
    let machine = Machine::juwels_booster();
    let scheduler = Scheduler::new(
        machine.partition(8),
        machine.net,
        SchedulerConfig::new(QueuePolicy::Fifo, PlacementPolicy::Contiguous, FIXED_SEED),
    );
    let jobs: Vec<Job> = (0..4u32)
        .map(|i| {
            Job::new(i, &format!("job#{i}"), 2 + i, 40.0 + 10.0 * f64::from(i))
                .with_comm_fraction(0.2)
                .with_submit(f64::from(i))
        })
        .collect();
    let plan = FaultPlan::new(FIXED_SEED);
    let mut bytes = scheduler.begin(&jobs).snapshot();
    let mut horizon_s = 0.0;
    b.us("sched.slice_cycle_us", || {
        let mut state = scheduler
            .resume(&bytes, &jobs)
            .expect("own snapshot resumes");
        horizon_s += 10.0;
        if scheduler.advance(&mut state, &jobs, &plan, horizon_s) {
            bytes = scheduler.begin(&jobs).snapshot();
            horizon_s = 0.0;
        } else {
            bytes = state.snapshot();
        }
    });

    // trace: the two renders `finish_campaign` does per campaign.
    let schedule = scheduler.run(&jobs, &plan);
    let recorder = Recorder::new();
    schedule.emit(&recorder);
    let events = recorder.take_events();
    b.us("trace.chrome_json_us", || {
        black_box(chrome_trace_json(&events));
    });
    b.us("trace.run_report_us", || {
        black_box(RunReport::from_events(&events).render());
    });

    // The event engine on a long sparse campaign.
    let sparse: Vec<Job> = (0..4000u32)
        .map(|i| {
            Job::new(i, &format!("sparse-{i}"), 4, 10.0)
                .with_comm_fraction(0.1)
                .with_submit(f64::from(i) * 500.0)
        })
        .collect();
    let backfill = Scheduler::new(
        machine.partition(48),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            7,
        ),
    );
    b.ms("sched.run_4000_ms", || {
        black_box(backfill.run(&sparse, &plan).makespan_s);
    });

    let mut rng = rank_rng(0xE1, 0);
    let keys: Vec<(f64, u8, u32)> = (0..4096)
        .map(|_| {
            (
                rng.gen_range(0.0..1.0e6),
                rng.gen_range(0u8..6),
                rng.gen_range(0u32..64),
            )
        })
        .collect();
    b.us("events.push_drain_4096_us", || {
        let mut q = EventQueue::with_capacity(keys.len());
        for &(t, class, rank) in &keys {
            q.push(t, class, rank, rank);
        }
        let mut last = 0u32;
        while let Some(e) = q.pop() {
            last = e.payload;
        }
        black_box(last);
    });
}

fn runtime_layers(b: &mut Bench) {
    b.us("pool.run_dedicated_2_us", || {
        black_box(jubench::pool::run_dedicated(2, |i| i));
    });
    b.us("pool.par_map_1k_us", || {
        black_box(jubench::pool::par_map_indexed(1000, |i| i * 2));
    });

    // simmpi: 2 nodes × 4 GPUs = 8 ranks. Collectives are timed by
    // rank 0 inside one world, so thread spawn is not in them.
    const CALLS: u32 = 200;
    let world = World::new(Machine::juwels_booster().partition(2));
    b.us("simmpi.world_spawn_8r_us", || {
        black_box(world.run(|comm| comm.rank()));
    });
    let per_call_us = |results: Vec<jubench::simmpi::RankResult<f64>>| results[0].value;
    let allreduce = world.run(|comm| {
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(comm.allreduce_scalar(1.0, ReduceOp::Sum)).ok();
        }
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
    });
    b.push("simmpi.allreduce_8r_us", "us", per_call_us(allreduce));
    let data = [1.0f64; 64];
    let sendrecv = world.run(|comm| {
        let peer = comm.rank() ^ 1;
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(comm.sendrecv_f64(peer, &data)).ok();
        }
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
    });
    b.push("simmpi.sendrecv_us", "us", per_call_us(sendrecv));
}

fn kernel_layers(b: &mut Bench) -> Result<(), String> {
    let mut rng = rank_rng(2, 0);
    let a = Matrix::from_fn(128, 128, |_, _| rng.gen_range(-1.0..1.0));
    let m = Matrix::from_fn(128, 128, |_, _| rng.gen_range(-1.0..1.0));
    b.us("kernels.gemm_128_us", || {
        black_box(gemm(&a, &m).data[0]);
    });
    let mut rng = rank_rng(3, 0);
    let lu = Matrix::from_fn(96, 96, |i, j| {
        rng.gen_range(-1.0..1.0) + if i == j { 96.0 } else { 0.0 }
    });
    b.us("kernels.lu_96_us", || {
        black_box(lu_factor(&lu).map(|f| f.swaps));
    });
    let mut rng = rank_rng(1, 0);
    let grid: Vec<C64> = (0..32 * 32 * 32)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let mut work = grid.clone();
    b.us("kernels.fft3d_32_us", || {
        work.copy_from_slice(&grid);
        fft_3d(&mut work, 32, 32, 32);
        black_box(work[0]);
    });
    // SPD operator: MᵀM + nI.
    let n = 64;
    let mut rng = rank_rng(4, 0);
    let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    let mut spd = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let dot: f64 = (0..n).map(|k| m[(k, i)] * m[(k, j)]).sum();
            spd[(i, j)] = dot + if i == j { n as f64 } else { 0.0 };
        }
    }
    let op = DenseOp(spd);
    let rhs = vec![1.0; n];
    b.us("kernels.cg_64_us", || {
        let mut x = vec![0.0; n];
        black_box(cg_solve(&op, &rhs, &mut x, 1e-10, 300).iterations);
    });
    // STREAM triad: computed bytes (24 per element) over the kernel's own
    // loop timing. The arrays fit this sandbox's LLC, so this is a cache
    // bandwidth, not DRAM: 4× LLC would need 1 GB arrays.
    let rates = jubench::synthetic::stream::stream_kernels(STREAM_N, 3)?;
    b.push("kernels.stream_triad_gbs", "GB/s", rates.triad / 1e9);
    println!(
        "  kernels.stream_triad_gbs: 3 arrays of {} MB, sandbox LLC {} MB, llc_resident = {}",
        (STREAM_N * 8) >> 20,
        SANDBOX_LLC_BYTES >> 20,
        3 * STREAM_N * 8 < SANDBOX_LLC_BYTES
    );
    Ok(())
}

fn app_layers(b: &mut Bench, registry: &Registry) {
    for bench in registry.iter() {
        let config = RunConfig::test(bench.reference_nodes());
        b.ms(format!("apps.{}_ms", slug(bench.meta().id.name())), || {
            black_box(bench.run(&config)).ok();
        });
    }
}

fn fleet_layers(b: &mut Bench, registry: &Registry) -> Result<(), String> {
    let study = study_at(FIXED_STUDY_SEED);
    let mut server = Server::new(study.n_shards, study.cache_capacity);
    let report = study.run_on(&mut server, registry)?;
    b.us("fleet.render_us", || {
        black_box(report.render());
    });
    b.ms("fleet.warm_study_ms", || {
        black_box(study.run_on(&mut server, registry)).ok();
    });
    Ok(())
}

/// Every Part B metric. `seconds` scales the per-metric time budget.
pub fn measure(registry: &Registry, seconds: f64) -> Result<Vec<Metric>, String> {
    let mut b = Bench {
        budget: Duration::from_secs_f64(seconds * 0.004),
        out: Vec::new(),
    };
    serve_layers(&mut b, registry)?;
    sched_layers(&mut b);
    runtime_layers(&mut b);
    kernel_layers(&mut b)?;
    app_layers(&mut b, registry);
    fleet_layers(&mut b, registry)?;
    let measured: Vec<(String, &'static str)> =
        b.out.iter().map(|m| (m.name.clone(), m.unit)).collect();
    if measured != names(registry) {
        return Err("layers::names is out of step with layers::measure".to_string());
    }
    Ok(b.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_lowercase_alphanumeric() {
        assert_eq!(slug("Quantum Espresso"), "quantum_espresso");
        assert_eq!(slug("Chroma-QCD"), "chroma_qcd");
        assert_eq!(slug("nekRS"), "nekrs");
    }

    #[test]
    fn time_ns_takes_the_minimum_samples_on_a_zero_budget() {
        let mut calls = 0u32;
        time_ns(Duration::ZERO, 2, || calls += 1);
        // One warm-up batch plus MIN_SAMPLES timed batches.
        assert_eq!(calls, 2 * (1 + MIN_SAMPLES as u32));
    }
}
