//! Micro-benchmarks of the event-queue core and the campaign-level
//! payoff of event-driven virtual time.
//!
//! The `event_core` group times the queue primitive itself (push +
//! drain). The `campaign_probe` group runs a sparse
//! campaign — short jobs spread across a long virtual horizon — through
//! the event engine, guarding its trajectory against `BENCH_2.json`.
//!
//! Run with: `cargo bench -p jubench-bench --bench event_core`

use jubench_bench::harness::{black_box, Criterion, Throughput};
use jubench_bench::{criterion_group, criterion_main};
use jubench_cluster::{Machine, NetModel};
use jubench_events::EventQueue;
use jubench_faults::FaultPlan;
use jubench_kernels::rank_rng;
use jubench_sched::{Job, PlacementPolicy, QueuePolicy, Scheduler, SchedulerConfig};

const QUEUE_EVENTS: u64 = 4096;

fn bench_queue_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_core");

    // Pre-generated keys so the RNG is outside the timed region.
    let mut rng = rank_rng(0xE1, 0);
    let keys: Vec<(f64, u8, u32)> = (0..QUEUE_EVENTS)
        .map(|_| {
            (
                rng.gen_range(0.0..1.0e6),
                rng.gen_range(0u8..6),
                rng.gen_range(0u32..64),
            )
        })
        .collect();

    group.throughput(Throughput::Elements(QUEUE_EVENTS));
    group.bench_function("push_drain_4096", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(keys.len());
            for &(t, class, rank) in &keys {
                q.push(t, class, rank, rank);
            }
            let mut last = 0u32;
            while let Some(e) = q.pop() {
                last = e.payload;
            }
            black_box(last)
        });
    });

    group.finish();
}

/// The sparse-campaign shape from `tests/events_soak.rs`, sized for a
/// bench iteration: the machine is idle most of the virtual horizon.
fn sparse_jobs(n: u32, spacing_s: f64) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::new(i, &format!("sparse-{i}"), 4, 10.0)
                .with_comm_fraction(0.1)
                .with_submit(f64::from(i) * spacing_s)
        })
        .collect()
}

fn bench_campaign_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_probe");
    let jobs = sparse_jobs(4000, 500.0);
    let plan = FaultPlan::new(0);
    let scheduler = Scheduler::new(
        Machine::juwels_booster().partition(48),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            7,
        ),
    );

    group.bench_function("sparse_4000_event", |b| {
        b.iter(|| scheduler.run(&jobs, &plan).makespan_s);
    });

    group.finish();
}

criterion_group!(benches, bench_queue_primitives, bench_campaign_probe);
criterion_main!(benches);
