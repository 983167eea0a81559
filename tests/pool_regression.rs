//! Regression tests for `kernels::linalg`'s row chunks on the parallel
//! map (`par_row_chunks` hands its disjoint `chunks_mut` to
//! `pool::par_map_owned`) and for the `apps-common` rank-spawn cap.
//!
//! These live in their own test binary: the dedicated-thread counters in
//! `jubench::pool` are process-global atomics, so delta assertions on
//! them must not race other integration tests spawning worlds.

use jubench::apps_common::real_exec_world;
use jubench::kernels::{gemm, rank_rng, Matrix};
use jubench::pool::{
    dedicated_peak_in_flight, dedicated_spawned_total, run_dedicated, with_threads,
    MAX_DEDICATED_THREADS,
};
use jubench::prelude::*;
use std::sync::{Mutex, OnceLock};

/// Serializes the tests that assert on deltas of the process-global
/// spawn counters — the default test harness runs tests concurrently.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The straightforward triple loop `gemm` replaced: the pre-migration
/// sequential reference.
fn gemm_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows);
    let k = a.cols;
    Matrix::from_fn(a.rows, b.cols, |i, j| {
        let mut acc = 0.0;
        for p in 0..k {
            acc += a[(i, p)] * b[(p, j)];
        }
        acc
    })
}

/// `gemm` on the parallel map is bitwise-identical to the sequential
/// reference for every pool width: row chunking never changes the
/// per-row loop order, so the floating-point results cannot drift.
#[test]
fn pooled_gemm_matches_sequential_reference_bitwise() {
    for case in 0..6u64 {
        let mut rng = rank_rng(0xAC + case, 21);
        let m = rng.gen_range(1usize..96);
        let k = rng.gen_range(1usize..48);
        let n = rng.gen_range(1usize..96);
        let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0..2.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0..2.0));
        let reference = gemm_reference(&a, &b);
        for threads in [1usize, 2, 8] {
            let c = with_threads(threads, || gemm(&a, &b));
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        c[(i, j)].to_bits(),
                        reference[(i, j)].to_bits(),
                        "case {case}: gemm({m}x{k}x{n}) at {threads} threads, \
                         element ({i},{j}) not bitwise-identical"
                    );
                }
            }
        }
    }
}

/// The rank-spawn cap: a real-execution world over any machine size
/// collapses to at most `MAX_DEDICATED_THREADS` ranks.
#[test]
fn real_exec_rank_count_is_capped_at_dedicated_limit() {
    let world = real_exec_world(Machine::juwels_booster().partition(936));
    assert_eq!(world.ranks(), MAX_DEDICATED_THREADS);
    let small = real_exec_world(Machine::juwels_booster().partition(2));
    assert!(small.ranks() <= MAX_DEDICATED_THREADS);
}

/// `run_dedicated` spawns exactly `n` OS threads per call (counted by
/// the process-global totals) and all `n` are concurrently alive — a
/// `Barrier` rendezvous across them deadlocks otherwise.
#[test]
fn run_dedicated_spawn_count_never_exceeds_request() {
    let _guard = counter_lock();
    let n = MAX_DEDICATED_THREADS;
    let before = dedicated_spawned_total();
    let barrier = std::sync::Barrier::new(n as usize);
    let out = run_dedicated(n, |rank| {
        barrier.wait();
        rank
    });
    let spawned = dedicated_spawned_total() - before;
    assert_eq!(spawned, n as usize, "exactly one OS thread per rank");
    assert!(dedicated_peak_in_flight() >= n as usize);
    let ranks: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(ranks, (0..n).collect::<Vec<_>>());
}

/// A capped world run end to end: 936 virtual nodes execute on 16 real
/// threads, and the spawn-count delta for the run is exactly the capped
/// rank count — the cap is what bounds OS-thread usage, not the machine
/// size.
#[test]
fn capped_world_run_spawns_only_capped_thread_count() {
    let _guard = counter_lock();
    let world = real_exec_world(Machine::juwels_booster().partition(936));
    let ranks = world.ranks();
    let before = dedicated_spawned_total();
    let results = world.run(|comm| {
        let mut acc = [1.0f64];
        comm.allreduce_f64(&mut acc, ReduceOp::Sum).unwrap();
        acc[0]
    });
    let spawned = dedicated_spawned_total() - before;
    assert_eq!(spawned, ranks as usize);
    assert!(results.iter().all(|r| r.value == ranks as f64));
}
