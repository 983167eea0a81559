//! Ablation studies of the performance-model design choices (see
//! `jubench_scaling::ablations`): regenerates the comparison series and
//! times the ablated evaluations.

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_scaling::{alltoall_algorithms, juqcs_comm_efficiency, overlap_ablation};

const SWEEP: [u32; 8] = [2, 4, 8, 32, 64, 128, 256, 512];

fn regenerate() {
    banner("Ablation 1 — JUQCS communication efficiency with/without the congestion regime");
    let with = juqcs_comm_efficiency(&SWEEP, true);
    let without = juqcs_comm_efficiency(&SWEEP, false);
    println!("  nodes   with-congestion   without");
    for ((n, a), (_, b)) in with.iter().zip(&without) {
        println!("  {n:>5}   {a:>15.3}   {b:>7.3}");
    }
    println!("\n  → the 256-node drop of Fig. 3 is entirely a topology/congestion effect.\n");

    banner("Ablation 2 — exposed-communication fraction vs. overlap factor (Arbor-like)");
    for overlap in [0.0, 0.25, 0.5, 0.75, 1.0] {
        println!(
            "  overlap {overlap:>4.2}  exposed comm {:>6.2} % of step time",
            100.0 * overlap_ablation(642, overlap)
        );
    }
    println!("\n  → Arbor's flat Fig. 3 line depends on hiding the spike exchange.\n");

    banner("Ablation 3 — all-to-all algorithm (linear pairwise vs. Bruck combining)");
    println!("  128 nodes, per-pair payload:   linear        bruck      chosen");
    for bytes in [256u64, 4 << 10, 64 << 10, 4 << 20] {
        let (linear, bruck) = alltoall_algorithms(128, bytes);
        println!(
            "  {:>10} B           {:>10.3e} s {:>10.3e} s   {}",
            bytes,
            linear,
            bruck,
            if bruck < linear { "bruck" } else { "linear" }
        );
    }
    println!("\n  → without the per-size choice, the FFT-transpose codes (GROMACS C,");
    println!("    Quantum ESPRESSO) would scale inversely at large rank counts.\n");
}

fn bench_ablations(c: &mut Criterion) {
    regenerate();
    let mut group = c.benchmark_group("ablations");
    group.bench_function("juqcs_congestion_sweep", |b| {
        b.iter(|| juqcs_comm_efficiency(&SWEEP, true).len())
    });
    group.bench_function("alltoall_pair", |b| {
        b.iter(|| alltoall_algorithms(128, 4096))
    });
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
