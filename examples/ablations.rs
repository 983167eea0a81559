//! Ablation studies of the performance-model design choices (see
//! `jubench::scaling::ablations`): the JUQCS congestion regime, the
//! overlap factor, and the per-size all-to-all algorithm choice.
//!
//! Run with: `cargo run --release --example ablations`

use jubench::scaling::{alltoall_algorithms, juqcs_comm_efficiency, overlap_ablation};

const SWEEP: [u32; 8] = [2, 4, 8, 32, 64, 128, 256, 512];

fn banner(title: &str) {
    println!("\n================================================================");
    println!("  {title}");
    println!("================================================================\n");
}

fn main() {
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
