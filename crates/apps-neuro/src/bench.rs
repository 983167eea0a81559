//! The Arbor benchmark: T/S/M/L memory variants filling the GPU, weak
//! scaling to the full Booster, the 52 % / 33 % cost-center profile, and
//! spike-count validation.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, MemoryVariant, RealLayout, RealTrack, RunConfig,
    RunOutcome, SuiteError, VerificationOutcome,
};

use crate::network::{RingConfig, RingNetwork};

/// Compartments per cell ("a complex cell from the Allen Institute [...]
/// adapted to random morphologies of fixed depth").
const COMPARTMENTS_PER_CELL: f64 = 1.0e4;
/// Per-compartment state: voltage, 3 gating variables, currents, and the
/// tridiagonal matrix rows — ≈ 160 bytes.
const BYTES_PER_COMPARTMENT: f64 = 160.0;
/// Modeled time steps of the benchmark workload.
const STEPS: u32 = 20_000;
/// Exchange epochs (min-delay windows) within those steps.
const EPOCHS: u32 = 100;

/// FLOPs per compartment-update, split by the paper's profiled cost
/// centers: "52 % ion channels and 33 % cable equation" (the remainder is
/// threshold handling, event delivery, and current collection).
const FLOPS_CHANNELS: f64 = 416.0; // 52 %
const FLOPS_CABLE: f64 = 264.0; // 33 %
const FLOPS_OTHER: f64 = 120.0; // 15 %

pub struct Arbor;

impl Arbor {
    /// Cells per GPU for a memory variant: the benchmark "is parameterized
    /// to fill the GPU memory in the variants T, S, M, L".
    pub fn cells_per_gpu(variant: MemoryVariant, gpu_memory_bytes: u64) -> u64 {
        let budget = variant.memory_fraction() * gpu_memory_bytes as f64;
        (budget / (COMPARTMENTS_PER_CELL * BYTES_PER_COMPARTMENT)) as u64
    }

    /// The Base workload's fixed total cell count: sized to fill half the
    /// device memory on the 8-node reference partition (whatever the
    /// backend's device count per node), so that the Fig. 2
    /// strong-scaling points (4…16 nodes) all fit in device memory.
    pub fn base_total_cells(gpu_memory_bytes: u64, devices_per_node: u32) -> u64 {
        Self::cells_per_gpu(MemoryVariant::Small, gpu_memory_bytes) * 8 * devices_per_node as u64
    }

    fn model(machine: Machine, cells_per_gpu: f64) -> AppModel {
        let cells = cells_per_gpu;
        let comp_updates = cells * COMPARTMENTS_PER_CELL;
        let bytes_touched = comp_updates * BYTES_PER_COMPARTMENT;
        // Spike traffic per epoch: roughly one spike per ring per epoch;
        // with rings of 4 complex cells, cells/4 ring memberships per rank.
        let spikes_per_rank = (cells / 4.0).max(1.0);
        let spike_bytes = (spikes_per_rank * 16.0) as u64;
        let steps_per_epoch = (STEPS / EPOCHS) as f64;
        AppModel::new(machine, EPOCHS)
            // Weighted heavily towards computation; channel kernels are
            // exp-bound, cable solves memory-bound.
            .with_efficiencies(0.45, 0.7)
            .with_phase(Phase::compute(
                "ion channels",
                Work::new(
                    FLOPS_CHANNELS * comp_updates * steps_per_epoch,
                    0.4 * bytes_touched * steps_per_epoch,
                ),
            ))
            .with_phase(Phase::compute(
                "cable equation",
                Work::new(
                    FLOPS_CABLE * comp_updates * steps_per_epoch,
                    0.4 * bytes_touched * steps_per_epoch,
                ),
            ))
            .with_phase(Phase::compute(
                "other",
                Work::new(
                    FLOPS_OTHER * comp_updates * steps_per_epoch,
                    0.2 * bytes_touched * steps_per_epoch,
                ),
            ))
            .with_phase(Phase::comm(
                "spike exchange",
                CommPattern::AllGather {
                    bytes_per_rank: spike_bytes,
                },
            ))
            // "Communication is performed concurrently with time
            // evolution [...] hiding communication completely."
            .with_overlap(1.0)
    }

    /// Cells per GPU of `cfg`'s workload. Base: a fixed total network
    /// strong-scales over the partition. High-Scaling variants: the
    /// workload "is parameterized to fill the GPU memory" — weak scaling
    /// with the partition.
    fn workload_cells_per_gpu(cfg: &RunConfig) -> f64 {
        let machine = cfg.machine();
        let gpu_mem = machine.node.gpu.memory_bytes;
        match cfg.variant {
            None => {
                Self::base_total_cells(gpu_mem, machine.node.gpus_per_node) as f64
                    / machine.devices() as f64
            }
            Some(v) => Self::cells_per_gpu(v, gpu_mem) as f64,
        }
    }
}

impl Benchmark for Arbor {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Arbor.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        let gpu_mem = cfg.machine().node.gpu.memory_bytes;
        let per_gpu_bytes =
            Self::workload_cells_per_gpu(cfg) * COMPARTMENTS_PER_CELL * BYTES_PER_COMPARTMENT;
        if per_gpu_bytes > gpu_mem as f64 {
            return Err(SuiteError::OutOfMemory {
                benchmark: "Arbor",
                required_bytes: per_gpu_bytes as u64,
                available_bytes: gpu_mem,
            });
        }
        Ok(layout_per_gpu(cfg))
    }

    /// A small ring network with an exact spike count.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let world = real_world(layout);
        let ranks = world.ranks();
        let epochs = 3u64;
        let results = world.run(|comm| {
            let cfg = RingConfig {
                cells: 4 * ranks, // one cell per rank per ring, 4 rings
                ring_size: ranks,
                ..RingConfig::test_scale()
            };
            let mut net = RingNetwork::build(comm, cfg);
            let mut total = 0u64;
            for _ in 0..epochs {
                total += net.epoch(comm).unwrap();
            }
            (total, net.local_spikes)
        });
        // "The number of generated spikes is used for validation": each of
        // the 4 rings propagates exactly one spike per epoch.
        let expected = 4 * epochs;
        let mut verification = VerificationOutcome::Exact {
            checked_values: results.len(),
        };
        let mut generated = 0u64;
        for r in &results {
            generated += r.value.1;
            if r.value.0 != expected {
                verification = VerificationOutcome::Failed {
                    detail: format!(
                        "rank {} observed {} spikes, expected {expected}",
                        r.rank, r.value.0
                    ),
                };
            }
        }
        Ok(RealTrack {
            verification,
            metrics: vec![("real_exec_spikes".into(), generated as f64)],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let cells_per_gpu = Self::workload_cells_per_gpu(cfg);
        let timing = Self::model(machine, cells_per_gpu).timing();
        let cells_total = (cells_per_gpu * machine.devices() as f64) as u64;
        let mut metrics = vec![("cells".into(), cells_total as f64)];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_apps_common::ModelTiming;

    fn booster(n: u32) -> Machine {
        Machine::juwels_booster().partition(n)
    }

    /// Weak-scaling (variant-sized) model timing.
    fn timing(nodes: u32, variant: MemoryVariant) -> ModelTiming {
        let m = booster(nodes);
        Arbor::model(
            m,
            Arbor::cells_per_gpu(variant, m.node.gpu.memory_bytes) as f64,
        )
        .timing()
    }

    /// Base (fixed-total) model timing.
    fn base_timing(nodes: u32) -> ModelTiming {
        let m = booster(nodes);
        let per_gpu = Arbor::base_total_cells(m.node.gpu.memory_bytes, m.node.gpus_per_node) as f64
            / m.devices() as f64;
        Arbor::model(m, per_gpu).timing()
    }

    #[test]
    fn base_run_verifies_spike_count() {
        let out = Arbor.run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert_eq!(out.metric("real_exec_spikes"), Some(12.0)); // 4 rings × 3 epochs
    }

    #[test]
    fn reference_runtime_near_498_seconds() {
        // Fig. 2: Arbor reference execution on 8 nodes took 498 s. The
        // calibrated model must land in the right ballpark (±35 %).
        let t = base_timing(8).total_s;
        assert!((330.0..=670.0).contains(&t), "model predicts {t} s");
    }

    #[test]
    fn strong_scaling_shape_matches_fig2() {
        // Fig. 2 caption data: 4 nodes → 663 s, 8 → 498 s, 12 → 332 s,
        // 16 → 250 s — runtime falls monotonically with the node count.
        let series: Vec<f64> = [4, 8, 12, 16].map(base_timing).map(|t| t.total_s).into();
        assert!(series.windows(2).all(|w| w[1] < w[0]), "{series:?}");
        // Halving/doubling around the reference changes runtime by
        // roughly the right factors.
        assert!(
            series[0] / series[1] > 1.3,
            "4→8 nodes speedup {}",
            series[0] / series[1]
        );
        assert!(
            series[1] / series[3] > 1.5,
            "8→16 nodes speedup {}",
            series[1] / series[3]
        );
    }

    #[test]
    fn cost_profile_is_52_33() {
        // §IV-A2a: "Profiling shows two cost centers: 52 % ion channels
        // and 33 % cable equation."
        let m = booster(8);
        let model = Arbor::model(
            m,
            Arbor::cells_per_gpu(MemoryVariant::Large, m.node.gpu.memory_bytes) as f64,
        );
        let prof = model.phase_profile();
        let total: f64 = prof.iter().map(|p| p.1).sum();
        let channels = prof.iter().find(|p| p.0 == "ion channels").unwrap().1 / total;
        let cable = prof.iter().find(|p| p.0 == "cable equation").unwrap().1 / total;
        assert!((channels - 0.52).abs() < 0.03, "channels {channels}");
        assert!((cable - 0.33).abs() < 0.03, "cable {cable}");
    }

    #[test]
    fn communication_is_hidden() {
        // Weak scaling to the full machine: exposed communication stays
        // zero (fully overlapped) — Arbor's Fig. 3 line stays near 1.
        for nodes in [1, 8, 64, 642] {
            let t = timing(nodes, MemoryVariant::Large);
            assert_eq!(t.exposed_comm_s, 0.0, "{nodes} nodes");
            assert!(t.comm_s > 0.0);
        }
    }

    #[test]
    fn weak_scaling_efficiency_stays_high() {
        let t1 = timing(1, MemoryVariant::Large).total_s;
        let t642 = timing(642, MemoryVariant::Large).total_s;
        let eff = t1 / t642;
        assert!(eff > 0.95, "Arbor weak-scaling efficiency {eff}");
    }

    #[test]
    fn memory_variants_scale_cell_counts() {
        let gpu = 40 * (1u64 << 30);
        let l = Arbor::cells_per_gpu(MemoryVariant::Large, gpu);
        let t = Arbor::cells_per_gpu(MemoryVariant::Tiny, gpu);
        assert_eq!(t, l / 4);
        assert!(l > 20_000, "a 40 GB GPU holds {l} complex cells");
    }

    #[test]
    fn variant_changes_runtime_proportionally() {
        let tl = timing(8, MemoryVariant::Large).total_s;
        let tt = timing(8, MemoryVariant::Tiny).total_s;
        let ratio = tl / tt;
        assert!((3.0..5.0).contains(&ratio), "L/T runtime ratio {ratio}");
    }

    #[test]
    fn meta_is_arbor_high_scaling() {
        let m = Arbor.meta();
        assert_eq!(m.id, BenchmarkId::Arbor);
        assert_eq!(m.high_scale.unwrap().nodes, 642);
    }
}
