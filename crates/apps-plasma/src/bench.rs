//! The PIConGPU benchmark definition: KHI grids, 25 particles per cell,
//! the 640-node decomposition limit, and framework-inherent verification.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, MemoryVariant, RealLayout, RealTrack, RunConfig,
    RunOutcome, SuiteError, VerificationOutcome,
};
use jubench_simmpi::ReduceOp;

use crate::pic::PicSim;

/// "the number of particles per cell is kept constant to 25".
pub const PARTICLES_PER_CELL: u32 = 25;
/// "the maximum number of nodes that can be utilized is limited to 640,
/// rather than 642" (3D domain decomposition).
pub const MAX_NODES: u32 = 640;
/// Modeled time steps.
const STEPS: u32 = 200;

pub struct PiconGpu;

impl PiconGpu {
    /// The KHI grid for a memory variant: "A grid size of (4096, 2048,
    /// 1024) is chosen for the small memory variant, and extended to
    /// (4096, 2048, 2048) (M) and (4096, 4096, 2560) (L)".
    pub fn grid(variant: MemoryVariant) -> [u64; 3] {
        match variant {
            MemoryVariant::Tiny | MemoryVariant::Small => [4096, 2048, 1024],
            MemoryVariant::Medium => [4096, 2048, 2048],
            MemoryVariant::Large => [4096, 4096, 2560],
        }
    }

    /// Base case: a fixed small grid strong-scaled over 4 reference nodes.
    pub const BASE_GRID: [u64; 3] = [2048, 1024, 512];

    /// Cells of the configured workload on `devices` GPUs: the Base grid
    /// is a fixed problem; the High-Scaling grids are defined for the full
    /// 640-node partition with "as many cells as the GPU memory allows",
    /// i.e. a constant per-GPU share (weak scaling).
    pub fn cells(variant: Option<MemoryVariant>, devices: u32) -> f64 {
        match variant {
            None => Self::BASE_GRID.iter().map(|&g| g as f64).product(),
            Some(v) => {
                let total: f64 = Self::grid(v).iter().map(|&g| g as f64).product();
                total / (MAX_NODES as f64 * 4.0) * devices as f64
            }
        }
    }

    fn model(machine: Machine, cells: f64) -> AppModel {
        let devices = machine.devices() as f64;
        let cells_per_gpu = cells / devices;
        let particles_per_gpu = cells_per_gpu * PARTICLES_PER_CELL as f64;
        // Per step per particle: deposit (8 cells), interpolate, push —
        // ≈ 250 FLOP and ≈ 200 B of particle+field traffic; per cell:
        // field update ≈ 50 FLOP, 100 B.
        let work = Work::new(
            250.0 * particles_per_gpu + 50.0 * cells_per_gpu,
            200.0 * particles_per_gpu + 100.0 * cells_per_gpu,
        );
        // 3D domain decomposition: field halos + migrating particles.
        let rank_dims = balanced_dims3(machine.devices());
        let local_side = cells_per_gpu.cbrt();
        let local = [local_side, local_side, local_side];
        // Face sizes: field values (8 B/cell) + ~5 % migrating particles
        // of the face layer (56 B each).
        let face =
            |a: f64, b: f64| ((a * b) * (8.0 + 0.05 * PARTICLES_PER_CELL as f64 * 56.0)) as u64;
        let pattern = CommPattern::Halo3d {
            rank_dims,
            bytes_per_face: [
                face(local[1], local[2]),
                face(local[0], local[2]),
                face(local[0], local[1]),
            ],
        };
        AppModel::new(machine, STEPS)
            .with_efficiencies(0.35, 0.75)
            .with_phase(Phase::compute("pic cycle", work))
            .with_phase(Phase::comm("halo + migration", pattern))
            // PIConGPU's asynchronous data transfers overlap communication.
            .with_overlap(0.7)
    }
}

impl Benchmark for PiconGpu {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::PIConGpu.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes == 0 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "PIConGPU",
                nodes,
                reason: "node count must be positive".into(),
            });
        }
        if nodes > MAX_NODES {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "PIConGPU",
                nodes,
                reason: format!(
                    "the 3D domain decomposition limits the benchmark to {MAX_NODES} nodes"
                ),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    /// A small KHI run; framework-inherent verification requires the key
    /// data (charge conservation, particle count, field-energy history)
    /// in the output.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let seed = layout.seed;
        let pic_steps = jubench_apps_common::scale_steps(layout.scale, 4, 12, 40);
        let results = real_world(layout).run(move |comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [16, 8, 8], 5, 0.8, seed);
            let charge0 = comm
                .allreduce_scalar(sim.local_charge(), ReduceOp::Sum)
                .unwrap();
            let count0 = comm
                .allreduce_scalar(sim.particles.len() as f64, ReduceOp::Sum)
                .unwrap();
            let mut energy_history = Vec::new();
            for _ in 0..pic_steps {
                sim.step(comm, 5).unwrap();
                let e = comm
                    .allreduce_scalar(sim.local_field_energy(), ReduceOp::Sum)
                    .unwrap();
                energy_history.push(e);
            }
            let charge1 = comm
                .allreduce_scalar(sim.local_charge(), ReduceOp::Sum)
                .unwrap();
            let count1 = comm
                .allreduce_scalar(sim.particles.len() as f64, ReduceOp::Sum)
                .unwrap();
            (charge0, charge1, count0, count1, energy_history)
        });
        let (charge0, charge1, count0, count1, energy) = results[0].value.clone();
        let verification = if (charge0 - charge1).abs() > 1e-9 * charge0.abs()
            || count0 != count1
            || energy.iter().any(|e| !e.is_finite())
        {
            VerificationOutcome::Failed {
                detail: format!(
                    "conservation violated: charge {charge0}→{charge1}, count {count0}→{count1}"
                ),
            }
        } else {
            VerificationOutcome::FrameworkInherent {
                key_data: vec![
                    ("total_charge".into(), charge1),
                    ("particles".into(), count1),
                    ("final_field_energy".into(), *energy.last().unwrap()),
                ],
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![("real_exec_field_energy".into(), *energy.last().unwrap())],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let cells = Self::cells(cfg.variant, machine.devices());
        let timing = Self::model(machine, cells).timing();
        let mut metrics = vec![
            ("cells".into(), cells),
            ("particles".into(), cells * PARTICLES_PER_CELL as f64),
        ];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_run_passes_framework_verification() {
        let out = PiconGpu.run(&RunConfig::test(4)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(
            out.verification,
            VerificationOutcome::FrameworkInherent { .. }
        ));
    }

    #[test]
    fn node_limit_is_640() {
        assert!(PiconGpu.validate_nodes(640).is_ok());
        let err = PiconGpu.validate_nodes(642).unwrap_err();
        assert!(matches!(
            err,
            SuiteError::InvalidNodeCount { nodes: 642, .. }
        ));
    }

    #[test]
    fn grids_match_paper() {
        assert_eq!(PiconGpu::grid(MemoryVariant::Small), [4096, 2048, 1024]);
        assert_eq!(PiconGpu::grid(MemoryVariant::Medium), [4096, 2048, 2048]);
        assert_eq!(PiconGpu::grid(MemoryVariant::Large), [4096, 4096, 2560]);
    }

    #[test]
    fn particle_count_is_25_per_cell() {
        let out = PiconGpu
            .run(&RunConfig::test(640).with_variant(MemoryVariant::Small))
            .unwrap();
        let cells = out.metric("cells").unwrap();
        let particles = out.metric("particles").unwrap();
        assert_eq!(particles, cells * 25.0);
    }

    #[test]
    fn weak_scaling_shape() {
        // The per-GPU workload of a variant is constant across the sweep:
        // runtime stays nearly flat from 16 to 640 nodes.
        let t16 = PiconGpu
            .run(&RunConfig::test(16).with_variant(MemoryVariant::Small))
            .unwrap();
        let t640 = PiconGpu
            .run(&RunConfig::test(640).with_variant(MemoryVariant::Small))
            .unwrap();
        let eff = t16.virtual_time_s / t640.virtual_time_s;
        assert!((0.6..=1.01).contains(&eff), "weak-scaling efficiency {eff}");
    }

    #[test]
    fn strong_scaling_of_base_case() {
        let t2 = PiconGpu.run(&RunConfig::test(2)).unwrap();
        let t4 = PiconGpu.run(&RunConfig::test(4)).unwrap();
        let t8 = PiconGpu.run(&RunConfig::test(8)).unwrap();
        assert!(t2.virtual_time_s > t4.virtual_time_s);
        assert!(t4.virtual_time_s > t8.virtual_time_s);
        let speedup = t4.virtual_time_s / t8.virtual_time_s;
        assert!(speedup > 1.4, "4→8 node speedup {speedup}");
    }

    #[test]
    fn meta_is_picongpu() {
        let m = PiconGpu.meta();
        assert_eq!(m.id, BenchmarkId::PIConGpu);
        assert_eq!(m.high_scale.unwrap().nodes, 640);
    }
}
