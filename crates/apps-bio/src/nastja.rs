//! The NAStJA benchmark definition.

use jubench_apps_common::{layout_per_node, outcome, real_world, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::ReduceOp;

use crate::potts::PottsBlock;

/// The benchmark investigates "the first 5050 Monte Carlo steps of a
/// system of size 720 × 720 × 1152 µm³, containing roughly 600,000 cells".
pub(crate) const MC_STEPS: u32 = 5050;
pub const CELLS: u64 = 600_000;
/// Lattice sites per µm³ at subcellular resolution (1 site/µm³).
const SITES: f64 = (720 * 720 * 1152) as f64;

pub struct Nastja;

impl Nastja {
    fn model(machine: Machine) -> AppModel {
        // CPU-only: one MPI block per node.
        let nodes = machine.nodes as f64;
        let sites_per_node = SITES / nodes;
        // Per MC step: one attempt per site; ~40 FLOP and ~120 B of
        // scattered access each ("an irregular memory access pattern at
        // each iteration, which is not suitable for GPU execution" — the
        // low flop efficiency reflects that).
        let work = Work::new(40.0 * sites_per_node, 120.0 * sites_per_node);
        let rank_dims = balanced_dims3(machine.nodes);
        let face = (sites_per_node.powf(2.0 / 3.0) * 4.0) as u64;
        AppModel::per_node(machine, MC_STEPS)
            .with_efficiencies(0.1, 0.35)
            .with_phase(Phase::compute("potts sweep", work))
            .with_phase(Phase::comm(
                "boundary exchange",
                CommPattern::Halo3d {
                    rank_dims,
                    bytes_per_face: [face; 3],
                },
            ))
    }
}

impl Benchmark for Nastja {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Nastja.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_node(cfg))
    }

    /// Distributed cell sorting; verification by cell statistics (site
    /// conservation, energy descent).
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let world = real_world(layout);
        let ranks = world.ranks() as usize;
        let seed = layout.seed;
        let cold_sweeps = jubench_apps_common::scale_steps(layout.scale, 10, 40, 100);
        let results = world.run(move |comm| {
            let nx = 4 * ranks; // equal slabs of 4 planes
            let mut block = PottsBlock::cell_sorting(comm, [nx, 8, 8], 4, seed);
            let sites0: u64 = block.volumes().values().sum();
            // Hot phase roughens the tissue, the cold phase must relax it
            // (at T → 0 the Metropolis rule only accepts ΔE ≤ 0).
            block.temperature = 50.0;
            let mut accepted = 0;
            for _ in 0..5 {
                accepted += block.sweep(comm).unwrap();
            }
            let e0 = comm
                .allreduce_scalar(block.local_energy(), ReduceOp::Sum)
                .unwrap();
            block.temperature = 0.01;
            for _ in 0..cold_sweeps {
                accepted += block.sweep(comm).unwrap();
            }
            let e1 = comm
                .allreduce_scalar(block.local_energy(), ReduceOp::Sum)
                .unwrap();
            let sites1: u64 = block.volumes().values().sum();
            let composition = block.global_type_volumes(comm).unwrap();
            (sites0, sites1, e0, e1, accepted, composition)
        });
        let (s0, s1, e0, e1, accepted, composition) = results[0].value;
        let verification = if s0 != s1 {
            VerificationOutcome::Failed {
                detail: format!("lattice sites changed: {s0} → {s1}"),
            }
        } else if e1 >= e0 {
            VerificationOutcome::Failed {
                detail: format!("cold relaxation did not lower the energy: {e0} → {e1}"),
            }
        } else {
            VerificationOutcome::KeyMetrics {
                metrics: vec![
                    ("sites".into(), s1 as f64, s0 as f64),
                    ("energy_ratio".into(), e1 / e0, 1.0),
                ],
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![
                ("accepted_moves".into(), accepted as f64),
                ("type_a_volume".into(), composition[1]),
                ("type_b_volume".into(), composition[2]),
            ],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        let mut metrics = vec![
            ("mc_steps".into(), MC_STEPS as f64),
            ("cells".into(), CELLS as f64),
        ];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_verifies_cell_statistics() {
        let out = Nastja.run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert!(out.metric("accepted_moves").unwrap() > 0.0);
        assert_eq!(out.metric("mc_steps"), Some(5050.0));
    }

    #[test]
    fn workload_matches_paper() {
        assert_eq!(CELLS, 600_000);
        assert_eq!(MC_STEPS, 5050);
    }

    #[test]
    fn cpu_only_per_node_placement() {
        let m = Nastja.meta();
        assert!(m
            .targets
            .contains(&jubench_core::ExecutionTarget::ClusterCpu));
    }

    #[test]
    fn strong_scaling_is_good_for_nearest_neighbour_codes() {
        let t4 = Nastja.run(&RunConfig::test(4)).unwrap();
        let t8 = Nastja.run(&RunConfig::test(8)).unwrap();
        let t16 = Nastja.run(&RunConfig::test(16)).unwrap();
        let speedup = t8.virtual_time_s / t16.virtual_time_s;
        assert!(speedup > 1.7, "8→16 speedup {speedup}");
        assert!(t4.virtual_time_s > t8.virtual_time_s);
    }
}
