//! The nekRS benchmark definition: the Rayleigh-Bénard sheet at polynomial
//! order 9 with 600 time steps, Base and High-Scaling element counts, and
//! the strong-scaling limit of 7000–8000 elements per GPU.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, MemoryVariant, RealLayout, RealTrack, RunConfig,
    RunOutcome, SuiteError, VerificationOutcome,
};

use crate::solver::SemPoisson;

/// Polynomial order of the benchmark case.
pub(crate) const ORDER: usize = 9;
/// Time steps per run.
pub(crate) const TIME_STEPS: u32 = 600;
/// Base case: 719,104 elements → 22,472 per GPU on 8 nodes (32 GPUs).
pub(crate) const BASE_ELEMENTS: u64 = 719_104;
/// High-Scaling small: 28,836,900 elements (~11,229 per GPU on 642 nodes).
pub(crate) const HS_SMALL_ELEMENTS: u64 = 28_836_900;
/// High-Scaling large: 57,760,000 elements (~22,492 per GPU).
pub(crate) const HS_LARGE_ELEMENTS: u64 = 57_760_000;
/// Devices of the 642-node High-Scaling partition the HS counts are
/// defined for.
const HS_DEVICES: f64 = 642.0 * 4.0;
/// "the 'strong scaling limit' of 7000-8000 elements per GPU".
pub(crate) const STRONG_SCALING_LIMIT_PER_GPU: f64 = 7500.0;

/// Pressure-solve CG iterations per time step (the dominant cost).
const CG_ITERS_PER_STEP: u32 = 30;

pub struct NekRs;

impl NekRs {
    /// Elements of the configured workload on a partition with `devices`
    /// GPUs. The Base case is a fixed problem (strong scaling); the
    /// High-Scaling variants keep the per-GPU element count of the
    /// 642-node definition (weak scaling), hitting the paper's totals
    /// exactly at 642 nodes.
    pub fn elements(variant: Option<MemoryVariant>, devices: u32) -> u64 {
        match variant {
            None => BASE_ELEMENTS,
            Some(MemoryVariant::Large) => {
                (HS_LARGE_ELEMENTS as f64 / HS_DEVICES * devices as f64).round() as u64
            }
            // The benchmark offers small and large; treat T/M as small.
            Some(_) => (HS_SMALL_ELEMENTS as f64 / HS_DEVICES * devices as f64).round() as u64,
        }
    }

    fn model(machine: Machine, elements: u64) -> AppModel {
        let devices = machine.devices() as f64;
        let e_per_gpu = elements as f64 / devices;
        let m = (ORDER + 1) as f64;
        let nodes_per_el = m * m * m;
        // Sum-factorized stiffness: ~12·N⁴-ish work ⇒ 6 tensor contractions
        // of m⁴ each, ~2 flops per entry, plus pointwise scaling.
        let flops_per_el = 12.0 * m * m * m * m + 10.0 * nodes_per_el;
        let bytes_per_el = 5.0 * nodes_per_el * 8.0;
        let per_apply = Work::new(flops_per_el * e_per_gpu, bytes_per_el * e_per_gpu);
        // Gather-scatter: surface nodes of the per-rank partition move.
        let rank_dims = balanced_dims3(machine.devices());
        let local_el = balanced_dims3((e_per_gpu.max(1.0)) as u32);
        let face_nodes = |a: u32, b: u32| (a as f64 * b as f64 * m * m).max(1.0);
        let fx = face_nodes(local_el[1], local_el[2]);
        let fy = face_nodes(local_el[0], local_el[2]);
        let fz = face_nodes(local_el[0], local_el[1]);
        let gather_scatter = CommPattern::Halo3d {
            rank_dims,
            bytes_per_face: [(fx * 8.0) as u64, (fy * 8.0) as u64, (fz * 8.0) as u64],
        };
        // Per time step: CG_ITERS_PER_STEP applications + dots.
        let iters = TIME_STEPS * CG_ITERS_PER_STEP;
        AppModel::new(machine, iters)
            .with_efficiencies(0.6, 0.8)
            .with_phase(Phase::compute("sem operator", per_apply))
            .with_phase(Phase::comm("gather-scatter", gather_scatter))
            .with_phase(Phase::comm(
                "cg reductions",
                CommPattern::AllReduce { bytes: 16 },
            ))
            .with_overlap(0.3)
    }
}

impl Benchmark for NekRs {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::NekRs.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    /// A small manufactured-solution SEM solve — the "key metrics
    /// extracted from the computed solution for comparison to a model"
    /// class of verification.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let world = real_world(layout);
        let ranks = world.ranks() as usize;
        // Polynomial order of the real solve grows with the scale (the
        // benchmark case itself uses order 9).
        let order = jubench_apps_common::scale_steps(layout.scale, 5, 7, 9) as usize;
        let results = world.run(move |comm| {
            let sp = SemPoisson::new(comm, order, ranks.max(4), 2, 2);
            sp.manufactured_solution_error(comm, 1e-10, 500).unwrap()
        });
        let (err, iters, resid) = results[0].value;
        Ok(RealTrack {
            verification: VerificationOutcome::key_metrics(
                vec![("max_nodal_error_plus_one".into(), 1.0 + err, 1.0)],
                1e-2,
            ),
            metrics: vec![
                ("real_exec_cg_iterations".into(), iters as f64),
                ("real_exec_residual".into(), resid),
            ],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let elements = Self::elements(cfg.variant, machine.devices());
        let e_per_gpu = elements as f64 / machine.devices() as f64;
        let timing = Self::model(machine, elements).timing();
        let mut metrics = vec![
            ("elements".into(), elements as f64),
            ("elements_per_gpu".into(), e_per_gpu),
        ];
        metrics.extend(track.metrics.iter().cloned());
        metrics.push((
            "above_strong_scaling_limit".into(),
            f64::from(e_per_gpu >= STRONG_SCALING_LIMIT_PER_GPU),
        ));
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_case_matches_paper_arithmetic() {
        // 719,104 elements over 8 nodes × 4 GPUs = 22,472 per GPU.
        let out = NekRs.run(&RunConfig::test(8)).unwrap();
        assert_eq!(out.metric("elements"), Some(719_104.0));
        assert_eq!(out.metric("elements_per_gpu"), Some(22_472.0));
        assert!(out.verification.passed());
    }

    #[test]
    fn high_scaling_element_counts() {
        let s = NekRs
            .run(&RunConfig::test(642).with_variant(MemoryVariant::Small))
            .unwrap();
        // ~11,229 elements per GPU on the 642-node partition.
        let per_gpu = s.metric("elements_per_gpu").unwrap();
        assert!((per_gpu - 11_229.0).abs() < 1.0, "got {per_gpu}");
        assert_eq!(s.metric("elements"), Some(HS_SMALL_ELEMENTS as f64));
        let l = NekRs
            .run(&RunConfig::test(642).with_variant(MemoryVariant::Large))
            .unwrap();
        let per_gpu_l = l.metric("elements_per_gpu").unwrap();
        assert!((per_gpu_l - 22_492.0).abs() < 1.0, "got {per_gpu_l}");
    }

    #[test]
    fn workloads_stay_above_strong_scaling_limit() {
        for (nodes, variant) in [
            (8, None),
            (642, Some(MemoryVariant::Small)),
            (642, Some(MemoryVariant::Large)),
        ] {
            let mut cfg = RunConfig::test(nodes);
            cfg.variant = variant;
            let out = NekRs.run(&cfg).unwrap();
            assert_eq!(out.metric("above_strong_scaling_limit"), Some(1.0));
        }
    }

    #[test]
    fn weak_scaling_efficiency_reasonable() {
        // Fig. 3: nekRS maintains good weak-scaling efficiency. Compare
        // per-element throughput at 8 vs 512 nodes with proportionally
        // more elements (the HS workloads are sized for 642 nodes; use the
        // large HS case at two scales of fixed elements-per-GPU).
        let t_small_machine = NekRs::model(
            Machine::juwels_booster().partition(8),
            (22_492.0 * 32.0) as u64,
        )
        .timing();
        let t_large_machine = NekRs::model(
            Machine::juwels_booster().partition(512),
            (22_492.0 * 2048.0) as u64,
        )
        .timing();
        let eff = t_small_machine.total_s / t_large_machine.total_s;
        assert!(eff > 0.5 && eff <= 1.01, "efficiency {eff}");
    }

    #[test]
    fn strong_scaling_loses_efficiency_below_limit() {
        // Fixed Base problem on more nodes: below 7-8k elements/GPU the
        // speedup saturates (the strong-scaling limit).
        let t8 = NekRs::model(Machine::juwels_booster().partition(8), BASE_ELEMENTS).timing();
        let t32 = NekRs::model(Machine::juwels_booster().partition(32), BASE_ELEMENTS).timing();
        let t128 = NekRs::model(Machine::juwels_booster().partition(128), BASE_ELEMENTS).timing();
        let speedup_8_32 = t8.total_s / t32.total_s;
        let speedup_32_128 = t32.total_s / t128.total_s;
        assert!(
            speedup_8_32 > 2.0,
            "early strong scaling healthy: {speedup_8_32}"
        );
        assert!(
            speedup_32_128 < speedup_8_32,
            "efficiency declines beyond the strong-scaling limit: {speedup_32_128} vs {speedup_8_32}"
        );
    }

    #[test]
    fn meta_is_nekrs() {
        let m = NekRs.meta();
        assert_eq!(m.id, BenchmarkId::NekRs);
        assert_eq!(m.high_scale.unwrap().nodes, 642);
    }
}
