//! The Quantum ESPRESSO benchmark definition: Car-Parrinello MD for the
//! ZrO₂ slab with 792 atoms (MaX project use case).

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::C64;

use crate::dist_fft::DistFft;
use crate::planewave::PlaneWaveSolver;

/// The MaX ZrO₂ benchmark case: a slab of 792 atoms.
pub const ATOMS: u32 = 792;
/// Electronic bands (≈ 4 valence electrons per atom / 2).
pub const BANDS: u32 = 1584;
/// FFT grid of the paper-scale workload.
pub const FFT_GRID: usize = 512;
/// Car-Parrinello MD steps.
const CP_STEPS: u32 = 50;

pub struct QuantumEspresso;

impl QuantumEspresso {
    fn model(machine: Machine) -> AppModel {
        let devices = machine.devices() as f64;
        let grid_points = (FFT_GRID as f64).powi(3);
        let points_per_gpu = grid_points / devices;
        // Per CP step: one H application per band = 2 × 3D FFT per band
        // (memory-bound: 5·n·log n flops, 16 B in+out per point per pass)
        // plus the Gram-Schmidt/subspace GEMM (compute-bound).
        let bands = BANDS as f64;
        let fft_flops = bands * 2.0 * 5.0 * points_per_gpu * (grid_points.log2());
        let fft_bytes = bands * 2.0 * 3.0 * 16.0 * points_per_gpu;
        let ortho_flops = bands * bands * points_per_gpu * 2.0 / devices.max(1.0);
        // FFT transpose: each rank exchanges its slab once per FFT pass.
        let transpose_bytes_per_pair =
            (bands * 2.0 * 16.0 * points_per_gpu / devices).max(64.0) as u64;
        AppModel::new(machine, CP_STEPS)
            .with_efficiencies(0.6, 0.85)
            .with_phase(Phase::compute(
                "fft kernel",
                Work::new(fft_flops, fft_bytes),
            ))
            .with_phase(Phase::compute(
                "subspace gemm",
                Work::new(ortho_flops, 16.0 * bands * points_per_gpu / devices),
            ))
            .with_phase(Phase::comm(
                "fft transpose",
                CommPattern::AllToAll {
                    bytes_per_pair: transpose_bytes_per_pair,
                },
            ))
            .with_phase(Phase::comm(
                "band reductions",
                CommPattern::AllReduce { bytes: 8 * 64 },
            ))
    }
}

impl Benchmark for QuantumEspresso {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::QuantumEspresso.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        // Real execution 1: the distributed FFT (QE's hot kernel) on real
        // data — round trip must be exact.
        let fft_results = real_world(layout).run(|comm| {
            let plan = DistFft::new(comm, 16);
            let mut slab: Vec<C64> = (0..plan.slab_len())
                .map(|i| C64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
                .collect();
            let original = slab.clone();
            plan.forward(comm, &mut slab).unwrap();
            plan.inverse(comm, &mut slab).unwrap();
            slab.iter()
                .zip(&original)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max)
        });
        let fft_err = fft_results.iter().map(|r| r.value).fold(0.0, f64::max);

        // Real execution 2: the plane-wave minimizer against the exactly
        // known free-particle ground state.
        let n = 8;
        let mut solver = PlaneWaveSolver::new(n, 2, vec![0.0; n * n * n], layout.seed);
        let e_first = solver.iterate(0.1);
        let mut e_last = e_first;
        for _ in 0..400 {
            e_last = solver.iterate(0.1);
        }
        let ground = solver.energies()[0];

        let verification = if fft_err > 1e-10 {
            VerificationOutcome::Failed {
                detail: format!("distributed FFT round-trip error {fft_err}"),
            }
        } else {
            // Free-particle ground state is exactly 0.
            VerificationOutcome::tolerance(ground.abs(), 1e-3)
        };
        Ok(RealTrack {
            verification,
            metrics: vec![
                ("fft_round_trip_error".into(), fft_err),
                ("ground_state_energy".into(), ground),
                ("cp_energy_drop".into(), e_first - e_last),
            ],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        let mut metrics = vec![
            ("atoms".into(), ATOMS as f64),
            ("bands".into(), BANDS as f64),
        ];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zro2_case_runs_on_8_nodes() {
        let out = QuantumEspresso.run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert_eq!(out.metric("atoms"), Some(792.0));
        assert!(out.metric("cp_energy_drop").unwrap() >= 0.0);
    }

    #[test]
    fn fft_is_memory_bound_on_one_gpu() {
        // "usually a memory-bound kernel" — per the roofline of the A100.
        use jubench_cluster::{GpuSpec, Roofline};
        let grid_points = (FFT_GRID as f64).powi(3);
        let fft = Work::new(
            5.0 * grid_points * grid_points.log2(),
            3.0 * 16.0 * grid_points,
        );
        let a100 = Roofline::new(GpuSpec::a100_40gb());
        assert!(a100.memory_bound(fft));
    }

    #[test]
    fn communication_bound_at_large_scale() {
        // "communication-bound for large systems": the transpose share of
        // the step time grows with the partition.
        let frac = |nodes: u32| {
            let t = QuantumEspresso::model(Machine::juwels_booster().partition(nodes)).timing();
            t.exposed_comm_s / t.total_s
        };
        assert!(
            frac(64) > frac(8),
            "comm fraction: 8n={}, 64n={}",
            frac(8),
            frac(64)
        );
    }

    #[test]
    fn strong_scaling_around_the_reference() {
        let t4 = QuantumEspresso.run(&RunConfig::test(4)).unwrap();
        let t8 = QuantumEspresso.run(&RunConfig::test(8)).unwrap();
        let t16 = QuantumEspresso.run(&RunConfig::test(16)).unwrap();
        assert!(t4.virtual_time_s > t8.virtual_time_s);
        assert!(t8.virtual_time_s > t16.virtual_time_s);
    }

    #[test]
    fn meta_is_qe() {
        assert_eq!(QuantumEspresso.meta().id, BenchmarkId::QuantumEspresso);
    }
}
