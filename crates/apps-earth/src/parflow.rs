//! The ParFlow benchmark: multigrid-preconditioned CG on the ClayL
//! problem (infiltration into clay soil, 1008 × 1008 × 240 cells).

use jubench_apps_common::{layout_serial, outcome, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::multigrid::{apply_neg_laplacian, relative_residual};
use jubench_kernels::{poisson_vcycle, rank_rng};

/// The ClayL problem dimensions.
pub const CLAYL_CELLS: [u64; 3] = [1008, 1008, 240];
/// Linearized Richards solves per benchmark run (time steps).
const SOLVES: u32 = 100;
/// PCG iterations per solve (multigrid-preconditioned CG converges fast).
const PCG_ITERS: u32 = 15;

/// V-cycle-preconditioned conjugate gradient on −Δx = b (the solver
/// structure of ParFlow's Hypre-backed Krylov method). Returns
/// (solution, iterations, relative residual).
pub fn pcg_poisson(n: usize, b: &[f64], tol: f64, max_iters: usize) -> (Vec<f64>, usize, f64) {
    let len = n * n * n;
    assert_eq!(b.len(), len);
    let dot = |a: &[f64], c: &[f64]| -> f64 { a.iter().zip(c).map(|(x, y)| x * y).sum() };
    let precond = |r: &[f64]| -> Vec<f64> {
        let mut z = vec![0.0; len];
        poisson_vcycle(n, &mut z, r);
        z
    };
    let mut x = vec![0.0; len];
    let mut r = b.to_vec();
    let norm_b = dot(b, b).sqrt();
    if norm_b == 0.0 {
        return (x, 0, 0.0);
    }
    let mut z = precond(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; len];
    let mut iters = 0;
    while iters < max_iters && dot(&r, &r).sqrt() / norm_b > tol {
        apply_neg_laplacian(n, &p, &mut ap);
        let alpha = rz / dot(&p, &ap);
        for i in 0..len {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        z = precond(&r);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        for i in 0..len {
            p[i] = z[i] + beta * p[i];
        }
        rz = rz_new;
        iters += 1;
    }
    let resid = relative_residual(n, &x, b);
    (x, iters, resid)
}

pub struct ParFlow;

impl ParFlow {
    fn model(machine: Machine) -> AppModel {
        let cells: f64 = CLAYL_CELLS.iter().map(|&c| c as f64).product();
        let devices = machine.devices() as f64;
        let cells_per_gpu = cells / devices;
        // Per PCG iteration: one 7-point operator + one V-cycle ≈ 2.5
        // operator-equivalents; ~20 FLOP, 90 B per cell each.
        let per_iter = Work::new(2.5 * 20.0 * cells_per_gpu, 2.5 * 90.0 * cells_per_gpu);
        let rank_dims = balanced_dims3(machine.devices());
        let face = (cells_per_gpu.powf(2.0 / 3.0) * 8.0) as u64;
        AppModel::new(machine, SOLVES * PCG_ITERS)
            .with_efficiencies(0.3, 0.8)
            .with_phase(Phase::compute("operator + v-cycle", per_iter))
            .with_phase(Phase::comm(
                "halo",
                CommPattern::Halo3d {
                    rank_dims,
                    bytes_per_face: [face; 3],
                },
            ))
            .with_phase(Phase::comm(
                "pcg dots",
                CommPattern::AllReduce { bytes: 16 },
            ))
    }
}

impl Benchmark for ParFlow {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::ParFlow.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// One PCG solve on a reduced ClayL-like box, verified by the
    /// residual norm.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let n = 16;
        let mut rng = rank_rng(layout.seed, 0);
        let b: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (_, iters, resid) = pcg_poisson(n, &b, 1e-8, 60);
        Ok(RealTrack {
            verification: VerificationOutcome::tolerance(resid, 1e-6),
            metrics: vec![
                ("pcg_iterations".into(), iters as f64),
                ("pcg_residual".into(), resid),
            ],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        let mut metrics = vec![(
            "cells".into(),
            CLAYL_CELLS.iter().map(|&c| c as f64).product(),
        )];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_kernels::cg::{cg_solve, LinOp};

    struct Lap(usize);
    impl LinOp for Lap {
        fn len(&self) -> usize {
            self.0 * self.0 * self.0
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            apply_neg_laplacian(self.0, x, y);
        }
    }

    #[test]
    fn pcg_converges() {
        let n = 16;
        let mut rng = rank_rng(1, 0);
        let b: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (_, iters, resid) = pcg_poisson(n, &b, 1e-8, 100);
        assert!(resid < 1e-6, "residual {resid}");
        assert!(iters < 60);
    }

    #[test]
    fn multigrid_preconditioning_beats_plain_cg() {
        // The point of ParFlow's solver: the V-cycle preconditioner cuts
        // the iteration count substantially.
        let n = 16;
        let mut rng = rank_rng(2, 0);
        let b: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (_, pcg_iters, _) = pcg_poisson(n, &b, 1e-8, 500);
        let mut x = vec![0.0; b.len()];
        let plain = cg_solve(&Lap(n), &b, &mut x, 1e-8, 500);
        assert!(
            pcg_iters * 2 < plain.iterations,
            "PCG {pcg_iters} vs plain CG {}",
            plain.iterations
        );
    }

    #[test]
    fn clayl_dimensions_match_paper() {
        assert_eq!(CLAYL_CELLS, [1008, 1008, 240]);
        let total: u64 = CLAYL_CELLS.iter().product();
        assert_eq!(total, 243_855_360);
    }

    #[test]
    fn run_on_4_reference_nodes() {
        let out = ParFlow.run(&RunConfig::test(4)).unwrap();
        assert!(out.verification.passed());
        assert!(out.metric("pcg_residual").unwrap() < 1e-6);
    }

    #[test]
    fn parflow_was_not_used_in_procurement() {
        assert!(!ParFlow.meta().used_in_procurement);
    }

    #[test]
    fn strong_scaling_around_reference() {
        let t2 = ParFlow.run(&RunConfig::test(2)).unwrap();
        let t4 = ParFlow.run(&RunConfig::test(4)).unwrap();
        let t8 = ParFlow.run(&RunConfig::test(8)).unwrap();
        assert!(t2.virtual_time_s > t4.virtual_time_s);
        assert!(t4.virtual_time_s > t8.virtual_time_s);
    }
}
