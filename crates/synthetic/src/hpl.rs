//! HPL: the High-Performance Linpack — dense LU factorization with
//! partial pivoting, FOM in FLOP/s, with the standard residual check.

use std::time::Instant;

use crate::host_rate;
use jubench_apps_common::{layout_serial, outcome, AppModel, Phase};
use jubench_cluster::{CommPattern, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::linalg::residual_inf;
use jubench_kernels::{lu_factor, lu_solve, rank_rng, Matrix};

pub struct Hpl {
    /// Local problem order for the real execution.
    pub n: usize,
}

impl Default for Hpl {
    fn default() -> Self {
        Hpl { n: 96 }
    }
}

/// LU flop count: 2n³/3 + 2n².
pub fn hpl_flops(n: f64) -> f64 {
    2.0 * n * n * n / 3.0 + 2.0 * n * n
}

impl Benchmark for Hpl {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Hpl.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// Factor, solve, verify the residual.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let n = self.n;
        let mut rng = rank_rng(layout.seed, 0);
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-0.5..0.5));
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let start = Instant::now();
        let f = lu_factor(&a).ok_or(SuiteError::VerificationFailed {
            benchmark: "HPL",
            detail: "matrix unexpectedly singular".into(),
        })?;
        let x = lu_solve(&f, &b);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let flops = hpl_flops(n as f64) / elapsed;
        // HPL acceptance: ‖Ax − b‖∞ / (ε‖A‖‖x‖n) = O(1); we use a direct
        // scaled residual bound.
        let resid = residual_inf(&a, &x, &b);
        let scale = a.max_abs() * x.iter().fold(0.0f64, |m, v| m.max(v.abs())) * n as f64;
        let scaled = resid / (f64::EPSILON * scale.max(1e-300));
        Ok(RealTrack {
            verification: VerificationOutcome::tolerance(scaled, 100.0),
            metrics: vec![
                ("measured_flops".into(), flops),
                ("scaled_residual".into(), scaled),
            ],
        })
    }

    /// Full-machine model: matrix sized to ~80 % of aggregate memory,
    /// panel broadcasts + row swaps dominate communication.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let mem = machine.gpu_memory_bytes() as f64 * 0.8;
        let n_full = (mem / 8.0).sqrt();
        let devices = machine.devices() as f64;
        let timing = AppModel::new(machine, 100)
            .with_efficiencies(0.75, 0.85)
            .with_phase(Phase::compute(
                "panel + update",
                Work::new(
                    hpl_flops(n_full) / devices / 100.0,
                    n_full * n_full * 8.0 / devices / 100.0,
                ),
            ))
            .with_phase(Phase::comm(
                "panel broadcast",
                CommPattern::AllGather {
                    bytes_per_rank: (n_full * 8.0 / devices) as u64,
                },
            ))
            .timing();
        let mut out = outcome(timing, track.verification.clone(), track.metrics.clone());
        out.fom = Fom::Flops(host_rate(track, "measured_flops"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;

    #[test]
    fn run_passes_residual_check() {
        let out = Hpl::default().run(&RunConfig::test(1)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(out.fom, Fom::Flops(f) if f > 0.0));
        assert!(out.metric("scaled_residual").unwrap() < 100.0);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(hpl_flops(3.0), 18.0 + 18.0);
        assert!((hpl_flops(1000.0) - (2e9 / 3.0 + 2e6)).abs() < 1.0);
    }

    #[test]
    fn model_peaks_near_machine_peak() {
        // The HPL model on the full Booster should predict a virtual rate
        // in the right regime: a decent fraction of FP64 vector peak.
        let m = Machine::juwels_booster();
        let out = Hpl::default().run(&RunConfig::test(936)).unwrap();
        let n_full = ((m.gpu_memory_bytes() as f64 * 0.8) / 8.0).sqrt();
        let rate = hpl_flops(n_full) / out.virtual_time_s;
        let frac = rate / m.peak_flops();
        assert!((0.3..=0.95).contains(&frac), "HPL efficiency {frac}");
    }
}
