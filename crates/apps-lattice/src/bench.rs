//! The Chroma-QCD and DynQCD benchmark definitions.

use jubench_apps_common::{
    layout_per_gpu, layout_per_node, outcome, real_world, AppModel, ModelTiming, Phase,
};
use jubench_cluster::{balanced_dims4, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, MemoryVariant, RealLayout, RealTrack, RunConfig,
    RunOutcome, SuiteError, VerificationOutcome,
};
use jubench_kernels::rank_rng;

use crate::dirac::{cg_normal, StaggeredDirac};
use crate::lattice::LocalLattice;
use crate::su3::ColorVector;

/// Memory per lattice site: 4 link matrices (4 × 144 B) plus the CG
/// working set of ~12 color vectors (12 × 48 B) ≈ 1152 B.
const BYTES_PER_SITE: f64 = 1152.0;
/// FLOPs per site per Dirac application (8 SU(3)·vector products plus
/// accumulation).
const FLOPS_PER_SITE_DIRAC: f64 = 630.0;
/// Bytes touched per site per Dirac application.
const BYTES_PER_SITE_DIRAC: f64 = 1584.0;

/// Verification tolerances (§IV-A2b): "a tolerance of 1e-10 for the Base
/// benchmark and 1e-8 for High-Scaling benchmarks".
pub const TOL_BASE: f64 = 1e-10;
pub const TOL_HIGH_SCALING: f64 = 1e-8;

/// Shared analytic model of a lattice-QCD solve campaign.
fn lattice_model(
    machine: Machine,
    per_node: bool,
    sites_per_rank: f64,
    dirac_applications: u32,
) -> AppModel {
    let ranks = if per_node {
        machine.nodes
    } else {
        machine.devices()
    };
    let rank_dims = balanced_dims4(ranks);
    // Face volume per dimension: sites_per_rank / local extent; with a
    // hypercubic local block, extent ≈ sites^(1/4).
    let local_side = sites_per_rank.powf(0.25);
    let face_bytes = (sites_per_rank / local_side * 48.0) as u64;
    let work = Work::new(
        FLOPS_PER_SITE_DIRAC * sites_per_rank,
        BYTES_PER_SITE_DIRAC * sites_per_rank,
    );
    let base = if per_node {
        AppModel::per_node(machine, dirac_applications)
    } else {
        AppModel::new(machine, dirac_applications)
    };
    base.with_phase(Phase::compute("dirac apply", work))
        .with_phase(Phase::comm(
            "4d halo",
            CommPattern::Halo4d {
                rank_dims,
                bytes_per_face: face_bytes,
            },
        ))
        // CG dot products: two global reductions per iteration.
        .with_phase(Phase::comm(
            "reductions",
            CommPattern::AllReduce { bytes: 16 },
        ))
        // QUDA-style kernels overlap part of the halo with interior work.
        .with_overlap(0.5)
}

/// Run the real distributed HMC-style update on a small hot lattice and
/// verify the solver residual against `tol`.
fn real_lattice_execution(layout: &RealLayout, tol: f64) -> RealTrack {
    // A 16-rank 2⁴-per-rank hot lattice (global 4⁴ decomposed 2×2×2×2) or
    // smaller if the requested partition is smaller.
    let world = real_world(layout);
    let ranks = world.ranks();
    let seed = layout.seed;
    let results = world.run(|comm| {
        let rank_dims = balanced_dims4(ranks);
        let mut rng = rank_rng(seed, comm.rank());
        let lat = LocalLattice::hot(comm, [2, 2, 2, 2], rank_dims, &mut rng).unwrap();
        let dirac = StaggeredDirac { mass: 0.8 };
        // One pseudofermion solve = the dominant cost of one HMC update.
        let b: Vec<ColorVector> = (0..lat.volume())
            .map(|_| ColorVector::random(&mut rng))
            .collect();
        let mut x = Vec::new();
        let stats = cg_normal(comm, &lat, &dirac, &b, &mut x, tol, 800).unwrap();
        (stats, lat.interior_plaquette())
    });
    let mut metrics = Vec::new();
    let mut verification = None;
    let mut plaq_sum = 0.0;
    for r in &results {
        let (stats, plaq) = r.value;
        plaq_sum += plaq;
        if !stats.converged {
            verification = Some(VerificationOutcome::Failed {
                detail: format!(
                    "rank {}: CG residual {} above tolerance {tol}",
                    r.rank, stats.relative_residual
                ),
            });
        }
    }
    let max_resid = results
        .iter()
        .map(|r| r.value.0.relative_residual)
        .fold(0.0, f64::max);
    metrics.push(("cg_relative_residual".into(), max_resid));
    metrics.push(("interior_plaquette".into(), plaq_sum / results.len() as f64));
    metrics.push(("cg_iterations".into(), results[0].value.0.iterations as f64));
    RealTrack {
        verification: verification.unwrap_or(VerificationOutcome::tolerance(max_resid, tol)),
        metrics,
    }
}

/// **Chroma-QCD**: HMC trajectories on the GPU module; the FOM is "the
/// total time spent in HMC updates, excluding the first update" — so a
/// minimum of two updates must be prescribed.
pub struct ChromaQcd {
    /// Number of HMC updates (≥ 2; the first is excluded from the FOM).
    pub updates: u32,
}

impl Default for ChromaQcd {
    fn default() -> Self {
        ChromaQcd { updates: 2 }
    }
}

impl ChromaQcd {
    /// Sites per GPU for a memory variant.
    pub fn sites_per_gpu(variant: MemoryVariant, gpu_memory_bytes: u64) -> f64 {
        variant.memory_fraction() * gpu_memory_bytes as f64 / BYTES_PER_SITE
    }

    /// The Base workload's fixed total lattice: the Small sizing on the
    /// 8-node reference partition, strong-scaled elsewhere.
    pub fn base_total_sites(gpu_memory_bytes: u64) -> f64 {
        Self::sites_per_gpu(MemoryVariant::Small, gpu_memory_bytes) * 32.0
    }

    /// CG iterations per update at the capped count (the robust cut-off).
    const CG_ITERS_PER_UPDATE: u32 = 400;
}

impl Benchmark for ChromaQcd {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::ChromaQcd.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes == 0 || !nodes.is_power_of_two() {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "Chroma-QCD",
                nodes,
                reason: "the lattice decomposition requires a power-of-two node count".into(),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        if self.updates < 2 {
            return Err(SuiteError::RuleViolation {
                benchmark: "Chroma-QCD",
                rule: "a minimum of two HMC updates must be prescribed (the first is \
                       excluded from the FOM while QUDA tunes its parameters)"
                    .into(),
            });
        }
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let tol = if layout.variant.is_some() {
            TOL_HIGH_SCALING
        } else {
            TOL_BASE
        };
        let mut track = real_lattice_execution(layout, tol);
        // A real HMC trajectory (pure-gauge sector) on a small lattice:
        // the molecular-dynamics side of the update, with its ΔH.
        let mut gauge = crate::hmc::GaugeField::hot([2, 2, 2, 2], layout.seed);
        let (dh, accepted, plaquette) =
            crate::hmc::hmc_trajectory(&mut gauge, 5.5, 10, 0.02, layout.seed ^ 0x4AC);
        track.metrics.push(("hmc_delta_h".into(), dh));
        track
            .metrics
            .push(("hmc_accepted".into(), f64::from(accepted)));
        track.metrics.push(("hmc_plaquette".into(), plaquette));
        Ok(track)
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        // Base: a fixed lattice strong-scales over the partition;
        // High-Scaling variants fill each GPU (weak scaling).
        let sites = match cfg.variant {
            None => {
                Self::base_total_sites(machine.node.gpu.memory_bytes) / machine.devices() as f64
            }
            Some(v) => Self::sites_per_gpu(v, machine.node.gpu.memory_bytes),
        };
        // Each update performs CG_ITERS_PER_UPDATE capped CG iterations,
        // each applying D†D = 2 Dirac applications.
        let dirac_apps = 2 * Self::CG_ITERS_PER_UPDATE;
        let per_update = lattice_model(machine, false, sites, dirac_apps).timing();
        // FOM: updates excluding the first.
        let fom_updates = (self.updates - 1) as f64;
        let timing = ModelTiming {
            compute_s: per_update.compute_s * fom_updates,
            comm_s: per_update.comm_s * fom_updates,
            exposed_comm_s: per_update.exposed_comm_s * fom_updates,
            total_s: per_update.total_s * fom_updates,
        };
        let mut metrics = track.metrics.clone();
        metrics.push(("sites_per_gpu".into(), sites));
        metrics.push(("hmc_updates".into(), self.updates as f64));
        outcome(timing, track.verification.clone(), metrics)
    }
}

/// **DynQCD**: the CPU-only lattice benchmark — "600 quark propagators
/// using a conjugate gradient solver for sparse LQCD fermion matrices,
/// with high demands to the memory sub-system".
pub struct DynQcd {
    pub propagators: u32,
}

impl Default for DynQcd {
    fn default() -> Self {
        DynQcd { propagators: 600 }
    }
}

impl DynQcd {
    const CG_ITERS_PER_PROPAGATOR: u32 = 25;
}

impl Benchmark for DynQcd {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::DynQcd.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_node(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        Ok(real_lattice_execution(layout, TOL_BASE))
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        // CPU workload: a fixed lattice sized to ~5 % of the 8-node
        // reference partition's 512 GB-per-node memory (the rest holds
        // propagator sets and eigenvector workspaces that do not enter
        // the hot solver loop), strong-scaled over the partition.
        let node_mem = 512.0 * (1u64 << 30) as f64;
        let sites_per_node = 0.05 * node_mem / BYTES_PER_SITE * 8.0 / machine.nodes as f64;
        let dirac_apps = 2 * Self::CG_ITERS_PER_PROPAGATOR * self.propagators;
        let timing = lattice_model(machine, true, sites_per_node, dirac_apps).timing();
        let mut metrics = track.metrics.clone();
        metrics.push(("propagators".into(), self.propagators as f64));
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chroma_base_verifies_to_1e10() {
        let out = ChromaQcd::default().run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        let resid = out.metric("cg_relative_residual").unwrap();
        assert!(resid <= TOL_BASE, "residual {resid}");
    }

    #[test]
    fn chroma_high_scaling_uses_relaxed_tolerance() {
        let out = ChromaQcd::default()
            .run(&RunConfig::test(512).with_variant(MemoryVariant::Large))
            .unwrap();
        assert!(out.verification.passed());
        assert!(matches!(
            out.verification,
            VerificationOutcome::WithinTolerance { tolerance, .. } if tolerance == TOL_HIGH_SCALING
        ));
    }

    #[test]
    fn chroma_rejects_single_update() {
        let err = ChromaQcd { updates: 1 }
            .run(&RunConfig::test(8))
            .unwrap_err();
        assert!(matches!(err, SuiteError::RuleViolation { .. }));
    }

    #[test]
    fn chroma_rejects_non_power_of_two() {
        let err = ChromaQcd::default().run(&RunConfig::test(12)).unwrap_err();
        assert!(matches!(err, SuiteError::InvalidNodeCount { .. }));
    }

    #[test]
    fn chroma_fom_excludes_first_update() {
        let two = ChromaQcd { updates: 2 }.run(&RunConfig::test(8)).unwrap();
        let three = ChromaQcd { updates: 3 }.run(&RunConfig::test(8)).unwrap();
        let ratio = three.virtual_time_s / two.virtual_time_s;
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "3 updates bill 2× the FOM of 2 updates: {ratio}"
        );
    }

    #[test]
    fn chroma_weak_scaling_declines_gently() {
        // Fig. 3: Chroma's weak-scaling efficiency stays reasonably high.
        let t8 = ChromaQcd::default()
            .run(&RunConfig::test(8).with_variant(MemoryVariant::Small))
            .unwrap();
        let t512 = ChromaQcd::default()
            .run(&RunConfig::test(512).with_variant(MemoryVariant::Small))
            .unwrap();
        let eff = t8.virtual_time_s / t512.virtual_time_s;
        assert!(eff > 0.5, "efficiency collapsed to {eff}");
        assert!(eff <= 1.01, "efficiency above one: {eff}");
    }

    #[test]
    fn chroma_metrics_present() {
        let out = ChromaQcd::default().run(&RunConfig::test(8)).unwrap();
        assert!(out.metric("interior_plaquette").is_some());
        assert!(out.metric("sites_per_gpu").unwrap() > 1e6);
        // The molecular-dynamics side ran and conserved energy reasonably.
        assert!(out.metric("hmc_delta_h").unwrap().abs() < 1.0);
        assert!(out.metric("hmc_plaquette").unwrap() <= 1.0);
    }

    #[test]
    fn dynqcd_runs_on_cpu_nodes() {
        let out = DynQcd { propagators: 10 }.run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert_eq!(out.metric("propagators"), Some(10.0));
    }

    #[test]
    fn dynqcd_is_memory_bound_on_cpu() {
        // The Dirac kernel intensity (≈ 0.4 F/B) is far below the EPYC
        // node's roofline knee — "high demands to the memory sub-system".
        use jubench_cluster::{GpuSpec, Roofline};
        let cpu = Roofline::new(GpuSpec::epyc_rome_node());
        let w = Work::new(FLOPS_PER_SITE_DIRAC, BYTES_PER_SITE_DIRAC);
        assert!(cpu.memory_bound(w));
    }

    #[test]
    fn dynqcd_cost_scales_with_propagators() {
        let a = DynQcd { propagators: 10 }.run(&RunConfig::test(8)).unwrap();
        let b = DynQcd { propagators: 20 }.run(&RunConfig::test(8)).unwrap();
        let ratio = b.virtual_time_s / a.virtual_time_s;
        assert!((ratio - 2.0).abs() < 0.05, "{ratio}");
    }

    #[test]
    fn metas_match() {
        assert_eq!(ChromaQcd::default().meta().id, BenchmarkId::ChromaQcd);
        assert_eq!(DynQcd::default().meta().id, BenchmarkId::DynQcd);
    }
}
