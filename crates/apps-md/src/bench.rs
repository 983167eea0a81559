//! The GROMACS and Amber benchmark definitions.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::ReduceOp;

use crate::md::MdSystem;

/// GROMACS sub-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GromacsCase {
    /// UEABS test case A: GluCl ion channel in a membrane (~150k atoms),
    /// 3 reference nodes.
    A,
    /// UEABS test case C: 27 STMV replicas, ≈ 28,000,000 atoms, 128
    /// reference nodes; "allows testing the scalability of system-supplied
    /// FFT libraries".
    C,
}

impl GromacsCase {
    pub fn atoms(self) -> u64 {
        match self {
            GromacsCase::A => 150_000,
            GromacsCase::C => 27 * 1_067_095, // 27 STMV replicas
        }
    }

    pub fn reference_nodes(self) -> u32 {
        match self {
            GromacsCase::A => 3,
            GromacsCase::C => 128,
        }
    }
}

/// Modeled MD steps of the benchmark workload.
const MD_STEPS: u32 = 10_000;

/// Per-atom per-step costs: neighbour-list short-range forces dominate.
const FLOPS_PER_ATOM: f64 = 3_000.0;
const BYTES_PER_ATOM: f64 = 800.0;
/// PME mesh points per atom (~1 grid point per atom is typical).
const PME_MESH_PER_ATOM: f64 = 1.0;

fn md_model(machine: Machine, atoms: u64, with_pme: bool) -> AppModel {
    let devices = machine.devices() as f64;
    let atoms_per_gpu = atoms as f64 / devices;
    let rank_dims = balanced_dims3(machine.devices());
    // Short-range halo: the skin layer of the per-rank sub-box, roughly
    // atoms_per_gpu^(2/3) atoms of 48 B each per face.
    let face_atoms = atoms_per_gpu.powf(2.0 / 3.0).max(1.0);
    let halo = CommPattern::Halo3d {
        rank_dims,
        bytes_per_face: [(face_atoms * 48.0) as u64; 3],
    };
    let mut model = AppModel::new(machine, MD_STEPS)
        .with_efficiencies(0.5, 0.75)
        .with_phase(Phase::compute(
            "short-range forces",
            Work::new(
                FLOPS_PER_ATOM * atoms_per_gpu,
                BYTES_PER_ATOM * atoms_per_gpu,
            ),
        ))
        .with_phase(Phase::comm("halo exchange", halo))
        .with_overlap(0.6);
    if with_pme {
        // PME reciprocal part: distributed 3D FFT — the transpose is an
        // all-to-all of the local mesh slice.
        let mesh_per_gpu = atoms_per_gpu * PME_MESH_PER_ATOM;
        let fft_flops = 5.0 * mesh_per_gpu * (mesh_per_gpu.max(2.0)).log2();
        model = model
            .with_phase(Phase::compute(
                "pme fft",
                Work::new(fft_flops, 16.0 * mesh_per_gpu),
            ))
            .with_phase(Phase::comm(
                "fft transpose",
                CommPattern::AllToAll {
                    bytes_per_pair: ((mesh_per_gpu * 16.0) / devices).max(64.0) as u64,
                },
            ));
    }
    model
}

/// Run the real MD engine on a small system and verify energy
/// conservation.
fn real_md_execution(layout: &RealLayout) -> RealTrack {
    let seed = layout.seed;
    let steps = jubench_apps_common::scale_steps(layout.scale, 60, 300, 1000);
    let results = real_world(layout).run(move |comm| {
        // The slab decomposition ghosts only the two neighbouring slabs,
        // so each slab must stay at least one cutoff wide: weak-scale the
        // box with the rank count (8.0 keeps ≤4-rank worlds as dense as
        // the original fixed box).
        let box_l = (2.0 * comm.size() as f64).max(8.0);
        let mut sys = MdSystem::lattice(comm, box_l, 16, 2.0, seed);
        let pe = sys.prepare(comm).unwrap();
        let (ke0, pe0) = sys.global_energies(comm, pe).unwrap();
        let mut pe_last = pe;
        for _ in 0..steps {
            pe_last = sys.step(comm).unwrap();
        }
        let (ke1, pe1) = sys.global_energies(comm, pe_last).unwrap();
        let atoms = comm
            .allreduce_scalar(sys.atoms.len() as f64, ReduceOp::Sum)
            .unwrap();
        (ke0 + pe0, ke1 + pe1, atoms)
    });
    let (e0, e1, atoms) = results[0].value;
    let drift = (e1 - e0).abs() / e0.abs().max(1.0);
    RealTrack {
        verification: VerificationOutcome::tolerance(drift, 0.05),
        metrics: vec![
            ("energy_drift".into(), drift),
            ("real_exec_atoms".into(), atoms),
            ("total_energy".into(), e1),
        ],
    }
}

/// The model timing of `atoms` on `cfg`'s partition joined with the real
/// track.
fn md_cost(cfg: &RunConfig, atoms: u64, track: &RealTrack) -> RunOutcome {
    let timing = md_model(cfg.machine(), atoms, true).timing();
    let mut metrics = track.metrics.clone();
    metrics.push(("atoms".into(), atoms as f64));
    outcome(timing, track.verification.clone(), metrics)
}

/// The GROMACS benchmark.
pub struct Gromacs {
    pub case: GromacsCase,
}

impl Gromacs {
    pub fn case_a() -> Self {
        Gromacs {
            case: GromacsCase::A,
        }
    }

    pub fn case_c() -> Self {
        Gromacs {
            case: GromacsCase::C,
        }
    }
}

impl Benchmark for Gromacs {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Gromacs.meta()
    }

    fn reference_nodes(&self) -> u32 {
        self.case.reference_nodes()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        Ok(real_md_execution(layout))
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        md_cost(cfg, self.case.atoms(), track)
    }
}

/// The Amber benchmark: STMV on a single node, "not intended to scale
/// beyond a single node".
pub struct Amber;

impl Amber {
    pub const ATOMS: u64 = 1_067_095;
}

impl Benchmark for Amber {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Amber.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes != 1 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "Amber",
                nodes,
                reason: "Amber is mainly optimized for single GPU calculations and is not \
                         intended to scale beyond a single node"
                    .into(),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        Ok(real_md_execution(layout))
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        md_cost(cfg, Self::ATOMS, track)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gromacs_case_a_runs_on_3_nodes() {
        let out = Gromacs::case_a().run(&RunConfig::test(3)).unwrap();
        assert!(out.verification.passed());
        assert_eq!(out.metric("atoms"), Some(150_000.0));
        assert_eq!(Gromacs::case_a().reference_nodes(), 3);
    }

    #[test]
    fn gromacs_case_c_has_28m_atoms() {
        // "27 replicas of the STMV with about 28 000 000 atoms".
        let atoms = GromacsCase::C.atoms();
        assert!((27_000_000..30_000_000).contains(&atoms), "atoms {atoms}");
        assert_eq!(Gromacs::case_c().reference_nodes(), 128);
    }

    #[test]
    fn gromacs_energy_conservation_verified() {
        let out = Gromacs::case_a().run(&RunConfig::test(3)).unwrap();
        let drift = out.metric("energy_drift").unwrap();
        assert!(drift < 0.05, "drift {drift}");
    }

    #[test]
    fn gromacs_strong_scaling_case_c() {
        // Fig. 2: runtime falls with node count around the 128-node
        // reference.
        let series: Vec<f64> = [64u32, 128, 192, 256]
            .iter()
            .map(|&n| {
                Gromacs::case_c()
                    .run(&RunConfig::test(n))
                    .unwrap()
                    .virtual_time_s
            })
            .collect();
        assert!(series.windows(2).all(|w| w[1] < w[0]), "{series:?}");
        // The FFT all-to-all erodes scaling: 2× nodes gives < 2× speedup.
        let speedup = series[1] / series[3];
        assert!(speedup < 2.0 && speedup > 1.05, "128→256 speedup {speedup}");
    }

    #[test]
    fn pme_alltoall_becomes_relatively_more_expensive_at_scale() {
        let frac = |nodes: u32| {
            let out = Gromacs::case_c().run(&RunConfig::test(nodes)).unwrap();
            out.comm_time_s / out.virtual_time_s
        };
        assert!(frac(256) > frac(16), "comm fraction must grow with scale");
    }

    #[test]
    fn amber_only_runs_on_one_node() {
        assert!(Amber.run(&RunConfig::test(1)).is_ok());
        let err = Amber.run(&RunConfig::test(2)).unwrap_err();
        assert!(matches!(err, SuiteError::InvalidNodeCount { nodes: 2, .. }));
    }

    #[test]
    fn amber_atom_count_is_stmv() {
        assert_eq!(Amber::ATOMS, 1_067_095);
        let out = Amber.run(&RunConfig::test(1)).unwrap();
        assert_eq!(out.metric("atoms"), Some(1_067_095.0));
        assert!(out.verification.passed());
    }

    #[test]
    fn metas() {
        assert_eq!(Gromacs::case_a().meta().id, BenchmarkId::Gromacs);
        assert_eq!(Amber.meta().id, BenchmarkId::Amber);
        assert!(!Amber.meta().used_in_procurement);
    }
}
