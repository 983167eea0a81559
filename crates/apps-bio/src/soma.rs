//! The SOMA benchmark: "Single Chain in Mean Field" Monte Carlo for soft
//! coarse-grained polymer chains. Beads interact only through density
//! fields accumulated on a grid — chains are independent given the
//! fields, which is what makes the model "massively parallel".

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::rank_rng;
use jubench_kernels::DetRng;
use jubench_simmpi::{Comm, ReduceOp, SimError};

/// An AB diblock copolymer chain of harmonic-bonded beads.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Bead positions in the unit-cube-per-cell grid coordinates.
    pub beads: Vec<[f64; 3]>,
}

/// The per-rank part of the SCMF system.
pub struct SomaSystem {
    /// Cubic density grid side.
    pub grid: usize,
    /// Beads per chain (first half type A, second half B).
    pub beads_per_chain: usize,
    pub chains: Vec<Chain>,
    /// Global A and B density fields (replicated after the allreduce).
    pub density_a: Vec<f64>,
    pub density_b: Vec<f64>,
    /// Flory-Huggins repulsion between A and B.
    pub chi: f64,
    /// Compressibility penalty.
    pub kappa: f64,
    /// Harmonic bond strength.
    pub bond_k: f64,
    pub temperature: f64,
    rng: DetRng,
    pub accepted: u64,
    pub attempted: u64,
}

impl SomaSystem {
    pub fn new(
        comm: &Comm,
        grid: usize,
        chains_per_rank: usize,
        beads_per_chain: usize,
        seed: u64,
    ) -> Self {
        let mut rng = rank_rng(seed, comm.rank());
        let l = grid as f64;
        let chains = (0..chains_per_rank)
            .map(|_| {
                // A random walk with short steps keeps bonds relaxed.
                let mut pos = [
                    rng.gen_range(0.0..l),
                    rng.gen_range(0.0..l),
                    rng.gen_range(0.0..l),
                ];
                let beads = (0..beads_per_chain)
                    .map(|_| {
                        for p in pos.iter_mut() {
                            *p = (*p + rng.gen_range(-0.3..0.3)).rem_euclid(l);
                        }
                        pos
                    })
                    .collect();
                Chain { beads }
            })
            .collect();
        SomaSystem {
            grid,
            beads_per_chain,
            chains,
            density_a: vec![0.0; grid * grid * grid],
            density_b: vec![0.0; grid * grid * grid],
            chi: 1.0,
            kappa: 2.0,
            bond_k: 3.0,
            temperature: 1.0,
            rng,
            accepted: 0,
            attempted: 0,
        }
    }

    #[inline]
    fn cell(&self, pos: &[f64; 3]) -> usize {
        let g = self.grid;
        let i = (pos[0] as usize).min(g - 1);
        let j = (pos[1] as usize).min(g - 1);
        let k = (pos[2] as usize).min(g - 1);
        (i * g + j) * g + k
    }

    /// Accumulate the local densities and allreduce them to the global
    /// mean fields — the "quasi-instantaneous field approximation".
    pub fn update_fields(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        self.density_a.fill(0.0);
        self.density_b.fill(0.0);
        let half = self.beads_per_chain / 2;
        for chain in &self.chains {
            for (b, pos) in chain.beads.iter().enumerate() {
                let c = self.cell(pos);
                if b < half {
                    self.density_a[c] += 1.0;
                } else {
                    self.density_b[c] += 1.0;
                }
            }
        }
        comm.allreduce_f64(&mut self.density_a, ReduceOp::Sum)?;
        comm.allreduce_f64(&mut self.density_b, ReduceOp::Sum)?;
        Ok(())
    }

    /// Field energy density of one cell.
    #[inline]
    fn cell_energy(&self, c: usize) -> f64 {
        let (a, b) = (self.density_a[c], self.density_b[c]);
        self.chi * a * b + self.kappa * (a + b).powi(2) * 0.01
    }

    /// Total field energy Σ cells (χ·ρA·ρB + compressibility term).
    pub fn field_energy(&self) -> f64 {
        (0..self.density_a.len()).map(|c| self.cell_energy(c)).sum()
    }

    /// Bond energy of a bead with its chain neighbours.
    fn bond_energy(&self, chain: &Chain, bead: usize, pos: &[f64; 3]) -> f64 {
        let l = self.grid as f64;
        let mut e = 0.0;
        for n in [bead.wrapping_sub(1), bead + 1] {
            if let Some(other) = chain.beads.get(n) {
                let mut d2 = 0.0;
                for d in 0..3 {
                    let mut diff = (pos[d] - other[d]).abs();
                    if diff > l / 2.0 {
                        diff = l - diff;
                    }
                    d2 += diff * diff;
                }
                e += 0.5 * self.bond_k * d2;
            }
        }
        e
    }

    /// One SCMF Monte Carlo sweep: one displacement attempt per bead
    /// against the frozen mean fields, then a field refresh.
    pub fn sweep(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        let l = self.grid as f64;
        let half = self.beads_per_chain / 2;
        let mut chains = std::mem::take(&mut self.chains);
        for chain in chains.iter_mut() {
            for bead in 0..chain.beads.len() {
                self.attempted += 1;
                let old = chain.beads[bead];
                let mut new = old;
                for p in new.iter_mut() {
                    *p = (*p + self.rng.gen_range(-0.5..0.5)).rem_euclid(l);
                }
                let is_a = bead < half;
                let (c_old, c_new) = (self.cell(&old), self.cell(&new));
                // Field ΔE: moving one bead between cells.
                let de_field = if c_old == c_new {
                    0.0
                } else {
                    let other_old = if is_a {
                        self.density_b[c_old]
                    } else {
                        self.density_a[c_old]
                    };
                    let other_new = if is_a {
                        self.density_b[c_new]
                    } else {
                        self.density_a[c_new]
                    };
                    let tot_old = self.density_a[c_old] + self.density_b[c_old];
                    let tot_new = self.density_a[c_new] + self.density_b[c_new];
                    self.chi * (other_new - other_old)
                        + self.kappa * 0.02 * (tot_new - tot_old + 1.0)
                };
                let de_bond =
                    self.bond_energy(chain, bead, &new) - self.bond_energy(chain, bead, &old);
                let de = de_field + de_bond;
                let accept =
                    de <= 0.0 || self.rng.gen_range(0.0..1.0) < (-de / self.temperature).exp();
                if accept {
                    chain.beads[bead] = new;
                    self.accepted += 1;
                }
            }
        }
        self.chains = chains;
        self.update_fields(comm)
    }

    /// Total beads across all ranks.
    pub fn global_beads(&self, comm: &mut Comm) -> Result<f64, SimError> {
        let local = (self.chains.len() * self.beads_per_chain) as f64;
        comm.allreduce_scalar(local, ReduceOp::Sum)
    }

    /// Mean squared bond length (local).
    pub fn mean_bond_sq(&self) -> f64 {
        let l = self.grid as f64;
        let mut total = 0.0;
        let mut count = 0;
        for chain in &self.chains {
            for w in chain.beads.windows(2) {
                let mut d2 = 0.0;
                for d in 0..3 {
                    let mut diff = (w[0][d] - w[1][d]).abs();
                    if diff > l / 2.0 {
                        diff = l - diff;
                    }
                    d2 += diff * diff;
                }
                total += d2;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    pub fn acceptance_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.attempted as f64
        }
    }
}

pub struct Soma;

impl Soma {
    fn model(machine: Machine) -> AppModel {
        // Paper-scale polymer melt: ~1e8 beads, field grid 128³.
        let beads_total = 1.0e8;
        let devices = machine.devices() as f64;
        let beads_per_gpu = beads_total / devices;
        let field_cells = 128.0f64.powi(3);
        let work = Work::new(120.0 * beads_per_gpu, 150.0 * beads_per_gpu);
        AppModel::new(machine, 200)
            .with_efficiencies(0.3, 0.7)
            .with_phase(Phase::compute("mc moves", work))
            .with_phase(Phase::comm(
                "field allreduce",
                CommPattern::AllReduce {
                    bytes: (field_cells * 8.0 * 2.0) as u64,
                },
            ))
    }
}

impl Benchmark for Soma {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Soma.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let seed = layout.seed;
        let results = real_world(layout).run(move |comm| {
            let mut sys = SomaSystem::new(comm, 6, 4, 8, seed);
            sys.update_fields(comm).unwrap();
            let beads0 = sys.global_beads(comm).unwrap();
            for _ in 0..10 {
                sys.sweep(comm).unwrap();
            }
            let beads1 = sys.global_beads(comm).unwrap();
            (beads0, beads1, sys.acceptance_rate(), sys.mean_bond_sq())
        });
        let (b0, b1, acc, bond_sq) = results[0].value;
        let verification = if b0 != b1 {
            VerificationOutcome::Failed {
                detail: format!("beads changed: {b0} → {b1}"),
            }
        } else if !(0.05..0.999).contains(&acc) {
            VerificationOutcome::Failed {
                detail: format!("acceptance rate {acc} outside the sane window"),
            }
        } else {
            VerificationOutcome::KeyMetrics {
                metrics: vec![("beads".into(), b1, b0), ("acceptance".into(), acc, acc)],
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![
                ("acceptance_rate".into(), acc),
                ("mean_bond_sq".into(), bond_sq),
            ],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        outcome(timing, track.verification.clone(), track.metrics.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_simmpi::World;

    #[test]
    fn run_on_reference_nodes() {
        let out = Soma.run(&RunConfig::test(4)).unwrap();
        assert!(out.verification.passed());
        let acc = out.metric("acceptance_rate").unwrap();
        assert!((0.05..1.0).contains(&acc), "acceptance {acc}");
    }

    #[test]
    fn fields_count_every_bead() {
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = SomaSystem::new(comm, 5, 3, 6, 2);
            sys.update_fields(comm).unwrap();
            let total: f64 = sys.density_a.iter().sum::<f64>() + sys.density_b.iter().sum::<f64>();
            total
        });
        // 4 ranks × 3 chains × 6 beads = 72 beads, all deposited.
        for r in &results {
            assert_eq!(r.value, 72.0);
        }
    }

    #[test]
    fn bonds_keep_chains_compact() {
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = SomaSystem::new(comm, 6, 4, 8, 3);
            sys.update_fields(comm).unwrap();
            for _ in 0..20 {
                sys.sweep(comm).unwrap();
            }
            sys.mean_bond_sq()
        });
        for r in &results {
            // Harmonic bonds with k=3 at T=1: ⟨b²⟩ ≈ 3/k per dimension ≈ 1;
            // anything below a few lattice units is healthy.
            assert!(r.value < 4.0, "bonds stretched to ⟨b²⟩ = {}", r.value);
            assert!(r.value > 0.0);
        }
    }

    #[test]
    fn soma_not_used_in_procurement() {
        assert!(!Soma.meta().used_in_procurement);
    }

    #[test]
    fn chi_repulsion_separates_ab() {
        // With strong χ the A and B densities anti-correlate after
        // equilibration: Σ a·b per cell drops from the initial value.
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = SomaSystem::new(comm, 4, 6, 8, 4);
            sys.chi = 4.0;
            sys.update_fields(comm).unwrap();
            let overlap0: f64 = sys
                .density_a
                .iter()
                .zip(&sys.density_b)
                .map(|(a, b)| a * b)
                .sum();
            for _ in 0..30 {
                sys.sweep(comm).unwrap();
            }
            let overlap1: f64 = sys
                .density_a
                .iter()
                .zip(&sys.density_b)
                .map(|(a, b)| a * b)
                .sum();
            (overlap0, overlap1)
        });
        for r in &results {
            assert!(
                r.value.1 < r.value.0,
                "A-B overlap did not decrease: {} → {}",
                r.value.0,
                r.value.1
            );
        }
    }
}
