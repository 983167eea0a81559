//! The distributed electrostatic particle-in-cell engine.
//!
//! The global periodic grid is slab-decomposed along x. Each step:
//!
//! 1. **Deposit**: cloud-in-cell (CIC) charge assignment; contributions
//!    spilling into the neighbour slab's cells are exchanged and summed.
//! 2. **Field solve**: Jacobi sweeps on ∇²φ = −ρ with halo exchanges.
//! 3. **Gradient**: E = −∇φ by central differences.
//! 4. **Push**: CIC-interpolated E accelerates the particles (leapfrog);
//!    positions wrap periodically; particles leaving the slab migrate to
//!    the owning rank.

use jubench_kernels::rank_rng;
use jubench_simmpi::{block_owner, block_range, Comm, ReduceOp, SimError};

/// One macro-particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub charge: f64,
}

/// Per-rank slab of the periodic grid plus its particles.
pub(crate) struct PicSim {
    /// Global grid dimensions (cells).
    pub grid: [usize; 3],
    /// Slab range along x: cells `[x0, x1)`.
    pub x0: usize,
    pub x1: usize,
    /// Charge density on the local slab (padded by one ghost cell in x).
    rho: Vec<f64>,
    phi: Vec<f64>,
    phi_next: Vec<f64>,
    /// E-field components on local cells.
    e: [Vec<f64>; 3],
    pub particles: Vec<Particle>,
    pub time_step: f64,
}

impl PicSim {
    /// Local slab width (no ghosts).
    fn lx(&self) -> usize {
        self.x1 - self.x0
    }

    fn plane(&self) -> usize {
        self.grid[1] * self.grid[2]
    }

    /// Index into a ghost-padded (x) field: ix ∈ [−1, lx].
    #[inline]
    fn gidx(&self, ix: isize, iy: usize, iz: usize) -> usize {
        (((ix + 1) as usize) * self.grid[1] + iy) * self.grid[2] + iz
    }

    /// Index into an unpadded local field.
    #[inline]
    fn lidx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.grid[1] + iy) * self.grid[2] + iz
    }

    /// Create the Kelvin-Helmholtz setup: `ppc` particles per cell, the
    /// upper half of the y-range streaming +x, the lower half −x, with a
    /// small deterministic velocity perturbation seeding the instability.
    pub(crate) fn kelvin_helmholtz(
        comm: &Comm,
        grid: [usize; 3],
        ppc: usize,
        shear_speed: f64,
        seed: u64,
    ) -> Self {
        let p = comm.size() as usize;
        assert!(grid[0] >= p, "need at least one x-slab per rank");
        let slab = block_range(grid[0], p, comm.rank() as usize);
        let (x0, x1) = (slab.start, slab.end);
        let lx = x1 - x0;
        let plane = grid[1] * grid[2];
        let mut rng = rank_rng(seed, comm.rank());
        let mut particles = Vec::with_capacity(lx * plane * ppc);
        for ix in 0..lx {
            for iy in 0..grid[1] {
                for iz in 0..grid[2] {
                    for _ in 0..ppc {
                        let pos = [
                            (x0 + ix) as f64 + rng.gen_range(0.0..1.0),
                            iy as f64 + rng.gen_range(0.0..1.0),
                            iz as f64 + rng.gen_range(0.0..1.0),
                        ];
                        let stream = if pos[1] < grid[1] as f64 / 2.0 {
                            -shear_speed
                        } else {
                            shear_speed
                        };
                        let perturb = 0.01
                            * shear_speed
                            * (2.0 * std::f64::consts::PI * pos[0] / grid[0] as f64).sin();
                        particles.push(Particle {
                            pos,
                            vel: [stream, perturb, 0.0],
                            charge: 1.0 / ppc as f64,
                        });
                    }
                }
            }
        }
        PicSim {
            grid,
            x0,
            x1,
            rho: vec![0.0; (lx + 2) * plane],
            phi: vec![0.0; (lx + 2) * plane],
            phi_next: vec![0.0; (lx + 2) * plane],
            e: [
                vec![0.0; lx * plane],
                vec![0.0; lx * plane],
                vec![0.0; lx * plane],
            ],
            particles,
            time_step: 0.05,
        }
    }

    /// Total charge of the local particles.
    pub(crate) fn local_charge(&self) -> f64 {
        self.particles.iter().map(|p| p.charge).sum()
    }

    /// Sum of the deposited charge density over local cells (ghosts
    /// excluded) — equals the local particle charge after the ghost
    /// reduction, globally exactly the total charge.
    pub(crate) fn deposited_charge(&self) -> f64 {
        let plane = self.plane();
        let lx = self.lx();
        self.rho[plane..(lx + 1) * plane].iter().sum()
    }

    /// CIC deposit with ghost-cell exchange.
    pub(crate) fn deposit(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        let plane = self.plane();
        let lx = self.lx();
        self.rho.fill(0.0);
        let (gy, gz) = (self.grid[1], self.grid[2]);
        let particles = std::mem::take(&mut self.particles);
        for p in &particles {
            // Local x coordinate relative to the slab.
            let xl = p.pos[0] - self.x0 as f64;
            let ix = xl.floor() as isize;
            let fy = p.pos[1].rem_euclid(gy as f64);
            let fz = p.pos[2].rem_euclid(gz as f64);
            let iy = fy.floor() as usize % gy;
            let iz = fz.floor() as usize % gz;
            let wx1 = xl - ix as f64;
            let wy1 = fy - fy.floor();
            let wz1 = fz - fz.floor();
            for (dx, wx) in [(0isize, 1.0 - wx1), (1, wx1)] {
                for (dy, wy) in [(0usize, 1.0 - wy1), (1, wy1)] {
                    for (dz, wz) in [(0usize, 1.0 - wz1), (1, wz1)] {
                        let cy = (iy + dy) % gy;
                        let cz = (iz + dz) % gz;
                        let cx = ix + dx; // may be −1+… or lx (ghost)
                        let cx = cx.clamp(-1, lx as isize);
                        let idx = self.gidx(cx, cy, cz);
                        self.rho[idx] += p.charge * wx * wy * wz;
                    }
                }
            }
        }
        self.particles = particles;
        // Fold the ghost layers into the neighbour slabs (periodic).
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let high_ghost: Vec<f64> = self.rho[(lx + 1) * plane..].to_vec();
        let low_ghost: Vec<f64> = self.rho[..plane].to_vec();
        let from_left = comm.shift_f64(right, left, high_ghost)?;
        for (q, v) in from_left.iter().enumerate() {
            self.rho[plane + q] += v;
        }
        let from_right = comm.shift_f64(left, right, low_ghost)?;
        for (q, v) in from_right.iter().enumerate() {
            self.rho[lx * plane + q] += v;
        }
        Ok(())
    }

    /// Exchange the boundary planes of a padded field (periodic halo).
    fn exchange_halo(&self, comm: &mut Comm, field: &mut [f64]) -> Result<(), SimError> {
        let plane = self.plane();
        let lx = self.lx();
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let high: Vec<f64> = field[lx * plane..(lx + 1) * plane].to_vec();
        let low: Vec<f64> = field[plane..2 * plane].to_vec();
        let from_left = comm.shift_f64(right, left, high)?;
        let from_right = comm.shift_f64(left, right, low)?;
        field[..plane].copy_from_slice(&from_left);
        field[(lx + 1) * plane..].copy_from_slice(&from_right);
        Ok(())
    }

    /// `sweeps` Jacobi iterations on ∇²φ = −ρ (unit spacing), with halo
    /// exchanges; then E = −∇φ.
    pub(crate) fn solve_fields(&mut self, comm: &mut Comm, sweeps: usize) -> Result<(), SimError> {
        let plane = self.plane();
        let lx = self.lx();
        let (gy, gz) = (self.grid[1], self.grid[2]);
        // Remove the mean charge (periodic Poisson solvability).
        let total: f64 = comm.allreduce_scalar(self.deposited_charge(), ReduceOp::Sum)?;
        let cells = (self.grid[0] * gy * gz) as f64;
        let mean = total / cells;
        for ix in 0..lx {
            for q in 0..plane {
                self.rho[(ix + 1) * plane + q] -= mean;
            }
        }
        for _ in 0..sweeps {
            let mut phi = std::mem::take(&mut self.phi);
            self.exchange_halo(comm, &mut phi)?;
            for ix in 0..lx {
                for iy in 0..gy {
                    for iz in 0..gz {
                        let c = self.gidx(ix as isize, iy, iz);
                        let sum = phi[self.gidx(ix as isize - 1, iy, iz)]
                            + phi[self.gidx(ix as isize + 1, iy, iz)]
                            + phi[self.gidx(ix as isize, (iy + gy - 1) % gy, iz)]
                            + phi[self.gidx(ix as isize, (iy + 1) % gy, iz)]
                            + phi[self.gidx(ix as isize, iy, (iz + gz - 1) % gz)]
                            + phi[self.gidx(ix as isize, iy, (iz + 1) % gz)];
                        self.phi_next[c] = (sum + self.rho[c]) / 6.0;
                    }
                }
            }
            std::mem::swap(&mut phi, &mut self.phi_next);
            self.phi = phi;
        }
        // E = −∇φ, central differences (needs a final halo).
        let mut phi = std::mem::take(&mut self.phi);
        self.exchange_halo(comm, &mut phi)?;
        for ix in 0..lx {
            for iy in 0..gy {
                for iz in 0..gz {
                    let l = self.lidx(ix, iy, iz);
                    self.e[0][l] = -(phi[self.gidx(ix as isize + 1, iy, iz)]
                        - phi[self.gidx(ix as isize - 1, iy, iz)])
                        / 2.0;
                    self.e[1][l] = -(phi[self.gidx(ix as isize, (iy + 1) % gy, iz)]
                        - phi[self.gidx(ix as isize, (iy + gy - 1) % gy, iz)])
                        / 2.0;
                    self.e[2][l] = -(phi[self.gidx(ix as isize, iy, (iz + 1) % gz)]
                        - phi[self.gidx(ix as isize, iy, (iz + gz - 1) % gz)])
                        / 2.0;
                }
            }
        }
        self.phi = phi;
        Ok(())
    }

    /// Push particles with nearest-cell field interpolation, wrap
    /// periodically, and migrate slab-crossers to their new owner.
    pub(crate) fn push_and_migrate(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        let dt = self.time_step;
        let gx = self.grid[0] as f64;
        let (gy, gz) = (self.grid[1], self.grid[2]);
        let lx = self.lx();
        let mut particles = std::mem::take(&mut self.particles);
        for p in particles.iter_mut() {
            let xl = (p.pos[0] - self.x0 as f64)
                .floor()
                .clamp(0.0, (lx - 1) as f64) as usize;
            let iy = (p.pos[1].rem_euclid(gy as f64)).floor() as usize % gy;
            let iz = (p.pos[2].rem_euclid(gz as f64)).floor() as usize % gz;
            let l = self.lidx(xl, iy, iz);
            for d in 0..3 {
                p.vel[d] += self.e[d][l] * dt;
                p.pos[d] += p.vel[d] * dt;
            }
            p.pos[0] = p.pos[0].rem_euclid(gx);
            p.pos[1] = p.pos[1].rem_euclid(gy as f64);
            p.pos[2] = p.pos[2].rem_euclid(gz as f64);
        }
        self.particles = particles;
        // Migration: ship particles whose x left the slab to the owning
        // rank. The time step bounds displacement well below one slab, so
        // every mover belongs to a ring neighbour (wrap-around included).
        if comm.size() == 1 {
            return Ok(()); // periodic wrap already keeps everything local
        }
        let p_ranks = comm.size();
        let right = (comm.rank() + 1) % p_ranks;
        let left = (comm.rank() + p_ranks - 1) % p_ranks;
        let mut staying = Vec::with_capacity(self.particles.len());
        let mut to_left: Vec<f64> = Vec::new();
        let mut to_right: Vec<f64> = Vec::new();
        for p in self.particles.drain(..) {
            let cell = (p.pos[0].floor() as usize).min(self.grid[0] - 1);
            let owner = block_owner(self.grid[0], p_ranks as usize, cell) as u32;
            if owner == comm.rank() {
                staying.push(p);
            } else if owner == right {
                pack(&mut to_right, &p);
            } else {
                debug_assert_eq!(owner, left, "particle moved more than one slab");
                pack(&mut to_left, &p);
            }
        }
        let from_right = comm.shift_f64(left, right, to_left)?;
        let from_left = comm.shift_f64(right, left, to_right)?;
        for chunk in from_right.chunks_exact(7).chain(from_left.chunks_exact(7)) {
            staying.push(unpack(chunk));
        }
        self.particles = staying;
        Ok(())
    }

    /// One full PIC step.
    pub fn step(&mut self, comm: &mut Comm, field_sweeps: usize) -> Result<(), SimError> {
        self.deposit(comm)?;
        self.solve_fields(comm, field_sweeps)?;
        self.push_and_migrate(comm)
    }

    /// Field energy ½ Σ |E|² over local cells — the "key data in the
    /// output" used for framework-inherent verification.
    pub(crate) fn local_field_energy(&self) -> f64 {
        0.5 * self
            .e
            .iter()
            .map(|c| c.iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
    }
}

fn pack(buf: &mut Vec<f64>, p: &Particle) {
    buf.extend_from_slice(&[
        p.pos[0], p.pos[1], p.pos[2], p.vel[0], p.vel[1], p.vel[2], p.charge,
    ]);
}

fn unpack(chunk: &[f64]) -> Particle {
    Particle {
        pos: [chunk[0], chunk[1], chunk[2]],
        vel: [chunk[3], chunk[4], chunk[5]],
        charge: chunk[6],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_simmpi::World;

    fn world(nodes: u32) -> World {
        World::new(Machine::juwels_booster().partition(nodes))
    }

    #[test]
    fn particles_initialized_at_constant_density() {
        let results = world(1).run(|comm| {
            let sim = PicSim::kelvin_helmholtz(comm, [8, 4, 4], 25, 0.5, 3);
            sim.particles.len()
        });
        let total: usize = results.iter().map(|r| r.value).sum();
        assert_eq!(total, 8 * 4 * 4 * 25);
    }

    #[test]
    fn deposit_conserves_charge_exactly() {
        let results = world(1).run(|comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [8, 4, 4], 25, 0.5, 5);
            let before = comm
                .allreduce_scalar(sim.local_charge(), ReduceOp::Sum)
                .unwrap();
            sim.deposit(comm).unwrap();
            let after = comm
                .allreduce_scalar(sim.deposited_charge(), ReduceOp::Sum)
                .unwrap();
            (before, after)
        });
        for r in &results {
            let (before, after) = r.value;
            assert!(
                (before - after).abs() < 1e-9 * before,
                "charge {before} vs deposited {after}"
            );
        }
    }

    #[test]
    fn particle_count_survives_steps() {
        let results = world(1).run(|comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [8, 4, 4], 10, 0.8, 7);
            let initial = comm
                .allreduce_scalar(sim.particles.len() as f64, ReduceOp::Sum)
                .unwrap();
            for _ in 0..5 {
                sim.step(comm, 5).unwrap();
            }
            let fin = comm
                .allreduce_scalar(sim.particles.len() as f64, ReduceOp::Sum)
                .unwrap();
            (initial, fin)
        });
        for r in &results {
            assert_eq!(r.value.0, r.value.1, "particles lost or duplicated");
        }
    }

    #[test]
    fn shear_flow_migrates_particles_between_slabs() {
        let results = world(1).run(|comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [8, 4, 4], 5, 2.0, 9);
            let before = sim.particles.len();
            for _ in 0..4 {
                sim.step(comm, 2).unwrap();
            }
            (before, sim.particles.len())
        });
        // With a strong shear some ranks must have exchanged particles;
        // totals conserved (checked in the other test) but local counts
        // change somewhere.
        let changed = results.iter().any(|r| r.value.0 != r.value.1);
        assert!(changed, "no migration observed");
    }

    #[test]
    fn field_energy_is_finite_and_reported() {
        let results = world(1).run(|comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [8, 4, 4], 10, 0.5, 11);
            sim.step(comm, 10).unwrap();
            sim.local_field_energy()
        });
        for r in &results {
            assert!(r.value.is_finite() && r.value >= 0.0);
        }
    }

    #[test]
    fn single_rank_periodic_wrap_keeps_particles() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sim = PicSim::kelvin_helmholtz(comm, [4, 4, 4], 8, 3.0, 13);
            let before = sim.particles.len();
            for _ in 0..5 {
                sim.step(comm, 2).unwrap();
            }
            (before, sim.particles.len())
        });
        assert_eq!(results[0].value.0, results[0].value.1);
    }
}
