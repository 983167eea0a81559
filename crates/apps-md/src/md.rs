//! The distributed Lennard-Jones molecular-dynamics engine.
//!
//! Particles live in a periodic cubic box slab-decomposed along x. Each
//! step: exchange ghost particles within the cutoff of the slab faces,
//! compute shifted-LJ forces from a cell list, integrate with velocity
//! Verlet, and migrate particles that crossed slab boundaries.

use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_kernels::rank_rng;
use jubench_simmpi::{Comm, ReduceOp, SimError};

/// A point particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    pub pos: [f64; 3],
    pub vel: [f64; 3],
    pub force: [f64; 3],
}

/// The rank-local slab of a periodic LJ system (σ = ε = m = 1 units).
pub struct MdSystem {
    /// Cubic box side.
    pub box_l: f64,
    /// Slab bounds along x.
    pub x_lo: f64,
    pub x_hi: f64,
    pub cutoff: f64,
    pub dt: f64,
    pub atoms: Vec<Atom>,
    /// Ghost positions from the neighbouring slabs (within cutoff).
    ghosts: Vec<[f64; 3]>,
    /// Shifted-potential energy offset so U(r_c) = 0.
    u_shift: f64,
}

impl MdSystem {
    /// Place `per_rank` atoms per rank on a perturbed lattice inside each
    /// slab, with small random velocities (zeroed net momentum per rank).
    pub fn lattice(comm: &Comm, box_l: f64, per_rank: usize, cutoff: f64, seed: u64) -> Self {
        let p = comm.size() as f64;
        let r = comm.rank() as f64;
        let x_lo = box_l * r / p;
        let x_hi = box_l * (r + 1.0) / p;
        let mut rng = rank_rng(seed, comm.rank());
        // Lattice spacing ~1.2 σ inside the slab.
        let slab_w = x_hi - x_lo;
        let nx = ((per_rank as f64).powf(1.0 / 3.0) * (slab_w / box_l).powf(2.0 / 3.0))
            .ceil()
            .max(1.0) as usize;
        let nyz = ((per_rank as f64 / nx as f64).sqrt()).ceil().max(1.0) as usize;
        let mut atoms = Vec::with_capacity(per_rank);
        'fill: for ix in 0..nx {
            for iy in 0..nyz {
                for iz in 0..nyz {
                    if atoms.len() >= per_rank {
                        break 'fill;
                    }
                    let jitter = 0.05;
                    let pos = [
                        x_lo + (ix as f64 + 0.5) / nx as f64 * slab_w
                            + rng.gen_range(-jitter..jitter),
                        (iy as f64 + 0.5) / nyz as f64 * box_l + rng.gen_range(-jitter..jitter),
                        (iz as f64 + 0.5) / nyz as f64 * box_l + rng.gen_range(-jitter..jitter),
                    ];
                    let vel = [
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                    ];
                    atoms.push(Atom {
                        pos,
                        vel,
                        force: [0.0; 3],
                    });
                }
            }
        }
        // Zero the net momentum so the box does not drift.
        let n = atoms.len() as f64;
        let mut mean = [0.0; 3];
        for a in &atoms {
            for d in 0..3 {
                mean[d] += a.vel[d] / n;
            }
        }
        for a in atoms.iter_mut() {
            for d in 0..3 {
                a.vel[d] -= mean[d];
            }
        }
        let sr6 = (1.0 / cutoff).powi(6);
        MdSystem {
            box_l,
            x_lo,
            x_hi,
            cutoff,
            dt: 1.0e-3,
            atoms,
            ghosts: Vec::new(),
            u_shift: 4.0 * (sr6 * sr6 - sr6),
        }
    }

    /// Minimum-image displacement.
    #[inline]
    fn min_image(&self, mut d: f64) -> f64 {
        let l = self.box_l;
        if d > l / 2.0 {
            d -= l;
        } else if d < -l / 2.0 {
            d += l;
        }
        d
    }

    /// Exchange boundary-layer positions with the slab neighbours so every
    /// rank sees all atoms within the cutoff of its slab.
    pub(crate) fn exchange_ghosts(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        self.ghosts.clear();
        let pack = |atoms: &[Atom], pred: &dyn Fn(&Atom) -> bool| -> Vec<f64> {
            let mut buf = Vec::new();
            for a in atoms.iter().filter(|a| pred(a)) {
                buf.extend_from_slice(&a.pos);
            }
            buf
        };
        let cut = self.cutoff;
        let (lo, hi, l) = (self.x_lo, self.x_hi, self.box_l);
        // Periodic distance to a slab face.
        let near_lo = move |a: &Atom| {
            let d = (a.pos[0] - lo).rem_euclid(l);
            d < cut || d > l - cut
        };
        let near_hi = move |a: &Atom| {
            let d = (hi - a.pos[0]).rem_euclid(l);
            d < cut || d > l - cut
        };
        if comm.size() == 1 {
            // Single slab: ghosts are its own periodic images; minimum
            // image convention already handles them in force().
            return Ok(());
        }
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let to_right = pack(&self.atoms, &near_hi);
        let to_left = pack(&self.atoms, &near_lo);
        let from_left = comm.shift_f64(right, left, to_right)?;
        let from_right = comm.shift_f64(left, right, to_left)?;
        for buf in [from_left, from_right] {
            for chunk in buf.chunks_exact(3) {
                self.ghosts.push([chunk[0], chunk[1], chunk[2]]);
            }
        }
        Ok(())
    }

    /// Shifted Lennard-Jones pair force magnitude / r and energy at
    /// squared distance `r2` (zero beyond the cutoff).
    #[inline]
    fn lj(&self, r2: f64) -> (f64, f64) {
        if r2 >= self.cutoff * self.cutoff {
            return (0.0, 0.0);
        }
        let inv_r2 = 1.0 / r2;
        let sr6 = inv_r2 * inv_r2 * inv_r2;
        let sr12 = sr6 * sr6;
        // F/r = 24(2·r⁻¹²−r⁻⁶)/r²; U = 4(r⁻¹²−r⁻⁶) − U(r_c).
        let f_over_r = 24.0 * (2.0 * sr12 - sr6) * inv_r2;
        let u = 4.0 * (sr12 - sr6) - self.u_shift;
        (f_over_r, u)
    }

    /// Compute forces and return the local potential energy (pairs counted
    /// half for local-local, half for local-ghost by symmetry).
    pub(crate) fn compute_forces(&mut self) -> f64 {
        for a in self.atoms.iter_mut() {
            a.force = [0.0; 3];
        }
        let n = self.atoms.len();
        let mut potential = 0.0;
        // Local-local pairs.
        for i in 0..n {
            for j in i + 1..n {
                let (pi, pj) = (self.atoms[i].pos, self.atoms[j].pos);
                let d = [
                    self.min_image(pi[0] - pj[0]),
                    self.min_image(pi[1] - pj[1]),
                    self.min_image(pi[2] - pj[2]),
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                let (f_over_r, u) = self.lj(r2);
                if f_over_r != 0.0 {
                    potential += u;
                    for k in 0..3 {
                        let f = f_over_r * d[k];
                        self.atoms[i].force[k] += f;
                        self.atoms[j].force[k] -= f;
                    }
                }
            }
        }
        // Local-ghost pairs (half the pair energy is owned locally).
        let ghosts = std::mem::take(&mut self.ghosts);
        for i in 0..n {
            let pi = self.atoms[i].pos;
            for g in &ghosts {
                let d = [
                    self.min_image(pi[0] - g[0]),
                    self.min_image(pi[1] - g[1]),
                    self.min_image(pi[2] - g[2]),
                ];
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 < 1e-12 {
                    continue;
                }
                let (f_over_r, u) = self.lj(r2);
                if f_over_r != 0.0 {
                    potential += 0.5 * u;
                    for k in 0..3 {
                        self.atoms[i].force[k] += f_over_r * d[k];
                    }
                }
            }
        }
        self.ghosts = ghosts;
        potential
    }

    /// Local kinetic energy.
    pub fn kinetic(&self) -> f64 {
        0.5 * self
            .atoms
            .iter()
            .map(|a| a.vel.iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
    }

    /// One velocity-Verlet step; returns the local potential energy.
    pub fn step(&mut self, comm: &mut Comm) -> Result<f64, SimError> {
        let dt = self.dt;
        // Half kick + drift using the current forces.
        for a in self.atoms.iter_mut() {
            for d in 0..3 {
                a.vel[d] += 0.5 * dt * a.force[d];
                a.pos[d] += dt * a.vel[d];
            }
            for d in 0..3 {
                a.pos[d] = a.pos[d].rem_euclid(self.box_l);
            }
        }
        self.migrate(comm)?;
        self.exchange_ghosts(comm)?;
        let potential = self.compute_forces();
        // Second half kick.
        for a in self.atoms.iter_mut() {
            for d in 0..3 {
                a.vel[d] += 0.5 * dt * a.force[d];
            }
        }
        Ok(potential)
    }

    /// Initialize forces before the first step.
    pub fn prepare(&mut self, comm: &mut Comm) -> Result<f64, SimError> {
        self.exchange_ghosts(comm)?;
        Ok(self.compute_forces())
    }

    /// Ship atoms that left the slab to the owning neighbour.
    fn migrate(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        if comm.size() == 1 {
            return Ok(());
        }
        let p = comm.size() as f64;
        let slab = self.box_l / p;
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let mut staying = Vec::with_capacity(self.atoms.len());
        let mut to_left = Vec::new();
        let mut to_right = Vec::new();
        for a in self.atoms.drain(..) {
            let owner = ((a.pos[0] / slab) as u32).min(comm.size() - 1);
            if owner == comm.rank() {
                staying.push(a);
            } else if owner == right {
                to_right.extend_from_slice(&a.pos);
                to_right.extend_from_slice(&a.vel);
                to_right.extend_from_slice(&a.force);
            } else {
                to_left.extend_from_slice(&a.pos);
                to_left.extend_from_slice(&a.vel);
                to_left.extend_from_slice(&a.force);
            }
        }
        let from_right = comm.shift_f64(left, right, to_left)?;
        let from_left = comm.shift_f64(right, left, to_right)?;
        for buf in [from_left, from_right] {
            for c in buf.chunks_exact(9) {
                staying.push(Atom {
                    pos: [c[0], c[1], c[2]],
                    vel: [c[3], c[4], c[5]],
                    force: [c[6], c[7], c[8]],
                });
            }
        }
        self.atoms = staying;
        Ok(())
    }

    /// Global energies (kinetic, potential).
    pub(crate) fn global_energies(
        &self,
        comm: &mut Comm,
        potential_local: f64,
    ) -> Result<(f64, f64), SimError> {
        let ke = comm.allreduce_scalar(self.kinetic(), ReduceOp::Sum)?;
        let pe = comm.allreduce_scalar(potential_local, ReduceOp::Sum)?;
        Ok((ke, pe))
    }
}

impl Checkpointable for MdSystem {
    fn kind(&self) -> &'static str {
        "md-system"
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_f64(self.box_l);
        w.put_f64(self.x_lo);
        w.put_f64(self.x_hi);
        w.put_f64(self.cutoff);
        w.put_f64(self.dt);
        w.put_f64(self.u_shift);
        w.put_seq(&self.atoms, |w, a| {
            for v in a.pos.iter().chain(&a.vel).chain(&a.force) {
                w.put_f64(*v);
            }
        });
        // Ghosts are re-derivable by exchange_ghosts, but a snapshot
        // taken between exchange and integration must resume mid-step
        // bit-exactly, so they travel too.
        w.put_seq(&self.ghosts, |w, g| {
            for v in g {
                w.put_f64(*v);
            }
        });
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open("md-system", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let box_l = r.get_f64("box_l")?;
        let x_lo = r.get_f64("x_lo")?;
        let x_hi = r.get_f64("x_hi")?;
        let cutoff = r.get_f64("cutoff")?;
        let dt = r.get_f64("dt")?;
        let u_shift = r.get_f64("u_shift")?;
        let atoms = r.get_seq("atom count", |r| {
            let mut vals = [0.0; 9];
            for v in vals.iter_mut() {
                *v = r.get_f64("atom field")?;
            }
            Ok(Atom {
                pos: [vals[0], vals[1], vals[2]],
                vel: [vals[3], vals[4], vals[5]],
                force: [vals[6], vals[7], vals[8]],
            })
        })?;
        let ghosts = r.get_seq("ghost count", |r| {
            let mut g = [0.0; 3];
            for v in g.iter_mut() {
                *v = r.get_f64("ghost coordinate")?;
            }
            Ok(g)
        })?;
        r.expect_end()?;
        *self = MdSystem {
            box_l,
            x_lo,
            x_hi,
            cutoff,
            dt,
            atoms,
            ghosts,
            u_shift,
        };
        Ok(())
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
    fn two_isolated_atoms_feel_newtons_third_law() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 20.0, 1, 2.5, 1);
            sys.atoms.clear();
            sys.atoms.push(Atom {
                pos: [5.0, 5.0, 5.0],
                vel: [0.0; 3],
                force: [0.0; 3],
            });
            sys.atoms.push(Atom {
                pos: [6.2, 5.0, 5.0],
                vel: [0.0; 3],
                force: [0.0; 3],
            });
            sys.prepare(comm).unwrap();
            (sys.atoms[0].force, sys.atoms[1].force)
        });
        let (f0, f1) = results[0].value;
        for d in 0..3 {
            assert!((f0[d] + f1[d]).abs() < 1e-12);
        }
        // r = 1.2 > 2^(1/6): attractive — atom 0 pulled towards +x.
        assert!(f0[0] > 0.0);
    }

    #[test]
    fn minimum_at_r6_of_2() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 20.0, 1, 3.0, 1);
            let r_min = 2.0f64.powf(1.0 / 6.0);
            sys.atoms.clear();
            sys.atoms.push(Atom {
                pos: [5.0, 5.0, 5.0],
                vel: [0.0; 3],
                force: [0.0; 3],
            });
            sys.atoms.push(Atom {
                pos: [5.0 + r_min, 5.0, 5.0],
                vel: [0.0; 3],
                force: [0.0; 3],
            });
            sys.prepare(comm).unwrap();
            sys.atoms[0].force[0].abs()
        });
        assert!(
            results[0].value < 1e-10,
            "force at the LJ minimum: {}",
            results[0].value
        );
    }

    #[test]
    fn atom_count_is_conserved() {
        let results = world(1).run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 32, 1.5, 2);
            sys.prepare(comm).unwrap();
            let n0 = comm
                .allreduce_scalar(sys.atoms.len() as f64, ReduceOp::Sum)
                .unwrap();
            for _ in 0..20 {
                sys.step(comm).unwrap();
            }
            let n1 = comm
                .allreduce_scalar(sys.atoms.len() as f64, ReduceOp::Sum)
                .unwrap();
            (n0, n1)
        });
        for r in &results {
            assert_eq!(r.value.0, r.value.1);
        }
    }

    #[test]
    fn migration_keeps_each_buffers_role_and_order() {
        // Every rank holds, in order: a stayer, a left mover, a right
        // mover, a stayer, a right mover, each tagged (rank, k) in `vel`.
        // A rank keeps its stayers, then appends what its left neighbour
        // shipped right, then what its right neighbour shipped left. At
        // p = 2 the peer is both neighbours and ships every mover right.
        for p in [1u32, 2, 3, 5] {
            let w = World::per_node(Machine::juwels_booster().partition(p));
            let results = w.run(|comm| {
                let mut sys = MdSystem::lattice(comm, 20.0, 1, 2.5, 1);
                let (r, s) = (comm.rank() as f64, sys.box_l / p as f64);
                let x = [0.5, -0.1, 1.1, 0.5, 1.1];
                sys.atoms = (0..x.len())
                    .map(|k| Atom {
                        pos: [((r + x[k]) * s).rem_euclid(sys.box_l), 5.0, 5.0],
                        vel: [r, k as f64, 0.0],
                        force: [0.0; 3],
                    })
                    .collect();
                sys.migrate(comm).unwrap();
                sys.atoms
                    .iter()
                    .map(|a| (a.vel[0] as u32, a.vel[1] as usize))
                    .collect::<Vec<_>>()
            });
            for (r, got) in results.iter().enumerate() {
                let r = r as u32;
                let (left, right) = ((r + p - 1) % p, (r + 1) % p);
                let want: Vec<(u32, usize)> = match p {
                    1 => (0..5).map(|k| (r, k)).collect(),
                    2 => vec![(r, 0), (r, 3), (left, 1), (left, 2), (left, 4)],
                    _ => vec![(r, 0), (r, 3), (left, 2), (left, 4), (right, 1)],
                };
                assert_eq!(got.value, want, "p = {p}, rank {r}");
            }
        }
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let results = world(1).run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 24, 2.0, 3);
            let pe0 = sys.prepare(comm).unwrap();
            let (ke0, pe0) = sys.global_energies(comm, pe0).unwrap();
            let mut pe1 = 0.0;
            for _ in 0..100 {
                pe1 = sys.step(comm).unwrap();
            }
            let (ke1, pe1) = sys.global_energies(comm, pe1).unwrap();
            (ke0 + pe0, ke1 + pe1)
        });
        for r in &results {
            let (e0, e1) = r.value;
            let scale = e0.abs().max(1.0);
            assert!(
                (e1 - e0).abs() / scale < 0.05,
                "energy drifted from {e0} to {e1}"
            );
        }
    }

    #[test]
    fn momentum_is_conserved_on_a_single_rank() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 40, 2.0, 4);
            sys.prepare(comm).unwrap();
            for _ in 0..50 {
                sys.step(comm).unwrap();
            }
            let mut mom = [0.0; 3];
            for a in &sys.atoms {
                for d in 0..3 {
                    mom[d] += a.vel[d];
                }
            }
            mom
        });
        for d in 0..3 {
            assert!(
                results[0].value[d].abs() < 1e-9,
                "momentum {:?}",
                results[0].value
            );
        }
    }

    #[test]
    fn killed_and_resumed_md_run_is_bit_identical() {
        // Single-rank world: the snapshot carries the full simulation
        // state, so kill-after-10-steps + resume must match an
        // uninterrupted 20-step run atom for atom, bit for bit.
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let reference = w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 24, 2.0, 9);
            sys.prepare(comm).unwrap();
            for _ in 0..20 {
                sys.step(comm).unwrap();
            }
            sys.snapshot()
        });
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let resumed = w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 24, 2.0, 9);
            sys.prepare(comm).unwrap();
            for _ in 0..10 {
                sys.step(comm).unwrap();
            }
            let snap = sys.snapshot();
            // "Kill": rebuild from a different seed, then restore.
            let mut sys = MdSystem::lattice(comm, 8.0, 24, 2.0, 1234);
            sys.restore(&snap).unwrap();
            for _ in 0..10 {
                sys.step(comm).unwrap();
            }
            sys.snapshot()
        });
        assert_eq!(resumed[0].value, reference[0].value);
    }

    #[test]
    fn corrupt_md_snapshot_is_a_typed_error() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        w.run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 8, 2.0, 11);
            sys.prepare(comm).unwrap();
            let good = sys.snapshot();
            for cut in [0, 3, good.len() / 2, good.len() - 1] {
                assert!(sys.restore(&good[..cut]).is_err());
            }
            let mut bad = good.clone();
            *bad.last_mut().unwrap() ^= 0xFF;
            assert!(sys.restore(&bad).is_err());
            // Resealed, a forgery passes the checksum: the atom count
            // (after six f64s) and the ghost count (after the atoms)
            // must be refused on their own, before they size anything.
            let payload = open("md-system", &good).unwrap();
            let ghost_count_at = 56 + 72 * sys.atoms.len();
            for at in [48, ghost_count_at] {
                for forged in [1u64 << 60, 1 << 32, u64::MAX] {
                    let mut p = payload.clone();
                    p[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                    let err = sys.restore(&seal("md-system", &p)).unwrap_err();
                    assert!(matches!(err, CkptError::Truncated { .. }), "{err:?}");
                }
            }
            sys.restore(&good).unwrap();
        });
    }

    #[test]
    fn ghost_exchange_sees_cross_slab_pairs() {
        // Two atoms straddling a slab boundary must attract each other
        // even though they live on different ranks.
        let results = world(1).run(|comm| {
            let mut sys = MdSystem::lattice(comm, 8.0, 1, 2.5, 5);
            sys.atoms.clear();
            // Slabs are [0,2),[2,4),[4,6),[6,8) for 4 ranks.
            if comm.rank() == 0 {
                sys.atoms.push(Atom {
                    pos: [1.9, 4.0, 4.0],
                    vel: [0.0; 3],
                    force: [0.0; 3],
                });
            } else if comm.rank() == 1 {
                sys.atoms.push(Atom {
                    pos: [2.3, 4.0, 4.0],
                    vel: [0.0; 3],
                    force: [0.0; 3],
                });
            }
            sys.prepare(comm).unwrap();
            sys.atoms.first().map(|a| a.force[0])
        });
        // r = 0.4 — strongly repulsive: rank 0's atom pushed in −x.
        assert!(results[0].value.unwrap() < -1.0);
        assert!(results[1].value.unwrap() > 1.0);
    }
}
