//! The Cellular Potts Model on distributed blocks.
//!
//! Sites carry a cell id (0 = medium); cells have a type (two types for
//! the cell-sorting case). The Hamiltonian is the Graner-Glazier form:
//! adhesion energy J(τ₁, τ₂) over unlike nearest-neighbour site pairs plus
//! a volume constraint λ(V − V_target)². A Monte Carlo step attempts to
//! copy a random neighbour's id into a random site and accepts with the
//! Metropolis rule.
//!
//! Distribution: x-slabs; each sweep updates only interior sites (the
//! boundary layer is frozen within a sweep), then exchanges the boundary
//! planes — NAStJA's "blocks ... with boundaries being exchanged".

use std::collections::BTreeMap;

use jubench_kernels::rank_rng;
use jubench_kernels::DetRng;
use jubench_simmpi::{block_range, Comm, ReduceOp, SimError};

/// Cell types: medium (only id 0), plus two sorted cell kinds.
pub(crate) const TYPE_MEDIUM: u8 = 0;
pub(crate) const TYPE_A: u8 = 1;
pub(crate) const TYPE_B: u8 = 2;

/// Adhesion energies J(τ₁, τ₂) for the cell-sorting case: like cells
/// adhere more strongly (lower J) than unlike cells, and both prefer each
/// other over the medium — Steinberg's differential-adhesion setting.
pub(crate) fn adhesion(t1: u8, t2: u8) -> f64 {
    match (t1.min(t2), t1.max(t2)) {
        (TYPE_MEDIUM, TYPE_MEDIUM) => 0.0,
        (TYPE_MEDIUM, _) => 16.0,
        (TYPE_A, TYPE_A) => 2.0,
        (TYPE_B, TYPE_B) => 8.0,
        _ => 11.0, // A-B contact: weaker than like-like adhesion
    }
}

/// A rank-local x-slab of the global lattice.
pub struct PottsBlock {
    /// Global dims.
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Local slab `[x0, x1)` plus 1 ghost plane on each side.
    pub x0: usize,
    pub x1: usize,
    /// Site cell ids, padded in x: (lx + 2) × ny × nz.
    pub sites: Vec<u32>,
    /// Cell id → type, indexed by id; every site id indexes it.
    pub cell_type: Vec<u8>,
    /// Volume constraint strength and per-cell target volume.
    pub lambda: f64,
    pub v_target: f64,
    /// Metropolis temperature.
    pub temperature: f64,
    rng: DetRng,
}

impl PottsBlock {
    /// Random mixture of cubic cells of two types — the unsorted initial
    /// state of the cell-sorting experiment.
    pub(crate) fn cell_sorting(comm: &Comm, dims: [usize; 3], cell_side: usize, seed: u64) -> Self {
        let [nx, ny, nz] = dims;
        let p = comm.size() as usize;
        assert!(nx % p == 0, "nx must divide the rank count for equal slabs");
        assert!(nx % cell_side == 0 && ny % cell_side == 0 && nz % cell_side == 0);
        let slab = block_range(nx, p, comm.rank() as usize);
        let (x0, x1) = (slab.start, slab.end);
        let lx = x1 - x0;
        let plane = ny * nz;
        let mut sites = vec![0u32; (lx + 2) * plane];
        // Global deterministic cell layout: cell id from the cube index,
        // type alternating pseudo-randomly (same on every rank).
        let cells_x = nx / cell_side;
        let cells_y = ny / cell_side;
        let cells_z = nz / cell_side;
        let mut type_rng = rank_rng(seed, 0);
        let mut cell_type = vec![TYPE_MEDIUM];
        for _ in 0..cells_x * cells_y * cells_z {
            let t = if type_rng.gen_bool(0.5) {
                TYPE_A
            } else {
                TYPE_B
            };
            cell_type.push(t);
        }
        let cell_id = |gx: usize, gy: usize, gz: usize| -> u32 {
            let cx = gx / cell_side;
            let cy = gy / cell_side;
            let cz = gz / cell_side;
            ((cx * cells_y + cy) * cells_z + cz) as u32 + 1
        };
        for ix in 0..lx {
            for iy in 0..ny {
                for iz in 0..nz {
                    sites[((ix + 1) * ny + iy) * nz + iz] = cell_id(x0 + ix, iy, iz);
                }
            }
        }
        PottsBlock {
            nx,
            ny,
            nz,
            x0,
            x1,
            sites,
            cell_type,
            lambda: 1.0,
            v_target: (cell_side * cell_side * cell_side) as f64,
            temperature: 3.0,
            rng: rank_rng(seed ^ 0x90775, comm.rank()),
        }
    }

    fn lx(&self) -> usize {
        self.x1 - self.x0
    }

    #[inline]
    fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        // ix is padded: 0 = low ghost, 1..=lx interior, lx+1 = high ghost.
        (ix * self.ny + iy) * self.nz + iz
    }

    /// Flat indices of the six neighbours of padded site (ix, iy, iz) in
    /// the frozen order −x, +x, +y, −y, +z, −z: `sweep`'s direction draw
    /// indexes it and `delta_e` adds over it in this order.
    #[inline]
    fn neighbours(&self, ix: usize, iy: usize, iz: usize) -> [usize; 6] {
        [
            self.idx(ix - 1, iy, iz),
            self.idx(ix + 1, iy, iz),
            self.idx(ix, wrap_up(iy, self.ny), iz),
            self.idx(ix, wrap_down(iy, self.ny), iz),
            self.idx(ix, iy, wrap_up(iz, self.nz)),
            self.idx(ix, iy, wrap_down(iz, self.nz)),
        ]
    }

    #[inline]
    fn type_of(&self, id: u32) -> u8 {
        self.cell_type[id as usize]
    }

    /// Local volume of every cell id (interior sites only), indexed by id.
    fn volume_table(&self) -> Vec<u64> {
        let plane = self.ny * self.nz;
        let mut v = vec![0; self.cell_type.len()];
        for &id in &self.sites[plane..(self.lx() + 1) * plane] {
            v[id as usize] += 1;
        }
        v
    }

    /// Local volume of each cell id present (interior sites only).
    pub fn volumes(&self) -> BTreeMap<u32, u64> {
        present(&self.volume_table())
            .map(|(id, v)| (id as u32, v))
            .collect()
    }

    /// Local adhesion + volume energy (volume part uses the local volume
    /// share; adequate for monitoring energy descent).
    pub(crate) fn local_energy(&self) -> f64 {
        let mut adhesion_e = 0.0;
        let lx = self.lx();
        for ix in 1..=lx {
            for iy in 0..self.ny {
                for iz in 0..self.nz {
                    let id = self.sites[self.idx(ix, iy, iz)];
                    let t = self.type_of(id);
                    // Forward neighbours only (each pair counted once);
                    // periodic in y/z, ghost in +x.
                    let neighbours = [
                        self.sites[self.idx(ix + 1, iy, iz)],
                        self.sites[self.idx(ix, wrap_up(iy, self.ny), iz)],
                        self.sites[self.idx(ix, iy, wrap_up(iz, self.nz))],
                    ];
                    for nid in neighbours {
                        if nid != id {
                            adhesion_e += adhesion(t, self.type_of(nid));
                        }
                    }
                }
            }
        }
        // Ascending id, medium and empty ids skipped: the order of the sum
        // is frozen.
        let volume_e: f64 = present(&self.volume_table())
            .filter(|&(id, _)| id != 0)
            .map(|(_, v)| self.lambda * (v as f64 - self.v_target).powi(2))
            .sum();
        adhesion_e + volume_e
    }

    /// Energy change of copying `new_id` into `site`, whose neighbours are
    /// `neighbours`.
    #[inline]
    fn delta_e(&self, site: usize, neighbours: &[usize; 6], new_id: u32, volumes: &[u64]) -> f64 {
        let old_id = self.sites[site];
        let (t_old, t_new) = (self.type_of(old_id), self.type_of(new_id));
        let mut de = 0.0;
        for &j in neighbours {
            let nid = self.sites[j];
            let tn = self.type_of(nid);
            let before = if nid != old_id {
                adhesion(t_old, tn)
            } else {
                0.0
            };
            let after = if nid != new_id {
                adhesion(t_new, tn)
            } else {
                0.0
            };
            de += after - before;
        }
        // Volume terms.
        if old_id != 0 {
            let v = volumes[old_id as usize] as f64;
            de += self.lambda * ((v - 1.0 - self.v_target).powi(2) - (v - self.v_target).powi(2));
        }
        if new_id != 0 {
            let v = volumes[new_id as usize] as f64;
            de += self.lambda * ((v + 1.0 - self.v_target).powi(2) - (v - self.v_target).powi(2));
        }
        de
    }

    /// One Monte Carlo sweep: as many copy attempts as interior sites,
    /// then a boundary exchange. Returns the number of accepted copies.
    pub fn sweep(&mut self, comm: &mut Comm) -> Result<u64, SimError> {
        let lx = self.lx();
        let mut volumes = self.volume_table();
        let mut accepted = 0;
        // Interior sites only — ix ∈ [2, lx−1] in padded coords keeps a
        // one-plane safety margin so ghost data stays consistent within
        // the sweep (for lx < 3 the sweep degenerates).
        let attempts = if lx < 3 { 0 } else { lx * self.ny * self.nz };
        for _ in 0..attempts {
            let ix = self.rng.gen_range(2..lx);
            let iy = self.rng.gen_range(0..self.ny);
            let iz = self.rng.gen_range(0..self.nz);
            // Random 6-neighbour source.
            let dir = self.rng.gen_range(0..6u8);
            let site = self.idx(ix, iy, iz);
            let neighbours = self.neighbours(ix, iy, iz);
            let new_id = self.sites[neighbours[dir as usize]];
            let old_id = self.sites[site];
            if new_id == old_id {
                continue;
            }
            let de = self.delta_e(site, &neighbours, new_id, &volumes);
            let accept = de <= 0.0 || {
                let u: f64 = self.rng.gen_range(0.0..1.0);
                u < (-de / self.temperature).exp()
            };
            if accept {
                self.sites[site] = new_id;
                volumes[old_id as usize] -= 1;
                volumes[new_id as usize] += 1;
                accepted += 1;
            }
        }
        self.exchange_boundaries(comm)?;
        Ok(accepted)
    }

    /// Exchange the boundary planes with the slab neighbours (periodic).
    fn exchange_boundaries(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        let plane = self.ny * self.nz;
        let lx = self.lx();
        // Site ids travel as `f64`, which holds every `u32` exactly.
        let as_f64 = |ids: &[u32]| ids.iter().map(|&id| f64::from(id)).collect();
        let low = as_f64(&self.sites[plane..2 * plane]);
        let high = as_f64(&self.sites[lx * plane..(lx + 1) * plane]);
        let right = (comm.rank() + 1) % comm.size();
        let left = (comm.rank() + comm.size() - 1) % comm.size();
        let from_left = comm.shift_f64(right, left, high)?;
        let from_right = comm.shift_f64(left, right, low)?;
        for (q, v) in from_left.iter().enumerate() {
            self.sites[q] = *v as u32;
        }
        for (q, v) in from_right.iter().enumerate() {
            self.sites[(lx + 1) * plane + q] = *v as u32;
        }
        Ok(())
    }

    /// Global site count per type — the total tissue composition.
    pub(crate) fn global_type_volumes(&self, comm: &mut Comm) -> Result<[f64; 3], SimError> {
        let mut local = [0.0f64; 3];
        for (id, v) in present(&self.volume_table()) {
            local[self.cell_type[id] as usize] += v as f64;
        }
        let mut out = [0.0; 3];
        for (t, l) in local.into_iter().enumerate() {
            out[t] = comm.allreduce_scalar(l, ReduceOp::Sum)?;
        }
        Ok(out)
    }
}

/// `(i + 1) % n` for `i < n`, without the division.
#[inline]
fn wrap_up(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// `(i + n - 1) % n` for `i < n`, without the division.
#[inline]
fn wrap_down(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

/// The `(id, volume)` pairs of a volume table in ascending id, empty ids
/// skipped — the entries a map of the present ids holds.
fn present(volumes: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
    volumes
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v > 0)
        .map(|(id, &v)| (id, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_simmpi::World;

    fn world4() -> World {
        World::per_node(Machine::juwels_booster().partition(4))
    }

    #[test]
    fn adhesion_matrix_favours_sorting() {
        // Like-like contacts must be cheaper than unlike contacts.
        assert!(adhesion(TYPE_A, TYPE_A) < adhesion(TYPE_A, TYPE_B));
        assert!(adhesion(TYPE_B, TYPE_B) < adhesion(TYPE_A, TYPE_B));
        assert!(adhesion(TYPE_MEDIUM, TYPE_A) > adhesion(TYPE_A, TYPE_B));
        // Symmetry.
        assert_eq!(adhesion(TYPE_A, TYPE_B), adhesion(TYPE_B, TYPE_A));
    }

    #[test]
    fn initial_state_tiles_the_lattice() {
        let results = world4().run(|comm| {
            let block = PottsBlock::cell_sorting(comm, [8, 8, 8], 4, 1);
            block.volumes().values().sum::<u64>()
        });
        let total: u64 = results.iter().map(|r| r.value).sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn type_volumes_are_conserved_under_sweeps() {
        // Copy attempts move cell boundaries but the global composition
        // changes only by boundary moves — total sites stay constant.
        let results = world4().run(|comm| {
            let mut block = PottsBlock::cell_sorting(comm, [16, 8, 8], 4, 2);
            let before: u64 = block.volumes().values().sum();
            for _ in 0..5 {
                block.sweep(comm).unwrap();
            }
            let after: u64 = block.volumes().values().sum();
            (before, after)
        });
        for r in &results {
            assert_eq!(r.value.0, r.value.1, "sites appeared/vanished");
        }
    }

    #[test]
    fn annealing_relaxes_the_roughened_tissue() {
        // Hot phase roughens the perfect tiling (moves get accepted), a
        // cold phase then strictly relaxes: at T → 0 only ΔE ≤ 0 moves
        // pass the Metropolis test, so the energy cannot increase and in
        // practice drops markedly.
        let results = world4().run(|comm| {
            let mut block = PottsBlock::cell_sorting(comm, [16, 8, 8], 4, 3);
            block.temperature = 50.0;
            for _ in 0..5 {
                block.sweep(comm).unwrap();
            }
            let e_hot = comm
                .allreduce_scalar(block.local_energy(), ReduceOp::Sum)
                .unwrap();
            block.temperature = 0.01;
            for _ in 0..10 {
                block.sweep(comm).unwrap();
            }
            let e_cold = comm
                .allreduce_scalar(block.local_energy(), ReduceOp::Sum)
                .unwrap();
            (e_hot, e_cold)
        });
        for r in &results {
            assert!(
                r.value.1 < r.value.0,
                "energy {} → {}",
                r.value.0,
                r.value.1
            );
        }
    }

    #[test]
    fn hot_sweeps_accept_moves() {
        let results = world4().run(|comm| {
            let mut block = PottsBlock::cell_sorting(comm, [16, 8, 8], 4, 4);
            block.temperature = 50.0;
            let mut total = 0;
            for _ in 0..3 {
                total += block.sweep(comm).unwrap();
            }
            total
        });
        for r in &results {
            assert!(r.value > 0, "no moves accepted on rank {}", r.rank);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            world4().run(move |comm| {
                let mut block = PottsBlock::cell_sorting(comm, [16, 8, 8], 4, seed);
                for _ in 0..3 {
                    block.sweep(comm).unwrap();
                }
                block.local_energy()
            })
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.value != y.value));
    }
}

/// The parent's block, kept verbatim (but for `delta_e`'s visibility) as
/// the oracle: `BTreeMap` type and volume tables, periodic wraps by `%`.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{adhesion, TYPE_A, TYPE_B, TYPE_MEDIUM};
    use jubench_kernels::{rank_rng, DetRng};
    use jubench_simmpi::{Comm, ReduceOp, SimError};

    /// A rank-local x-slab of the global lattice.
    pub struct PottsBlock {
        /// Global dims.
        pub nx: usize,
        pub ny: usize,
        pub nz: usize,
        /// Local slab `[x0, x1)` plus 1 ghost plane on each side.
        pub x0: usize,
        pub x1: usize,
        /// Site cell ids, padded in x: (lx + 2) × ny × nz.
        pub sites: Vec<u32>,
        /// Cell id → type.
        pub cell_type: BTreeMap<u32, u8>,
        /// Volume constraint strength and per-cell target volume.
        pub lambda: f64,
        pub v_target: f64,
        /// Metropolis temperature.
        pub temperature: f64,
        rng: DetRng,
    }

    impl PottsBlock {
        /// Random mixture of cubic cells of two types — the unsorted initial
        /// state of the cell-sorting experiment.
        pub(crate) fn cell_sorting(
            comm: &Comm,
            dims: [usize; 3],
            cell_side: usize,
            seed: u64,
        ) -> Self {
            let [nx, ny, nz] = dims;
            let p = comm.size() as usize;
            assert!(nx % p == 0, "nx must divide the rank count for equal slabs");
            assert!(nx % cell_side == 0 && ny % cell_side == 0 && nz % cell_side == 0);
            let lx = nx / p;
            let x0 = comm.rank() as usize * lx;
            let x1 = x0 + lx;
            let plane = ny * nz;
            let mut sites = vec![0u32; (lx + 2) * plane];
            // Global deterministic cell layout: cell id from the cube index,
            // type alternating pseudo-randomly (same on every rank).
            let cells_x = nx / cell_side;
            let cells_y = ny / cell_side;
            let cells_z = nz / cell_side;
            let mut type_rng = rank_rng(seed, 0);
            let mut cell_type = BTreeMap::new();
            cell_type.insert(0, TYPE_MEDIUM);
            for c in 0..cells_x * cells_y * cells_z {
                let t = if type_rng.gen_bool(0.5) {
                    TYPE_A
                } else {
                    TYPE_B
                };
                cell_type.insert(c as u32 + 1, t);
            }
            let cell_id = |gx: usize, gy: usize, gz: usize| -> u32 {
                let cx = gx / cell_side;
                let cy = gy / cell_side;
                let cz = gz / cell_side;
                ((cx * cells_y + cy) * cells_z + cz) as u32 + 1
            };
            for ix in 0..lx {
                for iy in 0..ny {
                    for iz in 0..nz {
                        sites[((ix + 1) * ny + iy) * nz + iz] = cell_id(x0 + ix, iy, iz);
                    }
                }
            }
            PottsBlock {
                nx,
                ny,
                nz,
                x0,
                x1,
                sites,
                cell_type,
                lambda: 1.0,
                v_target: (cell_side * cell_side * cell_side) as f64,
                temperature: 3.0,
                rng: rank_rng(seed ^ 0x90775, comm.rank()),
            }
        }

        fn lx(&self) -> usize {
            self.x1 - self.x0
        }

        #[inline]
        fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
            // ix is padded: 0 = low ghost, 1..=lx interior, lx+1 = high ghost.
            (ix * self.ny + iy) * self.nz + iz
        }

        fn type_of(&self, id: u32) -> u8 {
            *self.cell_type.get(&id).unwrap_or(&TYPE_MEDIUM)
        }

        /// Local volume of each cell id (interior sites only).
        pub fn volumes(&self) -> BTreeMap<u32, u64> {
            let mut v = BTreeMap::new();
            for ix in 1..=self.lx() {
                for iy in 0..self.ny {
                    for iz in 0..self.nz {
                        *v.entry(self.sites[self.idx(ix, iy, iz)]).or_insert(0) += 1;
                    }
                }
            }
            v
        }

        /// Local adhesion + volume energy (volume part uses the local volume
        /// share; adequate for monitoring energy descent).
        pub(crate) fn local_energy(&self) -> f64 {
            let mut adhesion_e = 0.0;
            let lx = self.lx();
            for ix in 1..=lx {
                for iy in 0..self.ny {
                    for iz in 0..self.nz {
                        let id = self.sites[self.idx(ix, iy, iz)];
                        let t = self.type_of(id);
                        // Forward neighbours only (each pair counted once);
                        // periodic in y/z, ghost in +x.
                        let neighbours = [
                            self.sites[self.idx(ix + 1, iy, iz)],
                            self.sites[self.idx(ix, (iy + 1) % self.ny, iz)],
                            self.sites[self.idx(ix, iy, (iz + 1) % self.nz)],
                        ];
                        for nid in neighbours {
                            if nid != id {
                                adhesion_e += adhesion(t, self.type_of(nid));
                            }
                        }
                    }
                }
            }
            let volume_e: f64 = self
                .volumes()
                .iter()
                .filter(|(id, _)| **id != 0)
                .map(|(_, &v)| self.lambda * (v as f64 - self.v_target).powi(2))
                .sum();
            adhesion_e + volume_e
        }

        /// Energy change of copying `new_id` into site (ix, iy, iz).
        pub(crate) fn delta_e(
            &self,
            ix: usize,
            iy: usize,
            iz: usize,
            new_id: u32,
            volumes: &BTreeMap<u32, u64>,
        ) -> f64 {
            let old_id = self.sites[self.idx(ix, iy, iz)];
            let (t_old, t_new) = (self.type_of(old_id), self.type_of(new_id));
            let mut de = 0.0;
            let neigh = [
                (ix - 1, iy, iz),
                (ix + 1, iy, iz),
                (ix, (iy + 1) % self.ny, iz),
                (ix, (iy + self.ny - 1) % self.ny, iz),
                (ix, iy, (iz + 1) % self.nz),
                (ix, iy, (iz + self.nz - 1) % self.nz),
            ];
            for (jx, jy, jz) in neigh {
                let nid = self.sites[self.idx(jx, jy, jz)];
                let tn = self.type_of(nid);
                let before = if nid != old_id {
                    adhesion(t_old, tn)
                } else {
                    0.0
                };
                let after = if nid != new_id {
                    adhesion(t_new, tn)
                } else {
                    0.0
                };
                de += after - before;
            }
            // Volume terms.
            let vol = |id: u32| *volumes.get(&id).unwrap_or(&0) as f64;
            if old_id != 0 {
                let v = vol(old_id);
                de +=
                    self.lambda * ((v - 1.0 - self.v_target).powi(2) - (v - self.v_target).powi(2));
            }
            if new_id != 0 {
                let v = vol(new_id);
                de +=
                    self.lambda * ((v + 1.0 - self.v_target).powi(2) - (v - self.v_target).powi(2));
            }
            de
        }

        /// One Monte Carlo sweep: as many copy attempts as interior sites,
        /// then a boundary exchange. Returns the number of accepted copies.
        pub fn sweep(&mut self, comm: &mut Comm) -> Result<u64, SimError> {
            let lx = self.lx();
            let mut volumes = self.volumes();
            let attempts = lx * self.ny * self.nz;
            let mut accepted = 0;
            for _ in 0..attempts {
                // Interior sites only — ix ∈ [2, lx−1] in padded coords keeps a
                // one-plane safety margin so ghost data stays consistent
                // within the sweep (for lx < 3 the sweep degenerates).
                if lx < 3 {
                    break;
                }
                let ix = self.rng.gen_range(2..lx);
                let iy = self.rng.gen_range(0..self.ny);
                let iz = self.rng.gen_range(0..self.nz);
                // Random 6-neighbour source.
                let dir = self.rng.gen_range(0..6u8);
                let (jx, jy, jz) = match dir {
                    0 => (ix - 1, iy, iz),
                    1 => (ix + 1, iy, iz),
                    2 => (ix, (iy + 1) % self.ny, iz),
                    3 => (ix, (iy + self.ny - 1) % self.ny, iz),
                    4 => (ix, iy, (iz + 1) % self.nz),
                    _ => (ix, iy, (iz + self.nz - 1) % self.nz),
                };
                let new_id = self.sites[self.idx(jx, jy, jz)];
                let old_id = self.sites[self.idx(ix, iy, iz)];
                if new_id == old_id {
                    continue;
                }
                let de = self.delta_e(ix, iy, iz, new_id, &volumes);
                let accept = de <= 0.0 || {
                    let u: f64 = self.rng.gen_range(0.0..1.0);
                    u < (-de / self.temperature).exp()
                };
                if accept {
                    let idx = self.idx(ix, iy, iz);
                    self.sites[idx] = new_id;
                    *volumes.entry(old_id).or_insert(1) -= 1;
                    *volumes.entry(new_id).or_insert(0) += 1;
                    accepted += 1;
                }
            }
            self.exchange_boundaries(comm)?;
            Ok(accepted)
        }

        /// Exchange the boundary planes with the slab neighbours (periodic).
        fn exchange_boundaries(&mut self, comm: &mut Comm) -> Result<(), SimError> {
            let plane = self.ny * self.nz;
            let lx = self.lx();
            let low: Vec<f64> = (0..plane).map(|q| self.sites[plane + q] as f64).collect();
            let high: Vec<f64> = (0..plane)
                .map(|q| self.sites[lx * plane + q] as f64)
                .collect();
            let (from_left, from_right) = if comm.size() == 1 {
                (high.clone(), low.clone())
            } else {
                let right = (comm.rank() + 1) % comm.size();
                let left = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send_f64(right, &high)?;
                comm.send_f64(left, &low)?;
                (comm.recv_f64(left)?, comm.recv_f64(right)?)
            };
            for (q, v) in from_left.iter().enumerate() {
                self.sites[q] = *v as u32;
            }
            for (q, v) in from_right.iter().enumerate() {
                self.sites[(lx + 1) * plane + q] = *v as u32;
            }
            Ok(())
        }

        /// Global site count per type — the total tissue composition.
        pub(crate) fn global_type_volumes(&self, comm: &mut Comm) -> Result<[f64; 3], SimError> {
            let mut local = [0.0f64; 3];
            for (id, v) in self.volumes() {
                local[self.type_of(id) as usize] += v as f64;
            }
            let mut out = [0.0; 3];
            for (t, l) in local.into_iter().enumerate() {
                out[t] = comm.allreduce_scalar(l, ReduceOp::Sum)?;
            }
            Ok(out)
        }
    }
}

/// Bit-identity with [`reference`]: a swapped wrap, a volume moved on the
/// wrong id, a type table off by one id or a reordered energy sum fails
/// these.
#[cfg(test)]
mod oracle {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_simmpi::World;

    /// Sites, accepted count and energy bits after each of a hot and a
    /// cold phase, then the composition bits.
    type Trace = (Vec<(Vec<u32>, u64, u64)>, [u64; 3]);

    /// `(cell_side, lambda, v_target)`: NAStJA's tissue, whose energies
    /// are integers and so exact in any order, and a finer one whose
    /// volume sums round, so that an order change shows in the bits.
    const TISSUES: [(usize, f64, f64); 2] = [(4, 1.0, 64.0), (2, 0.37, 7.3)];

    /// NAStJA's two phases on both blocks, side by side on every rank.
    fn traces(ranks: u32, seed: u64, tissue: (usize, f64, f64)) -> Vec<(Trace, Trace)> {
        let (cell_side, lambda, v_target) = tissue;
        let world = World::per_node(Machine::juwels_booster().partition(ranks));
        world
            .run(move |comm| {
                let dims = [4 * ranks as usize, 8, 8];
                let mut block = PottsBlock::cell_sorting(comm, dims, cell_side, seed);
                let mut parent = reference::PottsBlock::cell_sorting(comm, dims, cell_side, seed);
                (block.lambda, block.v_target) = (lambda, v_target);
                (parent.lambda, parent.v_target) = (lambda, v_target);
                let (mut ours, mut theirs) = (Vec::new(), Vec::new());
                for (temperature, sweeps) in [(50.0, 5), (0.01, 10)] {
                    block.temperature = temperature;
                    parent.temperature = temperature;
                    let (mut accepted, mut accepted_ref) = (0, 0);
                    for _ in 0..sweeps {
                        accepted += block.sweep(comm).unwrap();
                        accepted_ref += parent.sweep(comm).unwrap();
                    }
                    ours.push((
                        block.sites.clone(),
                        accepted,
                        block.local_energy().to_bits(),
                    ));
                    theirs.push((
                        parent.sites.clone(),
                        accepted_ref,
                        parent.local_energy().to_bits(),
                    ));
                }
                let composition = |c: [f64; 3]| c.map(f64::to_bits);
                let mine = composition(block.global_type_volumes(comm).unwrap());
                let reference = composition(parent.global_type_volumes(comm).unwrap());
                ((ours, mine), (theirs, reference))
            })
            .into_iter()
            .map(|r| r.value)
            .collect()
    }

    #[test]
    fn the_initial_tables_match_the_reference() {
        World::per_node(Machine::juwels_booster().partition(4)).run(|comm| {
            let block = PottsBlock::cell_sorting(comm, [16, 8, 12], 4, 9);
            let parent = reference::PottsBlock::cell_sorting(comm, [16, 8, 12], 4, 9);
            assert_eq!(
                (block.nx, block.ny, block.nz, block.x0, block.x1),
                (parent.nx, parent.ny, parent.nz, parent.x0, parent.x1)
            );
            let types: Vec<(u32, u8)> = parent.cell_type.into_iter().collect();
            let dense: Vec<(u32, u8)> = (0..).zip(block.cell_type).collect();
            assert_eq!(dense, types);
            assert_eq!(block.sites, parent.sites);
        });
    }

    #[test]
    fn delta_e_matches_the_reference_for_every_copy() {
        // ΔE reaches a sweep only through the accept decision, which a
        // one-ulp difference rarely flips: compare it directly, on a
        // roughened rounding tissue, for every site and direction.
        let (cell_side, lambda, v_target) = TISSUES[1];
        World::per_node(Machine::juwels_booster().partition(2)).run(|comm| {
            let mut block = PottsBlock::cell_sorting(comm, [12, 8, 8], cell_side, 5);
            let mut parent = reference::PottsBlock::cell_sorting(comm, [12, 8, 8], cell_side, 5);
            (block.lambda, block.v_target, block.temperature) = (lambda, v_target, 50.0);
            (parent.lambda, parent.v_target, parent.temperature) = (lambda, v_target, 50.0);
            for _ in 0..3 {
                block.sweep(comm).unwrap();
                parent.sweep(comm).unwrap();
            }
            let (volumes, volume_map) = (block.volume_table(), parent.volumes());
            for ix in 1..=block.lx() {
                for iy in 0..block.ny {
                    for iz in 0..block.nz {
                        let neighbours = block.neighbours(ix, iy, iz);
                        let site = block.idx(ix, iy, iz);
                        for j in neighbours {
                            let new_id = block.sites[j];
                            assert_eq!(
                                block.delta_e(site, &neighbours, new_id, &volumes).to_bits(),
                                parent.delta_e(ix, iy, iz, new_id, &volume_map).to_bits(),
                                "site ({ix}, {iy}, {iz}), copy of {new_id}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn sweeps_match_the_reference_on_every_rank_count() {
        for ranks in 1..=16 {
            for seed in [1, 2, 3, 7, 2024, 0xC0FFEE] {
                for tissue in TISSUES {
                    let traces = traces(ranks, seed, tissue);
                    for (rank, (ours, theirs)) in traces.into_iter().enumerate() {
                        assert!(
                            ours == theirs,
                            "{ranks} ranks, seed {seed}, {tissue:?}, rank {rank}"
                        );
                    }
                }
            }
        }
    }
}
