//! The distributed 4D lattice: block decomposition, link storage, halo
//! exchange, and the plaquette observable.

use jubench_kernels::{DetRng, C64};
use jubench_simmpi::{Comm, SimError};

use crate::su3::{ColorVector, Su3};

/// A fermion field on the local block, with ghost faces for both
/// directions of every dimension.
#[derive(Debug, Clone)]
pub struct FermionField {
    pub v: Vec<ColorVector>,
    /// `ghosts[dim][0]` = face beyond the low boundary, `[1]` = beyond high.
    pub ghosts: [[Vec<ColorVector>; 2]; 4],
}

/// The rank-local part of a periodic 4D lattice.
pub struct LocalLattice {
    /// Local block extents.
    pub dims: [usize; 4],
    /// Process-grid extents.
    pub rank_dims: [u32; 4],
    /// This rank's coordinates in the process grid.
    pub rank_coord: [u32; 4],
    /// Gauge links: per local site, one SU(3) matrix per direction.
    pub links: Vec<[Su3; 4]>,
    /// Backward ghost links: `link_ghost[d]` holds the μ=d links of the
    /// low-side neighbour's high face (needed for the backward hop).
    pub link_ghost: [Vec<Su3>; 4],
}

/// Decompose `rank` into process-grid coordinates (row-major).
pub(crate) fn rank_to_coord(rank: u32, rank_dims: [u32; 4]) -> [u32; 4] {
    let mut r = rank;
    let mut c = [0u32; 4];
    for d in (0..4).rev() {
        c[d] = r % rank_dims[d];
        r /= rank_dims[d];
    }
    c
}

/// Compose process-grid coordinates into a rank (row-major).
pub(crate) fn coord_to_rank(c: [u32; 4], rank_dims: [u32; 4]) -> u32 {
    (((c[0] * rank_dims[1] + c[1]) * rank_dims[2] + c[2]) * rank_dims[3]) + c[3]
}

impl LocalLattice {
    /// Number of local sites.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    #[inline]
    pub fn index(&self, x: [usize; 4]) -> usize {
        ((x[0] * self.dims[1] + x[1]) * self.dims[2] + x[2]) * self.dims[3] + x[3]
    }

    /// Global coordinate of a local site along dimension `d`.
    #[inline]
    pub(crate) fn global_coord(&self, x: [usize; 4], d: usize) -> u64 {
        self.rank_coord[d] as u64 * self.dims[d] as u64 + x[d] as u64
    }

    /// Staggered phase η_μ(x) = (−1)^{x₀+…+x_{μ−1}} with global coords.
    #[inline]
    pub(crate) fn eta(&self, x: [usize; 4], mu: usize) -> f64 {
        let mut s = 0u64;
        for d in 0..mu {
            s += self.global_coord(x, d);
        }
        if s.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    }

    /// A cold (unit-link) lattice.
    pub fn cold(comm: &Comm, local_dims: [usize; 4], rank_dims: [u32; 4]) -> Self {
        assert_eq!(
            rank_dims.iter().product::<u32>(),
            comm.size(),
            "process grid must match communicator size"
        );
        let volume: usize = local_dims.iter().product();
        let face = |d: usize| volume / local_dims[d];
        LocalLattice {
            dims: local_dims,
            rank_dims,
            rank_coord: rank_to_coord(comm.rank(), rank_dims),
            links: vec![[Su3::identity(); 4]; volume],
            link_ghost: std::array::from_fn(|d| vec![Su3::identity(); face(d)]),
        }
    }

    /// A hot lattice: "The 4D lattice is initialized with a random SU(3)
    /// element on each link." Ghost links must be exchanged afterwards.
    pub fn hot(
        comm: &mut Comm,
        local_dims: [usize; 4],
        rank_dims: [u32; 4],
        rng: &mut DetRng,
    ) -> Result<Self, SimError> {
        let mut lat = Self::cold(comm, local_dims, rank_dims);
        for site in lat.links.iter_mut() {
            for mu in 0..4 {
                site[mu] = Su3::random(rng);
            }
        }
        lat.exchange_links(comm)?;
        Ok(lat)
    }

    /// Neighbour rank in dimension `d`, direction `dir` (±1), periodic.
    pub(crate) fn neighbor_rank(&self, d: usize, dir: i32) -> u32 {
        let mut c = self.rank_coord;
        let ext = self.rank_dims[d];
        c[d] = ((c[d] as i64 + dir as i64).rem_euclid(ext as i64)) as u32;
        coord_to_rank(c, self.rank_dims)
    }

    /// Iterate the local coordinates of the face where `x[d] == fixed`,
    /// in lexicographic order of the remaining coordinates, calling `f`
    /// with (local site coords, running face offset).
    fn for_face(&self, d: usize, fixed: usize, mut f: impl FnMut([usize; 4], usize)) {
        let mut offset = 0;
        let dims = self.dims;
        let mut x = [0usize; 4];
        // Lexicographic loop over the three free dimensions.
        let free: Vec<usize> = (0..4).filter(|&k| k != d).collect();
        let (f0, f1, f2) = (free[0], free[1], free[2]);
        for a in 0..dims[f0] {
            for b in 0..dims[f1] {
                for c in 0..dims[f2] {
                    x[f0] = a;
                    x[f1] = b;
                    x[f2] = c;
                    x[d] = fixed;
                    f(x, offset);
                    offset += 1;
                }
            }
        }
    }

    /// Face offset of a site on a face of dimension `d` (must match the
    /// `for_face` ordering).
    #[inline]
    pub(crate) fn face_offset(&self, d: usize, x: [usize; 4]) -> usize {
        let free: Vec<usize> = (0..4).filter(|&k| k != d).collect();
        ((x[free[0]] * self.dims[free[1]]) + x[free[1]]) * self.dims[free[2]] + x[free[2]]
    }

    /// Exchange the backward link ghosts: each rank sends, for every
    /// dimension d, the μ=d links of its *high* face to the forward
    /// neighbour, receiving the corresponding face from the backward
    /// neighbour.
    pub(crate) fn exchange_links(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        for d in 0..4 {
            let mut payload: Vec<f64> = Vec::new();
            self.for_face(d, self.dims[d] - 1, |x, _| {
                let u = &self.links[self.index(x)][d];
                for row in &u.0 {
                    for c in row {
                        payload.push(c.re);
                        payload.push(c.im);
                    }
                }
            });
            let fwd = self.neighbor_rank(d, 1);
            let bwd = self.neighbor_rank(d, -1);
            let incoming = comm.shift_f64(fwd, bwd, payload)?;
            let face_len = self.volume() / self.dims[d];
            assert_eq!(incoming.len(), face_len * 18);
            for (i, chunk) in incoming.chunks_exact(18).enumerate() {
                let mut m = [[C64::ZERO; 3]; 3];
                for r in 0..3 {
                    for c in 0..3 {
                        let k = (r * 3 + c) * 2;
                        m[r][c] = C64::new(chunk[k], chunk[k + 1]);
                    }
                }
                self.link_ghost[d][i] = Su3(m);
            }
        }
        Ok(())
    }

    /// Allocate a fermion field (with ghost faces) on this block.
    pub(crate) fn new_field(&self) -> FermionField {
        let face = |d: usize| vec![ColorVector::ZERO; self.volume() / self.dims[d]];
        FermionField {
            v: vec![ColorVector::ZERO; self.volume()],
            ghosts: std::array::from_fn(|d| [face(d), face(d)]),
        }
    }

    /// Exchange fermion ghost faces in both directions of every dimension.
    pub(crate) fn exchange_fermion(
        &self,
        comm: &mut Comm,
        field: &mut FermionField,
    ) -> Result<(), SimError> {
        for d in 0..4 {
            for (side, fixed, dir) in [(0usize, self.dims[d] - 1, -1i32), (1usize, 0, 1)] {
                // side 0 ghost (beyond low boundary) receives the backward
                // neighbour's high face; side 1 receives the forward
                // neighbour's low face.
                let mut payload: Vec<f64> = Vec::new();
                self.for_face(d, fixed, |x, _| {
                    let v = &field.v[self.index(x)];
                    for c in &v.0 {
                        payload.push(c.re);
                        payload.push(c.im);
                    }
                });
                let to = self.neighbor_rank(d, -dir);
                let from = self.neighbor_rank(d, dir);
                let incoming = comm.shift_f64(to, from, payload)?;
                let ghost = &mut field.ghosts[d][side];
                assert_eq!(incoming.len(), ghost.len() * 6);
                for (i, chunk) in incoming.chunks_exact(6).enumerate() {
                    ghost[i] = ColorVector([
                        C64::new(chunk[0], chunk[1]),
                        C64::new(chunk[2], chunk[3]),
                        C64::new(chunk[4], chunk[5]),
                    ]);
                }
            }
        }
        Ok(())
    }

    /// Fermion value at `x` displaced by ±1 in dimension `d`, using ghosts
    /// at the block boundary.
    #[inline]
    pub(crate) fn fermion_at(
        &self,
        field: &FermionField,
        x: [usize; 4],
        d: usize,
        dir: i32,
    ) -> ColorVector {
        let xi = x[d] as i64 + dir as i64;
        if xi < 0 {
            field.ghosts[d][0][self.face_offset(d, x)]
        } else if xi >= self.dims[d] as i64 {
            field.ghosts[d][1][self.face_offset(d, x)]
        } else {
            let mut xn = x;
            xn[d] = xi as usize;
            field.v[self.index(xn)]
        }
    }

    /// Link U_d(x − d̂): the backward link, from the ghost at the boundary.
    #[inline]
    pub(crate) fn backward_link(&self, x: [usize; 4], d: usize) -> Su3 {
        if x[d] == 0 {
            self.link_ghost[d][self.face_offset(d, x)]
        } else {
            let mut xn = x;
            xn[d] -= 1;
            self.links[self.index(xn)][d]
        }
    }

    /// Average interior plaquette Re tr(U_μν)/3 over all site/plane pairs
    /// whose forward neighbours are local (a lattice-local observable used
    /// as a verification metric).
    pub(crate) fn interior_plaquette(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0u64;
        let dims = self.dims;
        for x0 in 0..dims[0] {
            for x1 in 0..dims[1] {
                for x2 in 0..dims[2] {
                    for x3 in 0..dims[3] {
                        let x = [x0, x1, x2, x3];
                        for mu in 0..4 {
                            if x[mu] + 1 >= dims[mu] {
                                continue;
                            }
                            for nu in mu + 1..4 {
                                if x[nu] + 1 >= dims[nu] {
                                    continue;
                                }
                                let mut xmu = x;
                                xmu[mu] += 1;
                                let mut xnu = x;
                                xnu[nu] += 1;
                                let u = self.links[self.index(x)][mu]
                                    .mul(&self.links[self.index(xmu)][nu])
                                    .mul(&self.links[self.index(xnu)][mu].dagger())
                                    .mul(&self.links[self.index(x)][nu].dagger());
                                sum += u.re_trace() / 3.0;
                                count += 1;
                            }
                        }
                    }
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Iterate all local sites.
    pub fn sites(&self) -> impl Iterator<Item = [usize; 4]> + '_ {
        let dims = self.dims;
        (0..dims[0]).flat_map(move |a| {
            (0..dims[1]).flat_map(move |b| {
                (0..dims[2]).flat_map(move |c| (0..dims[3]).map(move |d| [a, b, c, d]))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_kernels::rank_rng;
    use jubench_simmpi::World;

    fn world16() -> World {
        World::new(Machine::juwels_booster().partition(4)) // 16 ranks
    }

    #[test]
    fn rank_coord_round_trip() {
        let dims = [2, 2, 2, 2];
        for r in 0..16 {
            assert_eq!(coord_to_rank(rank_to_coord(r, dims), dims), r);
        }
        assert_eq!(rank_to_coord(0, dims), [0, 0, 0, 0]);
        assert_eq!(rank_to_coord(15, dims), [1, 1, 1, 1]);
    }

    #[test]
    fn volumes_and_indexing() {
        let results = world16().run(|comm| {
            let lat = LocalLattice::cold(comm, [2, 2, 2, 2], [2, 2, 2, 2]);
            (lat.volume(), lat.index([1, 1, 1, 1]))
        });
        for r in &results {
            assert_eq!(r.value, (16, 15));
        }
    }

    #[test]
    fn global_volume_can_exceed_2_pow_31() {
        // The >2³¹-site fix: a 1024⁴-per-rank block on a 2×2×2×2 grid.
        let dims = [1024usize; 4];
        let vol: u64 = dims.iter().map(|&d| d as u64 * 2).product();
        assert!(vol > (1u64 << 31));
        // (Checked arithmetically; allocating it would need 4 PiB.)
        assert_eq!(vol, 1u64 << 44);
    }

    #[test]
    fn cold_plaquette_is_exactly_one() {
        let results = world16().run(|comm| {
            let lat = LocalLattice::cold(comm, [3, 3, 3, 3], [2, 2, 2, 2]);
            lat.interior_plaquette()
        });
        for r in &results {
            assert_eq!(r.value, 1.0);
        }
    }

    #[test]
    fn hot_plaquette_is_small() {
        let results = world16().run(|comm| {
            let mut rng = rank_rng(7, comm.rank());
            let lat = LocalLattice::hot(comm, [3, 3, 3, 3], [2, 2, 2, 2], &mut rng).unwrap();
            lat.interior_plaquette()
        });
        // A disordered gauge field has near-zero average plaquette.
        let avg: f64 = results.iter().map(|r| r.value).sum::<f64>() / results.len() as f64;
        assert!(avg.abs() < 0.2, "hot plaquette {avg}");
    }

    #[test]
    fn fermion_halo_exchange_moves_faces() {
        // Mark each local field with the rank id; after the exchange, the
        // low ghost in dim 0 must hold the backward neighbour's rank id.
        let results = world16().run(|comm| {
            let lat = LocalLattice::cold(comm, [2, 2, 2, 2], [2, 2, 2, 2]);
            let mut f = lat.new_field();
            for v in f.v.iter_mut() {
                v.0[0] = jubench_kernels::C64::new(comm.rank() as f64, 0.0);
            }
            lat.exchange_fermion(comm, &mut f).unwrap();
            let low_ghost_val = f.ghosts[0][0][0].0[0].re;
            let expected = lat.neighbor_rank(0, -1) as f64;
            (low_ghost_val, expected)
        });
        for r in &results {
            assert_eq!(r.value.0, r.value.1, "rank {}", r.rank);
        }
    }

    #[test]
    fn self_neighbor_exchange_wraps_locally() {
        // A 1-wide process grid in every dimension: ghosts must wrap to the
        // own opposite face (periodic boundary on a single rank).
        let w = World::new(Machine::juwels_booster().partition(1)).run(|comm| {
            if comm.rank() != 0 {
                return true;
            }
            true
        });
        assert!(w.iter().all(|r| r.value));
        // Use a 1-rank world via per-node placement.
        let w1 = World::per_node(Machine::juwels_booster().partition(1));
        let results = w1.run(|comm| {
            let lat = LocalLattice::cold(comm, [4, 2, 2, 2], [1, 1, 1, 1]);
            let mut f = lat.new_field();
            for (i, v) in f.v.iter_mut().enumerate() {
                v.0[0] = jubench_kernels::C64::new(i as f64, 0.0);
            }
            lat.exchange_fermion(comm, &mut f).unwrap();
            // Low ghost of dim 0 at face offset of site [0,0,0,0] should be
            // the value at [3,0,0,0].
            let got = f.ghosts[0][0][lat.face_offset(0, [0, 0, 0, 0])].0[0].re;
            let want = f.v[lat.index([3, 0, 0, 0])].0[0].re;
            (got, want)
        });
        assert_eq!(results[0].value.0, results[0].value.1);
    }

    #[test]
    fn eta_phases_alternate() {
        let w1 = World::per_node(Machine::juwels_booster().partition(1));
        let results = w1.run(|comm| {
            let lat = LocalLattice::cold(comm, [4, 4, 4, 4], [1, 1, 1, 1]);
            // η_0 is always +1; η_1 flips with x0.
            let a = lat.eta([0, 0, 0, 0], 0);
            let b = lat.eta([1, 2, 3, 0], 0);
            let c = lat.eta([0, 0, 0, 0], 1);
            let d = lat.eta([1, 0, 0, 0], 1);
            (a, b, c, d)
        });
        assert_eq!(results[0].value, (1.0, 1.0, 1.0, -1.0));
    }
}
