//! Distributed matrix-free SEM Poisson solver: slab-decomposed elements,
//! gather-scatter assembly, and CG with globally consistent inner products.

use jubench_kernels::cg::{pcg, CgSystem, Start};
use jubench_simmpi::{block_range, Comm, ReduceOp, SimError};

use crate::sem::{DiffMatrix, Element3};

/// A Dirichlet Poisson problem −Δu = f on the box
/// `[0, ex·h] × [0, ey·h] × [0, ez·h]` (h = 1/ex, so x spans the unit
/// interval and the domain is a *sheet* when ey, ez < ex — the shape of
/// the Rayleigh-Bénard benchmark case), discretized with `ex × ey × ez`
/// cubic spectral elements of order `n`, slab-decomposed along x.
pub(crate) struct SemPoisson {
    pub dm: DiffMatrix,
    /// Global element counts.
    pub ex: usize,
    pub ey: usize,
    pub ez: usize,
    /// This rank's element slab `[x0, x1)`.
    pub x0: usize,
    pub x1: usize,
    /// Element side length (uniform cubes).
    pub h: f64,
}

impl SemPoisson {
    /// Partition `ex` element slabs over the communicator.
    pub fn new(comm: &Comm, order: usize, ex: usize, ey: usize, ez: usize) -> Self {
        let p = comm.size() as usize;
        assert!(ex >= p, "need at least one element slab per rank");
        let slab = block_range(ex, p, comm.rank() as usize);
        let (x0, x1) = (slab.start, slab.end);
        SemPoisson {
            dm: DiffMatrix::new(order),
            ex,
            ey,
            ez,
            x0,
            x1,
            h: 1.0 / ex as f64,
        }
    }

    /// Domain extents.
    pub fn lengths(&self) -> (f64, f64, f64) {
        (1.0, self.ey as f64 * self.h, self.ez as f64 * self.h)
    }

    /// Local nodal-grid dimensions (nodes shared at element interfaces).
    pub(crate) fn local_nodes(&self) -> (usize, usize, usize) {
        let n = self.dm.n;
        (
            (self.x1 - self.x0) * n + 1,
            self.ey * n + 1,
            self.ez * n + 1,
        )
    }

    /// Number of local nodal values.
    pub(crate) fn local_len(&self) -> usize {
        let nx = self.local_nodes();
        nx.0 * nx.1 * nx.2
    }

    #[inline]
    fn nidx(&self, nx: (usize, usize, usize), i: usize, j: usize, k: usize) -> usize {
        (i * nx.1 + j) * nx.2 + k
    }

    /// Position along one axis for a global node index.
    fn axis_pos(&self, global_node: usize, elements: usize) -> f64 {
        let n = self.dm.n;
        let e = (global_node / n).min(elements - 1);
        let l = global_node - e * n;
        (e as f64 + (self.dm.nodes[l] + 1.0) / 2.0) * self.h
    }

    /// Physical coordinates of a local node.
    pub(crate) fn node_pos(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        let n = self.dm.n;
        (
            self.axis_pos(self.x0 * n + i, self.ex),
            self.axis_pos(j, self.ey),
            self.axis_pos(k, self.ez),
        )
    }

    /// Whether a local node lies on the global Dirichlet boundary.
    fn on_boundary(&self, nx: (usize, usize, usize), i: usize, j: usize, k: usize) -> bool {
        let n = self.dm.n;
        let gx = self.x0 * n + i;
        gx == 0 || gx == self.ex * n || j == 0 || j == nx.1 - 1 || k == 0 || k == nx.2 - 1
    }

    /// Zero the Dirichlet boundary nodes.
    pub fn mask(&self, u: &mut [f64]) {
        let nx = self.local_nodes();
        for i in 0..nx.0 {
            for j in 0..nx.1 {
                for k in 0..nx.2 {
                    if self.on_boundary(nx, i, j, k) {
                        u[self.nidx(nx, i, j, k)] = 0.0;
                    }
                }
            }
        }
    }

    /// Apply an element-local operator over all local elements, assemble
    /// (gather-scatter) into the nodal vector `out`, which it zeroes
    /// first, and sum the interface planes with the slab neighbours.
    fn assemble(
        &self,
        comm: &mut Comm,
        u: &[f64],
        op: impl Fn(&Element3<'_>, &[f64], &mut [f64]),
        out: &mut [f64],
    ) -> Result<(), SimError> {
        let n = self.dm.n;
        let m = n + 1;
        let nx = self.local_nodes();
        assert_eq!(out.len(), u.len());
        out.fill(0.0);
        let el = Element3 {
            dm: &self.dm,
            h: self.h,
        };
        let mut local = vec![0.0; m * m * m];
        let mut result = vec![0.0; m * m * m];
        for ex in 0..(self.x1 - self.x0) {
            for ey in 0..self.ey {
                for ez in 0..self.ez {
                    for i in 0..m {
                        for j in 0..m {
                            for k in 0..m {
                                local[(i * m + j) * m + k] =
                                    u[self.nidx(nx, ex * n + i, ey * n + j, ez * n + k)];
                            }
                        }
                    }
                    op(&el, &local, &mut result);
                    for i in 0..m {
                        for j in 0..m {
                            for k in 0..m {
                                out[self.nidx(nx, ex * n + i, ey * n + j, ez * n + k)] +=
                                    result[(i * m + j) * m + k];
                            }
                        }
                    }
                }
            }
        }
        // Interface planes: both neighbouring ranks end up with the sum of
        // their contributions (sends never block, so the pairwise
        // exchanges cannot deadlock).
        let plane_len = nx.1 * nx.2;
        let rank = comm.rank();
        let p = comm.size();
        if rank > 0 {
            let low: Vec<f64> = out[..plane_len].to_vec();
            let incoming = comm.sendrecv_f64(rank - 1, &low)?;
            for (q, v) in incoming.iter().enumerate() {
                out[q] += v;
            }
        }
        if rank + 1 < p {
            let start = (nx.0 - 1) * plane_len;
            let high: Vec<f64> = out[start..].to_vec();
            let incoming = comm.sendrecv_f64(rank + 1, &high)?;
            for (q, v) in incoming.iter().enumerate() {
                out[start + q] += v;
            }
        }
        Ok(())
    }

    /// Globally consistent inner product: interface planes are owned by
    /// the lower rank, so each global node is counted exactly once.
    pub fn dot(&self, comm: &mut Comm, a: &[f64], b: &[f64]) -> Result<f64, SimError> {
        let nx = self.local_nodes();
        let plane_len = nx.1 * nx.2;
        let start = if comm.rank() > 0 { plane_len } else { 0 };
        let local: f64 = a[start..].iter().zip(&b[start..]).map(|(x, y)| x * y).sum();
        comm.allreduce_scalar(local, ReduceOp::Sum)
    }

    /// Apply the assembled, masked stiffness operator: `au = A·u`.
    pub(crate) fn apply_a(
        &self,
        comm: &mut Comm,
        u: &[f64],
        au: &mut [f64],
    ) -> Result<(), SimError> {
        self.assemble(comm, u, |el, x, y| el.stiffness(x, y), au)?;
        self.mask(au);
        Ok(())
    }

    /// Assemble the load vector b = M f from nodal samples of f.
    pub fn rhs(&self, comm: &mut Comm, f: &[f64]) -> Result<Vec<f64>, SimError> {
        let mut b = vec![0.0; f.len()];
        self.assemble(comm, f, |el, x, y| el.mass(x, y), &mut b)?;
        self.mask(&mut b);
        Ok(b)
    }

    /// Solve the manufactured problem with the analytic solution
    /// `u = sin(πx/Lx) sin(πy/Ly) sin(πz/Lz)` and return
    /// (max nodal error, iterations, residual) — the key-metric
    /// verification of the SEM solver.
    pub(crate) fn manufactured_solution_error(
        &self,
        comm: &mut Comm,
        tol: f64,
        max_iters: usize,
    ) -> Result<(f64, usize, f64), SimError> {
        let (lx, ly, lz) = self.lengths();
        let pi = std::f64::consts::PI;
        let lambda = pi * pi * (1.0 / (lx * lx) + 1.0 / (ly * ly) + 1.0 / (lz * lz));
        let nx = self.local_nodes();
        let mut f = vec![0.0; self.local_len()];
        let mut u_exact = vec![0.0; self.local_len()];
        for i in 0..nx.0 {
            for j in 0..nx.1 {
                for k in 0..nx.2 {
                    let (x, y, z) = self.node_pos(i, j, k);
                    let u = (pi * x / lx).sin() * (pi * y / ly).sin() * (pi * z / lz).sin();
                    u_exact[self.nidx(nx, i, j, k)] = u;
                    f[self.nidx(nx, i, j, k)] = lambda * u;
                }
            }
        }
        let b = self.rhs(comm, &f)?;
        let mut u = vec![0.0; b.len()];
        let stiffness = &mut Stiffness { sem: self, comm };
        let cg = pcg(stiffness, None, &b, &mut u, Start::Zero, tol, max_iters)?;
        let max_err = u
            .iter()
            .zip(&u_exact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let global_err = comm.allreduce_scalar(max_err, ReduceOp::Max)?;
        Ok((global_err, cg.iterations, cg.relative_residual))
    }
}

/// The assembled, masked stiffness operator with the globally consistent
/// inner product: the system nekRS's CG solves from zero.
struct Stiffness<'a> {
    sem: &'a SemPoisson,
    comm: &'a mut Comm,
}

impl CgSystem for Stiffness<'_> {
    type Elem = f64;
    type Error = SimError;
    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), SimError> {
        self.sem.apply_a(self.comm, x, y)
    }
    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, SimError> {
        self.sem.dot(self.comm, a, b)
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
    fn slab_partition_covers_all_elements() {
        let results = world(1).run(|comm| {
            let sp = SemPoisson::new(comm, 3, 10, 2, 2);
            (sp.x0, sp.x1)
        });
        let mut total = 0;
        for r in &results {
            total += r.value.1 - r.value.0;
            assert!(r.value.1 > r.value.0);
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn stiffness_is_consistent_across_ranks() {
        // Applying A to the nodal interpolant of a smooth function must
        // give identical interface values on both owning ranks: check by
        // comparing ⟨u, Au⟩ computed with two different ownership rules.
        let results = world(1).run(|comm| {
            let sp = SemPoisson::new(comm, 3, 8, 2, 2);
            let nx = sp.local_nodes();
            let mut u = vec![0.0; sp.local_len()];
            for i in 0..nx.0 {
                for j in 0..nx.1 {
                    for k in 0..nx.2 {
                        let (x, y, z) = sp.node_pos(i, j, k);
                        u[(i * nx.1 + j) * nx.2 + k] = (x * 2.0 + y - z).sin();
                    }
                }
            }
            sp.mask(&mut u);
            let mut au = vec![0.0; u.len()];
            sp.apply_a(comm, &u, &mut au).unwrap();

            sp.dot(comm, &u, &au).unwrap()
        });
        // SPD: energy is positive, and all ranks agree on it.
        for r in &results {
            assert!(r.value > 0.0);
            assert!((r.value - results[0].value).abs() < 1e-10);
        }
    }

    #[test]
    fn manufactured_solution_converges_spectrally() {
        let results = world(1).run(|comm| {
            let sp = SemPoisson::new(comm, 5, 4, 2, 2);
            sp.manufactured_solution_error(comm, 1e-10, 400).unwrap()
        });
        for r in &results {
            let (err, iters, resid) = r.value;
            assert!(resid < 1e-8, "CG residual {resid}");
            assert!(err < 5e-3, "nodal error {err} after {iters} iterations");
        }
    }

    #[test]
    fn higher_order_is_more_accurate() {
        let run = |order: usize| {
            world(1).run(move |comm| {
                let sp = SemPoisson::new(comm, order, 4, 2, 2);
                sp.manufactured_solution_error(comm, 1e-12, 800).unwrap().0
            })[0]
                .value
        };
        let e3 = run(3);
        let e6 = run(6);
        assert!(e6 < e3 / 10.0, "order 3: {e3}, order 6: {e6}");
    }

    #[test]
    fn dot_counts_interface_nodes_once() {
        let results = world(1).run(|comm| {
            let sp = SemPoisson::new(comm, 2, 4, 1, 1);
            let ones = vec![1.0; sp.local_len()];
            sp.dot(comm, &ones, &ones).unwrap()
        });
        // Global nodal grid: (4·2+1)·(2+1)·(2+1) = 81 nodes.
        for r in &results {
            assert_eq!(r.value, 81.0);
        }
    }
}
