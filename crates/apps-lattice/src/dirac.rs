//! The staggered Dirac operator and the distributed CG solver on the
//! normal equations.

use jubench_kernels::cg::{pcg, CgResult, CgSystem, Start};
use jubench_simmpi::{Comm, ReduceOp, SimError};

use crate::lattice::{FermionField, LocalLattice};
use crate::su3::ColorVector;

/// The staggered lattice Dirac operator
/// `D ψ(x) = m ψ(x) + ½ Σ_μ η_μ(x) [U_μ(x) ψ(x+μ̂) − U_μ†(x−μ̂) ψ(x−μ̂)]`.
///
/// The hopping part is anti-Hermitian, so `D†D = m² − (hop)²` is Hermitian
/// positive definite and CG-solvable — the same structure that makes the
/// paper's Wilson-fermion systems "very large, regular, sparse linear
/// systems" (dimension 10⁶–10⁹).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StaggeredDirac {
    pub mass: f64,
}

impl StaggeredDirac {
    /// Apply D. `field`'s ghosts must be current (call
    /// `LocalLattice::exchange_fermion` first).
    pub fn apply(&self, lat: &LocalLattice, field: &FermionField, out: &mut [ColorVector]) {
        assert_eq!(out.len(), lat.volume());
        for x in lat.sites() {
            let i = lat.index(x);
            let mut acc = field.v[i].scale(self.mass);
            for mu in 0..4 {
                let eta = lat.eta(x, mu);
                let fwd = lat.fermion_at(field, x, mu, 1);
                let bwd = lat.fermion_at(field, x, mu, -1);
                let hop = lat.links[i][mu]
                    .mul_vec(&fwd)
                    .sub(&lat.backward_link(x, mu).dagger().mul_vec(&bwd));
                acc = acc.add(&hop.scale(0.5 * eta));
            }
            out[i] = acc;
        }
    }

    /// Apply D with the hopping sign flipped — for the anti-Hermitian
    /// hopping term this equals D†.
    pub(crate) fn apply_dagger(
        &self,
        lat: &LocalLattice,
        field: &FermionField,
        out: &mut [ColorVector],
    ) {
        let flipped = StaggeredDirac { mass: -self.mass };
        flipped.apply(lat, field, out);
        for v in out.iter_mut() {
            *v = v.scale(-1.0);
        }
    }

    /// y = D†D x (two halo exchanges). `out` holds the intermediate D x
    /// until it is copied into `scratch`.
    pub(crate) fn apply_normal(
        &self,
        comm: &mut Comm,
        lat: &LocalLattice,
        x: &[ColorVector],
        scratch: &mut FermionField,
        out: &mut [ColorVector],
    ) -> Result<(), SimError> {
        scratch.v.copy_from_slice(x);
        lat.exchange_fermion(comm, scratch)?;
        self.apply(lat, scratch, out);
        scratch.v.copy_from_slice(out);
        lat.exchange_fermion(comm, scratch)?;
        self.apply_dagger(lat, scratch, out);
        Ok(())
    }
}

/// Global Hermitian inner product Re⟨a, b⟩ over all ranks.
pub(crate) fn global_dot(
    comm: &mut Comm,
    a: &[ColorVector],
    b: &[ColorVector],
) -> Result<f64, SimError> {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x.dot(y).re).sum();
    comm.allreduce_scalar(local, ReduceOp::Sum)
}

/// `D†D` with the global inner product: the system of the normal
/// equations, with the scratch field its halo exchanges need.
struct NormalEquations<'a> {
    comm: &'a mut Comm,
    lat: &'a LocalLattice,
    dirac: &'a StaggeredDirac,
    scratch: FermionField,
}

impl CgSystem for NormalEquations<'_> {
    type Elem = ColorVector;
    type Error = SimError;
    fn apply(&mut self, x: &[ColorVector], y: &mut [ColorVector]) -> Result<(), SimError> {
        self.dirac
            .apply_normal(self.comm, self.lat, x, &mut self.scratch, y)
    }
    fn dot(&mut self, a: &[ColorVector], b: &[ColorVector]) -> Result<f64, SimError> {
        global_dot(self.comm, a, b)
    }
}

/// Distributed CG on `D†D x = b` from `x = 0`, stopping at `tol`
/// relative residual or `max_iters` ("a cut-off after a certain number of
/// iterations is a more robust approach", §V-A). Returns the solution
/// and the solve's outcome.
pub(crate) fn cg_normal(
    comm: &mut Comm,
    lat: &LocalLattice,
    dirac: &StaggeredDirac,
    b: &[ColorVector],
    tol: f64,
    max_iters: usize,
) -> Result<(Vec<ColorVector>, CgResult), SimError> {
    let mut x = vec![ColorVector::ZERO; lat.volume()];
    let mut normal = NormalEquations {
        comm,
        lat,
        dirac,
        scratch: lat.new_field(),
    };
    let cg = pcg(&mut normal, None, b, &mut x, Start::Zero, tol, max_iters)?;
    Ok((x, cg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::LocalLattice;
    use jubench_cluster::Machine;
    use jubench_kernels::rank_rng;
    use jubench_simmpi::World;

    fn world16() -> World {
        World::new(Machine::juwels_booster().partition(4))
    }

    fn random_field(lat: &LocalLattice, seed: u64, rank: u32) -> Vec<ColorVector> {
        let mut rng = rank_rng(seed, rank);
        (0..lat.volume())
            .map(|_| ColorVector::random(&mut rng))
            .collect()
    }

    #[test]
    fn constant_field_on_cold_lattice_gives_mass_term() {
        // Hopping of a constant field cancels exactly on a periodic cold
        // lattice: D ψ = m ψ.
        let results = world16().run(|comm| {
            let lat = LocalLattice::cold(comm, [2, 2, 2, 2], [2, 2, 2, 2]);
            let d = StaggeredDirac { mass: 0.7 };
            let mut f = lat.new_field();
            for v in f.v.iter_mut() {
                v.0[1] = jubench_kernels::C64::new(2.0, -1.0);
            }
            lat.exchange_fermion(comm, &mut f).unwrap();
            let mut out = vec![ColorVector::ZERO; lat.volume()];
            d.apply(&lat, &f, &mut out);
            out.iter()
                .map(|v| {
                    (v.0[1] - jubench_kernels::C64::new(1.4, -0.7)).abs()
                        + v.0[0].abs()
                        + v.0[2].abs()
                })
                .fold(0.0, f64::max)
        });
        for r in &results {
            assert!(r.value < 1e-12, "rank {} deviation {}", r.rank, r.value);
        }
    }

    #[test]
    fn hopping_term_is_anti_hermitian() {
        // ⟨x, (D−m) y⟩ = −⟨(D−m) x, y⟩ globally on a hot lattice — this
        // exercises η phases, link ghosts, and fermion halos all at once.
        let results = world16().run(|comm| {
            let mut rng = rank_rng(11, comm.rank());
            let lat = LocalLattice::hot(comm, [2, 2, 2, 2], [2, 2, 2, 2], &mut rng).unwrap();
            let d0 = StaggeredDirac { mass: 0.0 };
            let xv = random_field(&lat, 21, comm.rank());
            let yv = random_field(&lat, 22, comm.rank());
            let mut fx = lat.new_field();
            fx.v.copy_from_slice(&xv);
            lat.exchange_fermion(comm, &mut fx).unwrap();
            let mut dy = vec![ColorVector::ZERO; lat.volume()];
            let mut fy = lat.new_field();
            fy.v.copy_from_slice(&yv);
            lat.exchange_fermion(comm, &mut fy).unwrap();
            d0.apply(&lat, &fy, &mut dy);
            let mut dx = vec![ColorVector::ZERO; lat.volume()];
            d0.apply(&lat, &fx, &mut dx);
            // Complex inner products: ⟨x, Dy⟩ + ⟨Dx, y⟩ should vanish.
            let lhs_re: f64 = xv.iter().zip(&dy).map(|(a, b)| a.dot(b).re).sum();
            let rhs_re: f64 = dx.iter().zip(&yv).map(|(a, b)| a.dot(b).re).sum();
            let lhs_im: f64 = xv.iter().zip(&dy).map(|(a, b)| a.dot(b).im).sum();
            let rhs_im: f64 = dx.iter().zip(&yv).map(|(a, b)| a.dot(b).im).sum();
            let re = comm
                .allreduce_scalar(lhs_re + rhs_re, ReduceOp::Sum)
                .unwrap();
            let im = comm
                .allreduce_scalar(lhs_im + rhs_im, ReduceOp::Sum)
                .unwrap();
            (re.abs(), im.abs())
        });
        for r in &results {
            assert!(
                r.value.0 < 1e-9 && r.value.1 < 1e-9,
                "rank {}: {:?}",
                r.rank,
                r.value
            );
        }
    }

    #[test]
    fn cg_solves_normal_equations_on_hot_lattice() {
        let results = world16().run(|comm| {
            let mut rng = rank_rng(13, comm.rank());
            let lat = LocalLattice::hot(comm, [2, 2, 2, 2], [2, 2, 2, 2], &mut rng).unwrap();
            let dirac = StaggeredDirac { mass: 0.8 };
            let b = random_field(&lat, 31, comm.rank());
            let (x, stats) = cg_normal(comm, &lat, &dirac, &b, 1e-10, 500).unwrap();
            // Independent residual check: ‖D†D x − b‖ / ‖b‖.
            let mut scratch = lat.new_field();
            let mut ax = vec![ColorVector::ZERO; lat.volume()];
            dirac
                .apply_normal(comm, &lat, &x, &mut scratch, &mut ax)
                .unwrap();
            let diff: Vec<ColorVector> = ax.iter().zip(&b).map(|(a, bi)| a.sub(bi)).collect();
            let num = global_dot(comm, &diff, &diff).unwrap().sqrt();
            let den = global_dot(comm, &b, &b).unwrap().sqrt();
            (stats, num / den)
        });
        for r in &results {
            assert!(r.value.0.converged, "rank {}: {:?}", r.rank, r.value.0);
            assert!(r.value.1 < 1e-9, "true residual {}", r.value.1);
        }
    }

    #[test]
    fn iteration_cap_stops_early() {
        let results = world16().run(|comm| {
            let mut rng = rank_rng(17, comm.rank());
            let lat = LocalLattice::hot(comm, [2, 2, 2, 2], [2, 2, 2, 2], &mut rng).unwrap();
            // Small mass → worse conditioning → cannot converge in 2 iters.
            let dirac = StaggeredDirac { mass: 0.05 };
            let b = random_field(&lat, 37, comm.rank());
            cg_normal(comm, &lat, &dirac, &b, 1e-14, 2).unwrap().1
        });
        for r in &results {
            assert_eq!(r.value.iterations, 2);
            assert!(!r.value.converged);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let results = world16().run(|comm| {
            let lat = LocalLattice::cold(comm, [2, 2, 2, 2], [2, 2, 2, 2]);
            let dirac = StaggeredDirac { mass: 1.0 };
            let b = vec![ColorVector::ZERO; lat.volume()];
            cg_normal(comm, &lat, &dirac, &b, 1e-12, 10).unwrap().1
        });
        for r in &results {
            assert_eq!(r.value.iterations, 0);
            assert!(r.value.converged);
        }
    }
}
