//! A plane-wave electronic-structure minimizer.
//!
//! States live on an n³ periodic grid (box side L = n, ℏ = m = 1). The
//! Hamiltonian is H = −½∇² + V(r): the kinetic part is diagonal in
//! k-space (applied via FFTs — QE's dominant kernel), the potential in
//! real space. The lowest `bands` eigenstates are found by damped
//! gradient (Car-Parrinello-style) iteration with Gram-Schmidt
//! orthonormalization — the dense-linear-algebra part that QE delegates
//! to ELPA.

use jubench_kernels::{rank_rng, FftPlan, C64};

pub(crate) struct PlaneWaveSolver {
    /// The length-n line transform of every axis.
    plan: FftPlan,
    /// The kinetic factor ½|k|² of every k-space grid point.
    kinetic: Vec<f64>,
    /// Real-space potential.
    pub potential: Vec<f64>,
    /// Band wavefunctions in real space.
    pub bands: Vec<Vec<C64>>,
}

impl PlaneWaveSolver {
    /// Random initial states over a given potential.
    pub fn new(n: usize, bands: usize, potential: Vec<f64>, seed: u64) -> Self {
        assert_eq!(potential.len(), n * n * n);
        let mut rng = rank_rng(seed, 0);
        let states = (0..bands)
            .map(|_| {
                (0..n * n * n)
                    .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect();
        let mut kinetic = Vec::with_capacity(n * n * n);
        for x in 0..n {
            let kx = ksq_component(n, x);
            for y in 0..n {
                let ky = ksq_component(n, y);
                for z in 0..n {
                    let kz = ksq_component(n, z);
                    kinetic.push(0.5 * (kx + ky + kz));
                }
            }
        }
        let mut solver = PlaneWaveSolver {
            plan: FftPlan::new(n),
            kinetic,
            potential,
            bands: states,
        };
        solver.orthonormalize();
        solver
    }

    /// H ψ: kinetic via FFT, potential pointwise.
    pub(crate) fn apply_h(&self, psi: &[C64]) -> Vec<C64> {
        let mut k = psi.to_vec();
        self.plan.forward_cube(&mut k);
        for (v, &t) in k.iter_mut().zip(&self.kinetic) {
            *v = v.scale(t);
        }
        self.plan.inverse_cube(&mut k);
        for (i, v) in k.iter_mut().enumerate() {
            *v += psi[i].scale(self.potential[i]);
        }
        k
    }

    fn dot(a: &[C64], b: &[C64]) -> C64 {
        let mut acc = C64::ZERO;
        for (x, y) in a.iter().zip(b) {
            acc += x.conj() * *y;
        }
        acc
    }

    /// Gram-Schmidt orthonormalization of the bands.
    pub(crate) fn orthonormalize(&mut self) {
        for b in 0..self.bands.len() {
            for prev in 0..b {
                let (head, tail) = self.bands.split_at_mut(b);
                let proj = Self::dot(&head[prev], &tail[0]);
                for (t, h) in tail[0].iter_mut().zip(&head[prev]) {
                    *t = *t - proj * *h;
                }
            }
            let norm = Self::dot(&self.bands[b], &self.bands[b]).re.sqrt();
            assert!(norm > 1e-12, "band {b} collapsed");
            for v in self.bands[b].iter_mut() {
                *v = v.scale(1.0 / norm);
            }
        }
    }

    /// Rayleigh quotients ⟨ψ|H|ψ⟩ of the current bands.
    pub fn energies(&self) -> Vec<f64> {
        self.bands
            .iter()
            .map(|psi| {
                let hpsi = self.apply_h(psi);
                Self::dot(psi, &hpsi).re
            })
            .collect()
    }

    /// One damped-gradient (CP-style) iteration: ψ ← ψ − τ·Hψ, then
    /// re-orthonormalize. Returns the total energy.
    pub(crate) fn iterate(&mut self, tau: f64) -> f64 {
        let mut total = 0.0;
        for b in 0..self.bands.len() {
            let hpsi = self.apply_h(&self.bands[b]);
            total += Self::dot(&self.bands[b], &hpsi).re;
            for (v, h) in self.bands[b].iter_mut().zip(&hpsi) {
                *v = *v - h.scale(tau);
            }
        }
        self.orthonormalize();
        total
    }
}

/// Squared k-vector of index `i` on an n-point periodic axis (signed
/// frequencies).
fn ksq_component(n: usize, i: usize) -> f64 {
    let nf = n as f64;
    let k = if i <= n / 2 { i as f64 } else { i as f64 - nf };
    let kk = 2.0 * std::f64::consts::PI * k / nf;
    kk * kk
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Free-particle spectrum on the n-cube: 0, then (2π/n)²/2 with
    /// degeneracy 6.
    #[test]
    fn free_particle_eigenvalues_are_exact() {
        let n = 8;
        let mut solver = PlaneWaveSolver::new(n, 3, vec![0.0; n * n * n], 1);
        for _ in 0..400 {
            solver.iterate(0.1);
        }
        let energies = solver.energies();
        let e1 = 0.5 * (2.0 * std::f64::consts::PI / n as f64).powi(2);
        assert!(
            energies[0].abs() < 1e-4,
            "ground state energy {}",
            energies[0]
        );
        // Bands 1 and 2 converge into the 6-fold degenerate first shell.
        for (b, &e) in energies.iter().enumerate().skip(1) {
            assert!((e - e1).abs() < 0.1 * e1, "band {b}: {e} vs shell {e1}");
        }
    }

    #[test]
    fn energies_decrease_monotonically() {
        let n = 8;
        // A Gaussian well at the centre.
        let potential: Vec<f64> = (0..n * n * n)
            .map(|i| {
                let (x, y, z) = (i / (n * n), (i / n) % n, i % n);
                let r2 = [(x, n), (y, n), (z, n)]
                    .iter()
                    .map(|&(c, n)| {
                        let d = c as f64 - n as f64 / 2.0;
                        d * d
                    })
                    .sum::<f64>();
                -2.0 * (-r2 / 4.0).exp()
            })
            .collect();
        let mut solver = PlaneWaveSolver::new(n, 2, potential, 2);
        let mut prev = f64::INFINITY;
        for _ in 0..50 {
            let e = solver.iterate(0.1);
            assert!(e <= prev + 1e-9, "energy rose: {prev} → {e}");
            prev = e;
        }
        // The well binds: the ground state is below zero.
        assert!(solver.energies()[0] < 0.0);
    }

    #[test]
    fn bands_stay_orthonormal() {
        let n = 8;
        let mut solver = PlaneWaveSolver::new(n, 3, vec![0.0; n * n * n], 3);
        for _ in 0..10 {
            solver.iterate(0.1);
        }
        for a in 0..3 {
            for b in 0..3 {
                let d = PlaneWaveSolver::dot(&solver.bands[a], &solver.bands[b]);
                let expect = f64::from(a == b);
                assert!(
                    (d.re - expect).abs() < 1e-10 && d.im.abs() < 1e-10,
                    "⟨{a}|{b}⟩ = {d:?}"
                );
            }
        }
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let n = 8;
        let potential: Vec<f64> = (0..n * n * n).map(|i| ((i as f64) * 0.01).sin()).collect();
        let solver = PlaneWaveSolver::new(n, 2, potential, 4);
        let a = &solver.bands[0];
        let b = &solver.bands[1];
        let ha = solver.apply_h(a);
        let hb = solver.apply_h(b);
        let lhs = PlaneWaveSolver::dot(a, &hb);
        let rhs = PlaneWaveSolver::dot(&ha, b);
        assert!(
            (lhs - rhs).abs() < 1e-10,
            "⟨a|Hb⟩ = {lhs:?}, ⟨Ha|b⟩ = {rhs:?}"
        );
    }
}
