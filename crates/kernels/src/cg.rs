//! `kernels::cg`: the suite's one conjugate-gradient recurrence, [`pcg`].
//! CG on large sparse systems is the dominant kernel of five codes, and
//! each solves through it: Chroma-QCD and DynQCD ("very large, regular,
//! sparse linear systems"; `apps-lattice`'s `cg_normal`, distributed, from
//! zero), nekRS (`SemPoisson::manufactured_solution_error`, distributed,
//! from zero), ParFlow (`pcg_poisson`, V-cycle preconditioned) and HPCG
//! (`hpcg_pcg`, symmetric Gauss-Seidel preconditioned). [`cg_solve`] is
//! plain CG on a [`LinOp`].

use std::convert::Infallible;

/// A linear operator `y = A·x` on vectors of fixed length.
pub trait LinOp {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    pub iterations: usize,
    pub converged: bool,
    /// Final relative residual ‖r‖ / ‖b‖ of the recurrence's `r`.
    pub relative_residual: f64,
}

#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// A vector element: every update CG makes is `y + a·x`, element by
/// element. `Default` is the zero element.
pub trait Axpy: Copy + Default {
    fn axpy(self, a: f64, x: Self) -> Self;
}

impl Axpy for f64 {
    #[inline]
    fn axpy(self, a: f64, x: f64) -> f64 {
        self + a * x
    }
}

/// The operator and inner product of a solve, fallible so a distributed
/// system carries its communicator's error out.
pub trait CgSystem {
    type Elem: Axpy;
    type Error;
    /// `y = A·x`, `A` symmetric positive definite under `dot`.
    fn apply(&mut self, x: &[Self::Elem], y: &mut [Self::Elem]) -> Result<(), Self::Error>;
    fn dot(&mut self, a: &[Self::Elem], b: &[Self::Elem]) -> Result<f64, Self::Error>;
}

/// A serial system: the operator as a closure, with the plain [`dot`].
impl<F: FnMut(&[f64], &mut [f64])> CgSystem for F {
    type Elem = f64;
    type Error = Infallible;
    fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), Infallible> {
        self(x, y);
        Ok(())
    }
    fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, Infallible> {
        Ok(dot(a, b))
    }
}

/// Where a solve starts: `Zero` sets `x = 0` and `r = b` with no apply,
/// `Guess` keeps the caller's `x` and applies `A` once for `r = b − A·x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    Zero,
    Guess,
}

/// A preconditioner: writes `z = M⁻¹·r` over whatever `z` holds.
pub type Precond<'a, E> = &'a mut dyn FnMut(&[E], &mut [E]);

/// Solve `A·x = b` by CG, preconditioned when `precond` is given. Stops
/// once ‖r‖/‖b‖ ≤ `tol` or after `max_iters` iterations: on unknown
/// hardware "a more robust approach is to not compute until convergence,
/// but stop after a predetermined amount of iterations" (§V-B). Per
/// iteration: one apply, `p·Ap`, `r·r`, and when preconditioned one `M⁻¹`
/// and `r·z`; plain CG reuses `r·r` as `r·z`.
pub fn pcg<S: CgSystem>(
    sys: &mut S,
    mut precond: Option<Precond<'_, S::Elem>>,
    b: &[S::Elem],
    x: &mut [S::Elem],
    start: Start,
    tol: f64,
    max_iters: usize,
) -> Result<CgResult, S::Error> {
    assert_eq!(b.len(), x.len());
    let (n, zero, preconditioned) = (b.len(), S::Elem::default(), precond.is_some());
    let norm_b = sys.dot(b, b)?.sqrt();
    if norm_b == 0.0 {
        x.fill(zero);
        return Ok(CgResult {
            iterations: 0,
            converged: true,
            relative_residual: 0.0,
        });
    }
    let (mut r, mut ap) = (b.to_vec(), vec![zero; n]);
    if start == Start::Zero {
        x.fill(zero);
    } else {
        sys.apply(x, &mut ap)?;
        for (ri, ai) in r.iter_mut().zip(&ap) {
            *ri = ri.axpy(-1.0, *ai);
        }
    }
    // `r·z` after `z = M⁻¹·r`.
    let mut z = vec![zero; if preconditioned { n } else { 0 }];
    let mut rz_of = |sys: &mut S, r: &[S::Elem], z: &mut [S::Elem], rr| match &mut precond {
        Some(m) => {
            m(r, z);
            sys.dot(r, z)
        }
        None => Ok(rr),
    };
    let mut rr = sys.dot(&r, &r)?;
    let mut rz = rz_of(sys, &r, &mut z, rr)?;
    let mut p = if preconditioned { z.clone() } else { r.clone() };
    let mut iterations = 0;
    while iterations < max_iters && rr.sqrt() / norm_b > tol {
        sys.apply(&p, &mut ap)?;
        let alpha = rz / sys.dot(&p, &ap)?;
        for ((xi, ri), (pi, api)) in x.iter_mut().zip(&mut r).zip(p.iter().zip(&ap)) {
            *xi = xi.axpy(alpha, *pi);
            *ri = ri.axpy(-alpha, *api);
        }
        rr = sys.dot(&r, &r)?;
        let rz_new = rz_of(sys, &r, &mut z, rr)?;
        let beta = rz_new / rz;
        let z = if preconditioned { &z } else { &r };
        for (pi, zi) in p.iter_mut().zip(z) {
            *pi = zi.axpy(beta, *pi);
        }
        rz = rz_new;
        iterations += 1;
    }
    let relative_residual = rr.sqrt() / norm_b;
    Ok(CgResult {
        iterations,
        converged: relative_residual <= tol,
        relative_residual,
    })
}

/// Solve `A·x = b` by plain CG from the guess in `x`; `A` must be
/// symmetric positive definite.
pub fn cg_solve(a: &dyn LinOp, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> CgResult {
    assert_eq!(b.len(), a.len());
    let mut op = |x: &[f64], y: &mut [f64]| a.apply(x, y);
    let Ok(res) = pcg(&mut op, None, b, x, Start::Guess, tol, max_iters);
    res
}

/// A dense SPD operator for tests and small problems.
pub struct DenseOp(pub crate::linalg::Matrix);

impl LinOp for DenseOp {
    fn len(&self) -> usize {
        self.0.rows
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.0.row(i).iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::rng::rank_rng;

    /// Random SPD matrix A = Mᵀ·M + n·I.
    fn spd(n: usize, seed: u64) -> Matrix {
        let mut rng = rank_rng(seed, 0);
        let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += m[(k, i)] * m[(k, j)];
                }
                a[(i, j)] = s + if i == j { n as f64 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn solves_spd_system() {
        let n = 24;
        let a = spd(n, 1);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut b = vec![0.0; n];
        DenseOp(a.clone()).apply(&x_true, &mut b);
        let mut x = vec![0.0; n];
        let res = cg_solve(&DenseOp(a), &b, &mut x, 1e-12, 500);
        assert!(res.converged, "residual {}", res.relative_residual);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn identity_converges_in_one_iteration() {
        let n = 10;
        let a = DenseOp(Matrix::identity(n));
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut x = vec![0.0; n];
        let res = cg_solve(&a, &b, &mut x, 1e-14, 10);
        assert!(res.converged);
        assert_eq!(res.iterations, 1);
        assert_eq!(x, b);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = DenseOp(Matrix::identity(5));
        let mut x = vec![1.0; 5];
        let res = cg_solve(&a, &[0.0; 5], &mut x, 1e-12, 10);
        assert!(res.converged);
        assert_eq!(x, vec![0.0; 5]);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let n = 48;
        let a = spd(n, 2);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = cg_solve(&DenseOp(a), &b, &mut x, 1e-16, 3);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
        assert!(res.relative_residual > 0.0);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 24;
        let a = spd(n, 3);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        DenseOp(a.clone()).apply(&x_true, &mut b);
        let mut cold = vec![0.0; n];
        let cold_res = cg_solve(&DenseOp(a.clone()), &b, &mut cold, 1e-10, 500);
        let mut warm = x_true.clone();
        let warm_res = cg_solve(&DenseOp(a), &b, &mut warm, 1e-10, 500);
        assert!(warm_res.iterations <= cold_res.iterations);
        assert_eq!(warm_res.iterations, 0, "exact start needs no iterations");
    }

    /// A dense system that counts its applies and inner products.
    struct Counting {
        a: DenseOp,
        applies: usize,
        dots: usize,
    }

    impl CgSystem for Counting {
        type Elem = f64;
        type Error = Infallible;
        fn apply(&mut self, x: &[f64], y: &mut [f64]) -> Result<(), Infallible> {
            self.applies += 1;
            self.a.apply(x, y);
            Ok(())
        }
        fn dot(&mut self, a: &[f64], b: &[f64]) -> Result<f64, Infallible> {
            self.dots += 1;
            Ok(dot(a, b))
        }
    }

    fn counting(n: usize, seed: u64) -> Counting {
        Counting {
            a: DenseOp(spd(n, seed)),
            applies: 0,
            dots: 0,
        }
    }

    /// `z = D⁻¹·r` for the diagonal `D` of `a`.
    fn jacobi(a: &Matrix) -> impl FnMut(&[f64], &mut [f64]) + '_ {
        |r, z| {
            for (i, (zi, ri)) in z.iter_mut().zip(r).enumerate() {
                *zi = ri / a[(i, i)];
            }
        }
    }

    #[test]
    fn plain_cg_does_one_apply_and_two_dots_per_iteration() {
        let (n, cap) = (32, 6);
        let b = vec![1.0; n];
        for (start, applies_before) in [(Start::Zero, 0), (Start::Guess, 1)] {
            let mut sys = counting(n, 4);
            let mut x = vec![0.0; n];
            let Ok(res) = pcg(&mut sys, None, &b, &mut x, start, 1e-16, cap);
            assert_eq!(res.iterations, cap);
            // `b·b` and `r·r` before the loop; `p·Ap` and `r·r` in it.
            assert_eq!(
                (sys.applies, sys.dots),
                (applies_before + cap, 2 + 2 * cap),
                "{start:?}"
            );
        }
    }

    #[test]
    fn preconditioned_cg_does_one_apply_and_one_precond_per_iteration() {
        let (n, cap) = (32, 6);
        let mut sys = counting(n, 5);
        let diag = sys.a.0.clone();
        let mut jacobi = jacobi(&diag);
        let mut preconds = 0;
        let mut m = |r: &[f64], z: &mut [f64]| {
            preconds += 1;
            jacobi(r, z);
        };
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let Ok(res) = pcg(&mut sys, Some(&mut m), &b, &mut x, Start::Zero, 1e-16, cap);
        assert_eq!(res.iterations, cap);
        // `b·b`, `r·r`, `M⁻¹` and `r·z` before the loop; `p·Ap`, `r·r`,
        // `M⁻¹` and `r·z` in it; no apply before a cold start.
        assert_eq!(
            (sys.applies, preconds, sys.dots),
            (cap, 1 + cap, 3 + 3 * cap)
        );
    }

    #[test]
    fn jacobi_preconditioned_solve_reaches_the_plain_answer() {
        let (n, tol) = (40, 1e-12);
        let a = spd(n, 6);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut plain = vec![0.0; n];
        let plain_res = cg_solve(&DenseOp(a.clone()), &b, &mut plain, tol, 500);
        let mut pre = vec![0.0; n];
        let mut m = jacobi(&a);
        let dense = DenseOp(a.clone());
        let mut op = |x: &[f64], y: &mut [f64]| dense.apply(x, y);
        let Ok(pre_res) = pcg(&mut op, Some(&mut m), &b, &mut pre, Start::Zero, tol, 500);
        assert!(plain_res.converged && pre_res.converged);
        let diff: Vec<f64> = pre.iter().zip(&plain).map(|(p, q)| p - q).collect();
        let rel = (dot(&diff, &diff) / dot(&plain, &plain)).sqrt();
        assert!(rel <= tol, "‖x_pcg − x_cg‖/‖x_cg‖ = {rel:e}");
    }

    #[test]
    fn blas1_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(1.0.axpy(2.0, -1.0), -1.0);
    }
}
