//! Conjugate gradient over an abstract linear operator.
//!
//! CG on large sparse systems is the workhorse of half the suite: the
//! Wilson-fermion solves of Chroma-QCD and DynQCD ("LQCD calculations
//! generally depend heavily on solving very large, regular, sparse linear
//! systems"), ParFlow's Krylov solver, and the HPCG synthetic benchmark.

/// A linear operator `y = A·x` on vectors of fixed length.
pub trait LinOp {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    pub iterations: usize,
    pub converged: bool,
    /// Final relative residual ‖b − A·x‖ / ‖b‖.
    pub relative_residual: f64,
}

#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Solve `A·x = b` by plain CG. `A` must be symmetric positive definite.
/// Stops at `tol` relative residual or `max_iters` — the paper's lesson
/// (§V-B) that on unknown hardware "a more robust approach is to not
/// compute until convergence, but stop after a predetermined amount of
/// iterations" is why the iteration cap is a first-class parameter.
pub fn cg_solve(a: &dyn LinOp, b: &[f64], x: &mut [f64], tol: f64, max_iters: usize) -> CgResult {
    let n = a.len();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let norm_b = dot(b, b).sqrt();
    if norm_b == 0.0 {
        x.fill(0.0);
        return CgResult {
            iterations: 0,
            converged: true,
            relative_residual: 0.0,
        };
    }
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut iterations = 0;
    while iterations < max_iters {
        if rr.sqrt() / norm_b <= tol {
            break;
        }
        a.apply(&p, &mut ap);
        let alpha = rr / dot(&p, &ap);
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        iterations += 1;
    }
    let relative_residual = rr.sqrt() / norm_b;
    CgResult {
        iterations,
        converged: relative_residual <= tol,
        relative_residual,
    }
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

    #[test]
    fn blas1_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }
}
