//! Spectral-element machinery: GLL quadrature, differentiation matrices,
//! and tensor-product operator application on hexahedral elements.

/// Legendre polynomial P_n(x) and its derivative, by recurrence.
pub(crate) fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p_prev, mut p) = (1.0, x);
    for k in 2..=n {
        let k = k as f64;
        let p_next = ((2.0 * k - 1.0) * x * p - (k - 1.0) * p_prev) / k;
        p_prev = p;
        p = p_next;
    }
    // Derivative from the standard identity (guard the endpoints).
    let dp = if (x * x - 1.0).abs() < 1e-14 {
        let n_f = n as f64;
        0.5 * x.signum().powi(n as i32 + 1) * n_f * (n_f + 1.0)
    } else {
        n as f64 * (x * p - p_prev) / (x * x - 1.0)
    };
    (p, dp)
}

/// Gauss-Lobatto-Legendre nodes and weights of order `n` (n+1 points on
/// [−1, 1]): the endpoints plus the roots of P'_n, weights
/// w_i = 2 / (n(n+1) P_n(x_i)²).
pub(crate) fn gll_nodes_weights(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let m = n + 1;
    let mut x = vec![0.0; m];
    x[0] = -1.0;
    x[n] = 1.0;
    // Interior nodes: Newton on P'_n with Chebyshev-Lobatto initial guess.
    for i in 1..n {
        let mut xi = -(std::f64::consts::PI * i as f64 / n as f64).cos();
        for _ in 0..100 {
            // Newton step on f = P'_n using f' from the ODE
            // (1-x²)P''_n = 2x P'_n − n(n+1) P_n.
            let (p, dp) = legendre(n, xi);
            let ddp = (2.0 * xi * dp - (n * (n + 1)) as f64 * p) / (1.0 - xi * xi);
            let step = dp / ddp;
            xi -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        x[i] = xi;
    }
    x.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let w: Vec<f64> = x
        .iter()
        .map(|&xi| {
            let (p, _) = legendre(n, xi);
            2.0 / ((n * (n + 1)) as f64 * p * p)
        })
        .collect();
    (x, w)
}

/// The (n+1)×(n+1) GLL differentiation matrix: (D u)_i = u'(x_i) for u a
/// polynomial of degree ≤ n sampled at the GLL nodes.
#[derive(Debug, Clone)]
pub struct DiffMatrix {
    pub n: usize,
    pub nodes: Vec<f64>,
    pub weights: Vec<f64>,
    /// Row-major (n+1)² entries.
    pub d: Vec<f64>,
}

impl DiffMatrix {
    pub fn new(n: usize) -> Self {
        let (nodes, weights) = gll_nodes_weights(n);
        let m = n + 1;
        let mut d = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                let (pi, _) = legendre(n, nodes[i]);
                let (pj, _) = legendre(n, nodes[j]);
                d[i * m + j] = pi / (pj * (nodes[i] - nodes[j]));
            }
        }
        d[0] = -((n * (n + 1)) as f64) / 4.0;
        d[m * m - 1] = (n * (n + 1)) as f64 / 4.0;
        DiffMatrix {
            n,
            nodes,
            weights,
            d,
        }
    }

    #[inline]
    pub fn points(&self) -> usize {
        self.n + 1
    }
}

/// A hexahedral element of side `h` with (n+1)³ GLL nodes, supporting the
/// tensor-product (sum-factorized) stiffness and mass actions for the
/// Laplacian on an axis-aligned cube.
pub(crate) struct Element3<'a> {
    pub dm: &'a DiffMatrix,
    pub h: f64,
}

impl Element3<'_> {
    #[inline]
    fn m(&self) -> usize {
        self.dm.points()
    }

    /// Differentiate along axis `axis` (0 = i, 1 = j, 2 = k) in reference
    /// coordinates: out = (D ⊗ I ⊗ I) u etc. — the "small dense
    /// matrix-matrix product" kernel.
    pub fn diff(&self, u: &[f64], axis: usize, out: &mut [f64]) {
        let m = self.m();
        let d = &self.dm.d;
        assert_eq!(u.len(), m * m * m);
        out.fill(0.0);
        match axis {
            0 => {
                for i in 0..m {
                    for l in 0..m {
                        let dil = d[i * m + l];
                        if dil == 0.0 {
                            continue;
                        }
                        let src = &u[l * m * m..(l + 1) * m * m];
                        let dst = &mut out[i * m * m..(i + 1) * m * m];
                        for (o, s) in dst.iter_mut().zip(src) {
                            *o += dil * s;
                        }
                    }
                }
            }
            1 => {
                for i in 0..m {
                    let plane = &u[i * m * m..(i + 1) * m * m];
                    let dst = &mut out[i * m * m..(i + 1) * m * m];
                    for j in 0..m {
                        for l in 0..m {
                            let djl = d[j * m + l];
                            if djl == 0.0 {
                                continue;
                            }
                            for k in 0..m {
                                dst[j * m + k] += djl * plane[l * m + k];
                            }
                        }
                    }
                }
            }
            2 => {
                for i in 0..m {
                    for j in 0..m {
                        let row = i * m * m + j * m;
                        for k in 0..m {
                            let mut acc = 0.0;
                            for l in 0..m {
                                acc += d[k * m + l] * u[row + l];
                            }
                            out[row + k] = acc;
                        }
                    }
                }
            }
            _ => panic!("axis out of range"),
        }
    }

    /// Transposed differentiation along `axis`: out += Dᵀ v.
    fn diff_t_add(&self, v: &[f64], axis: usize, out: &mut [f64]) {
        let m = self.m();
        let d = &self.dm.d;
        match axis {
            0 => {
                for i in 0..m {
                    for l in 0..m {
                        let dli = d[l * m + i];
                        if dli == 0.0 {
                            continue;
                        }
                        let src = &v[l * m * m..(l + 1) * m * m];
                        let dst = &mut out[i * m * m..(i + 1) * m * m];
                        for (o, s) in dst.iter_mut().zip(src) {
                            *o += dli * s;
                        }
                    }
                }
            }
            1 => {
                for i in 0..m {
                    let plane = &v[i * m * m..(i + 1) * m * m];
                    let dst = &mut out[i * m * m..(i + 1) * m * m];
                    for j in 0..m {
                        for l in 0..m {
                            let dlj = d[l * m + j];
                            if dlj == 0.0 {
                                continue;
                            }
                            for k in 0..m {
                                dst[j * m + k] += dlj * plane[l * m + k];
                            }
                        }
                    }
                }
            }
            2 => {
                for i in 0..m {
                    for j in 0..m {
                        let row = i * m * m + j * m;
                        for k in 0..m {
                            let mut acc = 0.0;
                            for l in 0..m {
                                acc += d[l * m + k] * v[row + l];
                            }
                            out[row + k] += acc;
                        }
                    }
                }
            }
            _ => panic!("axis out of range"),
        }
    }

    /// Diagonal GLL quadrature weight at node (i, j, k), in reference
    /// coordinates.
    #[inline]
    fn w3(&self, i: usize, j: usize, k: usize) -> f64 {
        let w = &self.dm.weights;
        w[i] * w[j] * w[k]
    }

    /// Stiffness action out = K u for −Δ on a cube of side h:
    /// K = (h/8) Σ_d Dᵀ_d W D_d (affine geometry collapses the metric to a
    /// constant).
    pub(crate) fn stiffness(&self, u: &[f64], out: &mut [f64]) {
        let m = self.m();
        // (h/2)³ from the volume Jacobian × (2/h)² from the two reference
        // gradients = h/2.
        let scale = self.h / 2.0;
        out.fill(0.0);
        let mut du = vec![0.0; u.len()];
        let mut wdu = vec![0.0; u.len()];
        for axis in 0..3 {
            self.diff(u, axis, &mut du);
            for i in 0..m {
                for j in 0..m {
                    for k in 0..m {
                        let idx = (i * m + j) * m + k;
                        wdu[idx] = self.w3(i, j, k) * du[idx] * scale;
                    }
                }
            }
            self.diff_t_add(&wdu, axis, out);
        }
    }

    /// Mass action out = M u = (h/2)³ W u.
    pub fn mass(&self, u: &[f64], out: &mut [f64]) {
        let m = self.m();
        let vol = (self.h / 2.0).powi(3);
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    let idx = (i * m + j) * m + k;
                    out[idx] = vol * self.w3(i, j, k) * u[idx];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gll_endpoints_and_symmetry() {
        for n in [2usize, 4, 7, 9] {
            let (x, w) = gll_nodes_weights(n);
            assert_eq!(x.len(), n + 1);
            assert_eq!(x[0], -1.0);
            assert_eq!(x[n], 1.0);
            for i in 0..=n {
                assert!((x[i] + x[n - i]).abs() < 1e-12, "nodes symmetric");
                assert!((w[i] - w[n - i]).abs() < 1e-12, "weights symmetric");
            }
            let total: f64 = w.iter().sum();
            assert!((total - 2.0).abs() < 1e-12, "weights sum to |[-1,1]|");
        }
    }

    #[test]
    fn gll_quadrature_is_exact_for_low_degrees() {
        // GLL with n+1 points integrates polynomials up to degree 2n−1.
        let n = 5;
        let (x, w) = gll_nodes_weights(n);
        for degree in 0..=(2 * n - 1) {
            let integral: f64 = x
                .iter()
                .zip(&w)
                .map(|(&xi, &wi)| wi * xi.powi(degree as i32))
                .sum();
            let exact = if degree % 2 == 1 {
                0.0
            } else {
                2.0 / (degree as f64 + 1.0)
            };
            assert!((integral - exact).abs() < 1e-12, "degree {degree}");
        }
    }

    #[test]
    fn diff_matrix_differentiates_polynomials_exactly() {
        let dm = DiffMatrix::new(6);
        let m = dm.points();
        // u = x³ − 2x, u' = 3x² − 2.
        let u: Vec<f64> = dm.nodes.iter().map(|&x| x.powi(3) - 2.0 * x).collect();
        let mut du = vec![0.0; m];
        for i in 0..m {
            du[i] = (0..m).map(|j| dm.d[i * m + j] * u[j]).sum();
        }
        for (i, &x) in dm.nodes.iter().enumerate() {
            assert!((du[i] - (3.0 * x * x - 2.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn diff_matrix_annihilates_constants() {
        let dm = DiffMatrix::new(9);
        let m = dm.points();
        for i in 0..m {
            let row_sum: f64 = (0..m).map(|j| dm.d[i * m + j]).sum();
            assert!(row_sum.abs() < 1e-10, "row {i} sums to {row_sum}");
        }
    }

    #[test]
    fn tensor_diff_matches_axis_derivatives() {
        let dm = DiffMatrix::new(4);
        let el = Element3 { dm: &dm, h: 2.0 };
        let m = dm.points();
        // u(x,y,z) = x²·y·z at reference nodes.
        let mut u = vec![0.0; m * m * m];
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    u[(i * m + j) * m + k] = dm.nodes[i].powi(2) * dm.nodes[j] * dm.nodes[k];
                }
            }
        }
        let mut out = vec![0.0; u.len()];
        el.diff(&u, 0, &mut out);
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    let expect = 2.0 * dm.nodes[i] * dm.nodes[j] * dm.nodes[k];
                    assert!((out[(i * m + j) * m + k] - expect).abs() < 1e-10);
                }
            }
        }
        el.diff(&u, 1, &mut out);
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    let expect = dm.nodes[i].powi(2) * dm.nodes[k];
                    let _ = j;
                    assert!((out[(i * m + j) * m + k] - expect).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn stiffness_is_symmetric_and_kills_constants() {
        let dm = DiffMatrix::new(3);
        let el = Element3 { dm: &dm, h: 0.5 };
        let len = dm.points().pow(3);
        // Constants are in the Laplacian null space.
        let ones = vec![1.0; len];
        let mut out = vec![0.0; len];
        el.stiffness(&ones, &mut out);
        assert!(out.iter().all(|v| v.abs() < 1e-12));
        // Symmetry: ⟨Ku, v⟩ = ⟨u, Kv⟩.
        let u: Vec<f64> = (0..len).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        let v: Vec<f64> = (0..len).map(|i| ((i * 3 + 2) as f64).cos()).collect();
        let mut ku = vec![0.0; len];
        let mut kv = vec![0.0; len];
        el.stiffness(&u, &mut ku);
        el.stiffness(&v, &mut kv);
        let lhs: f64 = ku.iter().zip(&v).map(|(a, b)| a * b).sum();
        let rhs: f64 = u.iter().zip(&kv).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn stiffness_energy_of_linear_function_is_exact() {
        // For u = x on a cube of side h, ∫|∇u|² = h³ — uᵀKu must equal it.
        let dm = DiffMatrix::new(4);
        let h = 0.7;
        let el = Element3 { dm: &dm, h };
        let m = dm.points();
        let mut u = vec![0.0; m * m * m];
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    // x = (node + 1)/2 · h
                    u[(i * m + j) * m + k] = (dm.nodes[i] + 1.0) / 2.0 * h;
                }
            }
        }
        let mut ku = vec![0.0; u.len()];
        el.stiffness(&u, &mut ku);
        let energy: f64 = u.iter().zip(&ku).map(|(a, b)| a * b).sum();
        assert!(
            (energy - h.powi(3)).abs() < 1e-10,
            "energy {energy} vs {}",
            h.powi(3)
        );
    }

    #[test]
    fn mass_integrates_constants_to_the_volume() {
        let dm = DiffMatrix::new(5);
        let h = 0.3;
        let el = Element3 { dm: &dm, h };
        let len = dm.points().pow(3);
        let ones = vec![1.0; len];
        let mut mu = vec![0.0; len];
        el.mass(&ones, &mut mu);
        let total: f64 = mu.iter().sum();
        assert!((total - h.powi(3)).abs() < 1e-12);
    }
}
