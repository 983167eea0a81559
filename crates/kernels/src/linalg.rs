//! Dense linear algebra: a row-major matrix type, GEMM, and LU
//! factorization with partial pivoting (the computational core of HPL and
//! of the transformer-training proxies).

/// Run `f` over contiguous row-chunks of `data` on the shared
/// [`jubench_pool`] thread pool. `chunk_rows × row_len` elements go to
/// each task; the closure receives the global index of its first row.
/// Small inputs run inline to avoid submission overhead.
///
/// Each row is computed independently and its inner loops run
/// sequentially, so results are bitwise identical for any chunking and
/// any pool size — the numerical kernels stay deterministic under
/// `JUBENCH_POOL_THREADS`.
fn par_row_chunks(data: &mut [f64], row_len: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    let rows = data.len().checked_div(row_len).unwrap_or(0);
    let threads = jubench_pool::current_threads().min(rows.max(1));
    if threads <= 1 || rows * row_len < 64 * 64 {
        for (i, row) in data.chunks_mut(row_len).enumerate() {
            f(i, row);
        }
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    jubench_pool::scope(|scope| {
        for (c, chunk) in data.chunks_mut(chunk_rows * row_len).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (i, row) in chunk.chunks_mut(row_len).enumerate() {
                    f(c * chunk_rows + i, row);
                }
            });
        }
    });
}

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// The matrix whose `(i, j)` entry is `f(i, j)`, with `f` called in
    /// row-major order (closures drawing from an RNG rely on it).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-abs norm.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// C = A·B in plain i-k-j loop order (row-streaming, not blocked),
/// row-parallel across the shared thread pool.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "gemm dimension mismatch");
    let (_m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(a.rows, n);
    par_row_chunks(&mut c.data, n, |i, c_row| {
        for kk in 0..k {
            let aik = a.data[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    });
    c
}

/// Result of an LU factorization: `lu` holds L (unit lower) and U packed,
/// `piv[i]` is the row swapped into position i.
#[derive(Debug, Clone)]
pub struct LuFactors {
    pub lu: Matrix,
    pub piv: Vec<usize>,
    /// Number of row swaps (for the determinant sign).
    pub swaps: usize,
}

/// LU factorization with partial pivoting; returns `None` for a singular
/// matrix (zero pivot after pivot selection).
pub fn lu_factor(a: &Matrix) -> Option<LuFactors> {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    let n = a.rows;
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    let mut swaps = 0;
    for k in 0..n {
        // Pivot search in column k.
        let mut p = k;
        let mut maxv = lu[(k, k)].abs();
        for i in k + 1..n {
            let v = lu[(i, k)].abs();
            if v > maxv {
                maxv = v;
                p = i;
            }
        }
        if maxv == 0.0 {
            return None;
        }
        if p != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = tmp;
            }
            piv.swap(k, p);
            swaps += 1;
        }
        let pivot = lu[(k, k)];
        for i in k + 1..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            for j in k + 1..n {
                let u = lu[(k, j)];
                lu[(i, j)] -= factor * u;
            }
        }
    }
    Some(LuFactors { lu, piv, swaps })
}

/// Solve A·x = b given the LU factors of A.
pub fn lu_solve(f: &LuFactors, b: &[f64]) -> Vec<f64> {
    let n = f.lu.rows;
    assert_eq!(b.len(), n);
    // Apply the permutation.
    let mut x: Vec<f64> = f.piv.iter().map(|&p| b[p]).collect();
    // Forward substitution (L is unit lower).
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= f.lu[(i, j)] * x[j];
        }
        x[i] = s;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in i + 1..n {
            s -= f.lu[(i, j)] * x[j];
        }
        x[i] = s / f.lu[(i, i)];
    }
    x
}

/// ‖A·x − b‖∞ — the HPL-style residual check.
pub fn residual_inf(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.rows;
    let mut worst = 0.0f64;
    for i in 0..n {
        let ax: f64 = a.row(i).iter().zip(x).map(|(aij, xj)| aij * xj).sum();
        worst = worst.max((ax - b[i]).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rank_rng;

    fn random_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = rank_rng(seed, 0);
        Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = random_matrix(17, 1);
        let c = gemm(&a, &Matrix::identity(17));
        for (x, y) in c.data.iter().zip(&a.data) {
            assert!((x - y).abs() < 1e-14);
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let mut rng = rank_rng(2, 0);
        let a = Matrix::from_fn(5, 7, |_, _| rng.gen_range(-1.0..1.0));
        let b = Matrix::from_fn(7, 3, |_, _| rng.gen_range(-1.0..1.0));
        let c = gemm(&a, &b);
        for i in 0..5 {
            for j in 0..3 {
                let expect: f64 = (0..7).map(|k| a[(i, k)] * b[(k, j)]).sum();
                assert!((c[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_rectangular_dimensions() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let c = gemm(&a, &b);
        assert_eq!((c.rows, c.cols), (2, 2));
        assert_eq!(c[(0, 0)], 10.0); // 0*0 + 1*2 + 2*4
    }

    #[test]
    fn lu_reconstructs_pa() {
        let a = random_matrix(20, 3);
        let f = lu_factor(&a).unwrap();
        let n = a.rows;
        // Reconstruct L·U and compare with P·A.
        for i in 0..n {
            for j in 0..n {
                let mut lu_ij = 0.0;
                for k in 0..=i.min(j) {
                    let l_ik = if k == i { 1.0 } else { f.lu[(i, k)] };
                    let u_kj = if k <= j { f.lu[(k, j)] } else { 0.0 };
                    lu_ij += l_ik * u_kj;
                }
                let pa_ij = a[(f.piv[i], j)];
                assert!((lu_ij - pa_ij).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn lu_solve_recovers_known_solution() {
        let n = 32;
        let a = random_matrix(n, 4);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| a.row(i).iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let f = lu_factor(&a).unwrap();
        let x = lu_solve(&f, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        // Row 2 is all zeros.
        assert!(lu_factor(&a).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix would divide by zero.
        let a = Matrix::from_fn(2, 2, |i, j| if (i, j) == (0, 0) { 0.0 } else { 1.0 });
        let f = lu_factor(&a).unwrap();
        assert_eq!(f.swaps, 1);
        let x = lu_solve(&f, &[1.0, 2.0]);
        // x0 + x1 = 2, x1 = 1.
        assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_fn(2, 2, |i, j| if (i, j) == (1, 0) { -3.0 } else { 0.0 });
        assert_eq!(m.max_abs(), 3.0);
        assert_eq!(m.frobenius(), 3.0);
    }
}
