//! im2col convolution with explicit backpropagation — the computational
//! form in which convolutions become the "dense linear algebra" dwarf.

use jubench_kernels::{gemm, Matrix};

/// A 2D convolution layer (valid padding, stride 1, square kernels) over
/// single-channel inputs, with `filters` output channels.
pub(crate) struct Conv2d {
    pub kernel: usize,
    /// filters × kernel² weights.
    pub w: Matrix,
    pub grad_w: Matrix,
}

impl Conv2d {
    pub fn new(kernel: usize, filters: usize, seed: u64) -> Self {
        let mut rng = jubench_kernels::rank_rng(seed, 0);
        let scale = (2.0 / (kernel * kernel) as f64).sqrt();
        Conv2d {
            kernel,
            w: Matrix::from_fn(filters, kernel * kernel, |_, _| {
                rng.gen_range(-scale..scale)
            }),
            grad_w: Matrix::zeros(filters, kernel * kernel),
        }
    }

    /// Output spatial size for an `n × n` input.
    pub(crate) fn out_size(&self, n: usize) -> usize {
        n - self.kernel + 1
    }

    /// Lower an image into the im2col matrix: (out²)× (kernel²). Row
    /// `py · out + px` is the patch at `(py, px)`: its `kernel` image rows,
    /// each a `kernel`-wide slice.
    pub(crate) fn im2col(&self, image: &[f64], n: usize) -> Matrix {
        let o = self.out_size(n);
        let k = self.kernel;
        let mut data = Vec::with_capacity(o * o * k * k);
        for py in 0..o {
            for px in 0..o {
                for ky in 0..k {
                    let start = (py + ky) * n + px;
                    data.extend_from_slice(&image[start..start + k]);
                }
            }
        }
        Matrix {
            rows: o * o,
            cols: k * k,
            data,
        }
    }

    /// Forward over an image lowered by [`Conv2d::im2col`]: returns the
    /// (out² × filters) feature map.
    pub fn forward(&self, cols: &Matrix) -> Matrix {
        gemm(cols, &self.w.transpose())
    }

    /// Backward over the same lowered image: accumulate dL/dW from
    /// dL/d(out).
    pub fn backward(&mut self, cols: &Matrix, grad_out: &Matrix) {
        // grad_w = grad_outᵀ · cols : (filters × out²)·(out² × k²).
        let gw = gemm(&grad_out.transpose(), cols);
        for (dst, src) in self.grad_w.data.iter_mut().zip(&gw.data) {
            *dst += src;
        }
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_w.data.fill(0.0);
    }

    pub(crate) fn sgd_step(&mut self, lr: f64) {
        for (w, g) in self.w.data.iter_mut().zip(&self.grad_w.data) {
            *w -= lr * g;
        }
    }
}

/// Global average pooling over the spatial dimension: (out² × filters) →
/// (1 × filters); returns pooled features.
pub(crate) fn global_avg_pool(features: &Matrix) -> Vec<f64> {
    let mut out = vec![0.0; features.cols];
    for i in 0..features.rows {
        for j in 0..features.cols {
            out[j] += features[(i, j)] / features.rows as f64;
        }
    }
    out
}

/// The element-by-element lowering `Conv2d::im2col` replaced, kept as its
/// oracle.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn im2col(conv: &Conv2d, image: &[f64], n: usize) -> Matrix {
        let o = conv.out_size(n);
        let k = conv.kernel;
        Matrix::from_fn(o * o, k * k, |patch, kk| {
            let (py, px) = (patch / o, patch % o);
            let (ky, kx) = (kk / k, kk % k);
            image[(py + ky) * n + (px + kx)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_is_the_element_by_element_lowering() {
        let mut rng = jubench_kernels::rank_rng(0x12C, 0);
        for n in [1usize, 2, 5, 8, 13] {
            let image: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for k in (1..=4).filter(|&k| k <= n) {
                let conv = Conv2d::new(k, 1, 3);
                let fast = conv.im2col(&image, n);
                let slow = reference::im2col(&conv, &image, n);
                assert_eq!(
                    (fast.rows, fast.cols),
                    (slow.rows, slow.cols),
                    "n {n} k {k}"
                );
                let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "n {n} k {k}");
            }
        }
    }

    #[test]
    fn identity_kernel_reproduces_interior() {
        // 1×1 kernel with weight 1 is the identity.
        let mut c = Conv2d::new(1, 1, 1);
        c.w.data[0] = 1.0;
        let img: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let out = c.forward(&c.im2col(&img, 4));
        assert_eq!(out.rows, 16);
        for (i, &v) in img.iter().enumerate() {
            assert_eq!(out.data[i], v);
        }
    }

    #[test]
    fn box_filter_averages() {
        let mut c = Conv2d::new(2, 1, 1);
        c.w.data.fill(0.25);
        let img = vec![4.0; 9];
        let out = c.forward(&c.im2col(&img, 3));
        assert_eq!(out.rows, 4);
        for v in &out.data {
            assert!((v - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conv_gradient_check() {
        let img: Vec<f64> = (0..25).map(|v| (v as f64 * 0.7).sin()).collect();
        let mut c = Conv2d::new(3, 2, 2);
        // Loss = sum of outputs; dL/d(out) = 1.
        let cols = c.im2col(&img, 5);
        let out = c.forward(&cols);
        let grad_out = Matrix::from_fn(out.rows, out.cols, |_, _| 1.0);
        c.zero_grad();
        c.backward(&cols, &grad_out);
        let eps = 1e-6;
        for idx in [0usize, 7, 12] {
            let orig = c.w.data[idx];
            c.w.data[idx] = orig + eps;
            let lp: f64 = c.forward(&cols).data.iter().sum();
            c.w.data[idx] = orig - eps;
            let lm: f64 = c.forward(&cols).data.iter().sum();
            c.w.data[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - c.grad_w.data[idx]).abs() < 1e-6 * numeric.abs().max(1.0),
                "weight {idx}: {numeric} vs {}",
                c.grad_w.data[idx]
            );
        }
    }

    #[test]
    fn pooling_averages_per_filter() {
        let f = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let pooled = global_avg_pool(&f);
        assert_eq!(pooled, vec![1.5, 2.5]);
    }
}
