//! Dense layers with explicit backpropagation, gradient-checked.

use jubench_kernels::rank_rng;
use jubench_kernels::{gemm, Matrix};

/// A fully-connected layer y = x·W + b (x is batch-major: batch × in).
pub struct Linear {
    pub w: Matrix,
    pub b: Vec<f64>,
    pub grad_w: Matrix,
    pub grad_b: Vec<f64>,
}

impl Linear {
    pub fn new(inputs: usize, outputs: usize, seed: u64) -> Self {
        let mut rng = rank_rng(seed, 0);
        let scale = (2.0 / inputs as f64).sqrt();
        Linear {
            w: Matrix::from_fn(inputs, outputs, |_, _| rng.gen_range(-scale..scale)),
            b: vec![0.0; outputs],
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
        }
    }

    pub fn parameters(&self) -> usize {
        self.w.rows * self.w.cols + self.b.len()
    }

    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = gemm(x, &self.w);
        for i in 0..y.rows {
            for j in 0..y.cols {
                y[(i, j)] += self.b[j];
            }
        }
        y
    }

    /// Accumulate the parameter gradients of output gradient `grad_out`
    /// at input `x`.
    pub fn accumulate_grads(&mut self, x: &Matrix, grad_out: &Matrix) {
        let gw = gemm(&x.transpose(), grad_out);
        for (dst, src) in self.grad_w.data.iter_mut().zip(&gw.data) {
            *dst += src;
        }
        for i in 0..grad_out.rows {
            for j in 0..grad_out.cols {
                self.grad_b[j] += grad_out[(i, j)];
            }
        }
    }

    /// The input gradient of output gradient `grad_out`. A layer whose
    /// input is data, not another layer's output, never needs it.
    pub(crate) fn input_grad(&self, grad_out: &Matrix) -> Matrix {
        gemm(grad_out, &self.w.transpose())
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_w.data.fill(0.0);
        self.grad_b.fill(0.0);
    }

    pub(crate) fn sgd_step(&mut self, lr: f64) {
        for (w, g) in self.w.data.iter_mut().zip(&self.grad_w.data) {
            *w -= lr * g;
        }
        for (b, g) in self.b.iter_mut().zip(&self.grad_b) {
            *b -= lr * g;
        }
    }

    /// Flatten the gradients (for data-parallel allreduce).
    pub(crate) fn grads_flat(&self) -> Vec<f64> {
        let mut v = self.grad_w.data.clone();
        v.extend_from_slice(&self.grad_b);
        v
    }

    /// Restore gradients from a flat buffer (after allreduce).
    pub(crate) fn set_grads_flat(&mut self, flat: &[f64]) {
        let nw = self.grad_w.data.len();
        self.grad_w.data.copy_from_slice(&flat[..nw]);
        self.grad_b.copy_from_slice(&flat[nw..]);
    }
}

/// tanh activation, in place; returns the activated matrix.
fn tanh_forward(mut x: Matrix) -> Matrix {
    for v in x.data.iter_mut() {
        *v = v.tanh();
    }
    x
}

/// Gradient of tanh given the *activated* values.
fn tanh_backward(activated: &Matrix, grad_out: &Matrix) -> Matrix {
    let mut g = grad_out.clone();
    for (gv, av) in g.data.iter_mut().zip(&activated.data) {
        *gv *= 1.0 - av * av;
    }
    g
}

/// Softmax cross-entropy over rows; returns (mean loss, gradient wrt
/// logits).
pub(crate) fn softmax_xent(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    let batch = logits.rows;
    assert_eq!(labels.len(), batch);
    let mut grad = Matrix::zeros(batch, logits.cols);
    let mut loss = 0.0;
    for i in 0..batch {
        let row = logits.row(i);
        let max = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f64> = row.iter().map(|&v| (v - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        loss += -(exps[labels[i]] / z).ln();
        for j in 0..logits.cols {
            grad[(i, j)] = (exps[j] / z - f64::from(j == labels[i])) / batch as f64;
        }
    }
    (loss / batch as f64, grad)
}

/// A two-layer MLP classifier: x → Linear → tanh → Linear → softmax.
pub(crate) struct MlpClassifier {
    pub l1: Linear,
    pub l2: Linear,
}

impl MlpClassifier {
    pub fn new(inputs: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        MlpClassifier {
            l1: Linear::new(inputs, hidden, seed),
            l2: Linear::new(hidden, classes, seed ^ 0xBEEF),
        }
    }

    /// Forward + backward; accumulates gradients and returns the loss.
    pub(crate) fn train_step(&mut self, x: &Matrix, labels: &[usize]) -> f64 {
        let h_pre = self.l1.forward(x);
        let h = tanh_forward(h_pre);
        let logits = self.l2.forward(&h);
        let (loss, grad_logits) = softmax_xent(&logits, labels);
        self.l2.accumulate_grads(&h, &grad_logits);
        let grad_h = self.l2.input_grad(&grad_logits);
        let grad_h_pre = tanh_backward(&h, &grad_h);
        self.l1.accumulate_grads(x, &grad_h_pre);
        loss
    }

    pub(crate) fn zero_grad(&mut self) {
        self.l1.zero_grad();
        self.l2.zero_grad();
    }

    pub(crate) fn sgd_step(&mut self, lr: f64) {
        self.l1.sgd_step(lr);
        self.l2.sgd_step(lr);
    }

    /// Evaluation loss without touching gradients.
    pub fn loss(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let h = tanh_forward(self.l1.forward(x));
        let logits = self.l2.forward(&h);
        softmax_xent(&logits, labels).0
    }

    pub(crate) fn grads_flat(&self) -> Vec<f64> {
        let mut v = self.l1.grads_flat();
        v.extend(self.l2.grads_flat());
        v
    }

    pub(crate) fn set_grads_flat(&mut self, flat: &[f64]) {
        let n1 = self.l1.parameters();
        self.l1.set_grads_flat(&flat[..n1]);
        self.l2.set_grads_flat(&flat[n1..]);
    }
}

/// A deterministic synthetic classification task: class = argmax over
/// `classes` fixed random projections of the input. The labelling rule
/// is derived from `seed` only and the samples are shard-specific — the
/// data-parallel setting where every rank optimizes the same objective
/// on different data.
pub(crate) fn synthetic_task_shard(
    samples: usize,
    inputs: usize,
    classes: usize,
    seed: u64,
    shard: u32,
) -> (Matrix, Vec<usize>) {
    let mut rng = rank_rng(seed, 1);
    let proj = Matrix::from_fn(inputs, classes, |_, _| rng.gen_range(-1.0..1.0));
    let mut rng = rank_rng(seed ^ 0x5A4D, shard.wrapping_add(2));
    let x = Matrix::from_fn(samples, inputs, |_, _| rng.gen_range(-1.0..1.0));
    let scores = gemm(&x, &proj);
    let labels = (0..samples)
        .map(|i| {
            let row = scores.row(i);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        })
        .collect();
    (x, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_check_linear_and_mlp() {
        // Finite-difference check of d(loss)/d(w) for a few weights.
        let (x, labels) = synthetic_task_shard(8, 5, 3, 1, 0);
        let mut mlp = MlpClassifier::new(5, 7, 3, 2);
        mlp.zero_grad();
        mlp.train_step(&x, &labels);
        let analytic_l1 = mlp.l1.grad_w.clone();
        let analytic_l2 = mlp.l2.grad_w.clone();
        let eps = 1e-6;
        for (layer, analytic, idx) in [(1, &analytic_l1, 3), (2, &analytic_l2, 5)] {
            fn w(m: &mut MlpClassifier, layer: usize, idx: usize) -> &mut f64 {
                if layer == 1 {
                    &mut m.l1.w.data[idx]
                } else {
                    &mut m.l2.w.data[idx]
                }
            }
            *w(&mut mlp, layer, idx) += eps;
            let lp = mlp.loss(&x, &labels);
            *w(&mut mlp, layer, idx) -= 2.0 * eps;
            let lm = mlp.loss(&x, &labels);
            *w(&mut mlp, layer, idx) += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data[idx];
            assert!(
                (numeric - got).abs() < 1e-6 * numeric.abs().max(1.0),
                "layer {layer}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn softmax_xent_of_perfect_prediction_is_small() {
        let mut logits = Matrix::zeros(2, 3);
        logits[(0, 1)] = 20.0;
        logits[(1, 2)] = 20.0;
        let (loss, grad) = softmax_xent(&logits, &[1, 2]);
        assert!(loss < 1e-6);
        assert!(grad.max_abs() < 1e-6);
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let logits = Matrix::zeros(4, 8);
        let (loss, _) = softmax_xent(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn training_reduces_loss() {
        let (x, labels) = synthetic_task_shard(64, 10, 4, 3, 0);
        let mut mlp = MlpClassifier::new(10, 32, 4, 4);
        let initial = mlp.loss(&x, &labels);
        for _ in 0..200 {
            mlp.zero_grad();
            mlp.train_step(&x, &labels);
            mlp.sgd_step(0.5);
        }
        let fin = mlp.loss(&x, &labels);
        assert!(fin < 0.5 * initial, "loss {initial} → {fin}");
    }

    #[test]
    fn grads_flat_round_trip() {
        let (x, labels) = synthetic_task_shard(8, 5, 3, 5, 0);
        let mut mlp = MlpClassifier::new(5, 6, 3, 6);
        mlp.zero_grad();
        mlp.train_step(&x, &labels);
        let flat = mlp.grads_flat();
        let mut other = MlpClassifier::new(5, 6, 3, 6);
        other.set_grads_flat(&flat);
        assert_eq!(other.grads_flat(), flat);
        assert_eq!(flat.len(), 5 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let x = Matrix::from_fn(1, 3, |_, j| j as f64 * 0.3 - 0.3);
        let a = tanh_forward(x.clone());
        let ones = Matrix::from_fn(1, 3, |_, _| 1.0);
        let g = tanh_backward(&a, &ones);
        for j in 0..3 {
            let v: f64 = x[(0, j)];
            let expect = 1.0 - v.tanh().powi(2);
            assert!((g[(0, j)] - expect).abs() < 1e-12);
        }
    }
}
