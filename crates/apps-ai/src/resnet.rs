//! The ResNet benchmark: ResNet50-style vision training with im2col
//! convolutions and a Horovod-style ring allreduce (prepared for the
//! procurement but ultimately not used).

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::{rank_rng, DetRng, Matrix};
use jubench_simmpi::ReduceOp;

use crate::conv::{global_avg_pool, Conv2d};

/// ResNet50: ≈ 25.6 M parameters, ≈ 4.1 GFLOP per 224² image forward.
pub const PARAMETERS: f64 = 25.6e6;
const FLOPS_PER_IMAGE: f64 = 3.0 * 4.1e9; // fwd + bwd
const GLOBAL_BATCH: f64 = 2560.0; // 256 per GPU on 10 nodes
const STEPS: u32 = 500;

pub struct ResNet;

impl ResNet {
    fn model(machine: Machine) -> AppModel {
        let devices = machine.devices() as f64;
        let images_per_gpu = GLOBAL_BATCH / devices;
        AppModel::new(machine, STEPS)
            .with_efficiencies(0.75, 0.85)
            .with_phase(Phase::compute(
                "conv fwd/bwd",
                Work::new(FLOPS_PER_IMAGE * images_per_gpu, 4.0 * PARAMETERS),
            ))
            .with_phase(Phase::comm(
                "horovod ring allreduce",
                CommPattern::RingAllReduce {
                    bytes: (4.0 * PARAMETERS) as u64,
                },
            ))
            .with_overlap(0.5)
    }

    /// A tiny conv classifier distinguishing vertical from horizontal
    /// stripes — linearly separable through a 3×3 conv, so training must
    /// drive the loss down.
    fn striped_image(n: usize, vertical: bool, rng: &mut DetRng) -> Vec<f64> {
        (0..n * n)
            .map(|i| {
                let (y, x) = (i / n, i % n);
                let stripe = if vertical { x % 2 } else { y % 2 };
                stripe as f64 + rng.gen_range(-0.05..0.05)
            })
            .collect()
    }
}

impl Benchmark for ResNet {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::ResNet.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let seed = layout.seed;
        let results = real_world(layout).run(move |comm| {
            let n = 8;
            let mut rng = rank_rng(seed, comm.rank());
            let images: Vec<(Vec<f64>, usize)> = (0..8)
                .map(|k| {
                    let vertical = k % 2 == 0;
                    (
                        ResNet::striped_image(n, vertical, &mut rng),
                        usize::from(vertical),
                    )
                })
                .collect();
            let mut conv = Conv2d::new(3, 2, seed);
            // A ReLU between the convolution and the pooling is essential:
            // the plain spatial average of a linear convolution of a
            // periodic pattern is orientation-blind.
            let relu_pool = |features: &Matrix| -> (Vec<f64>, Matrix) {
                let mut act = features.clone();
                for v in act.data.iter_mut() {
                    *v = v.max(0.0);
                }
                (global_avg_pool(&act), act)
            };
            let eval_loss = |conv: &Conv2d| -> f64 {
                let mut total = 0.0;
                for (img, label) in &images {
                    let features = conv.forward(img, n);
                    let (pooled, _) = relu_pool(&features);
                    let logits = Matrix {
                        rows: 1,
                        cols: 2,
                        data: pooled,
                    };
                    total += crate::nn::softmax_xent(&logits, &[*label]).0;
                }
                total / images.len() as f64
            };
            let initial = eval_loss(&conv);
            for _ in 0..60 {
                conv.zero_grad();
                for (img, label) in &images {
                    let features = conv.forward(img, n);
                    let (pooled, act) = relu_pool(&features);
                    let logits = Matrix {
                        rows: 1,
                        cols: 2,
                        data: pooled,
                    };
                    let (_, grad_logits) = crate::nn::softmax_xent(&logits, &[*label]);
                    // Back through the pool (spread evenly) and the ReLU
                    // (mask inactive units).
                    let rows = features.rows;
                    let grad_feat = Matrix::from_fn(rows, 2, |i, j| {
                        if act[(i, j)] > 0.0 {
                            grad_logits[(0, j)] / rows as f64
                        } else {
                            0.0
                        }
                    });
                    conv.backward(img, n, &grad_feat);
                }
                // Horovod-style synchronous gradient averaging.
                let mut grads = conv.grad_w.data.clone();
                comm.allreduce_f64(&mut grads, ReduceOp::Sum).unwrap();
                let p = comm.size() as f64;
                for g in grads.iter_mut() {
                    *g /= p;
                }
                conv.grad_w.data.copy_from_slice(&grads);
                conv.sgd_step(2.0);
            }
            (initial, eval_loss(&conv))
        });
        let (initial, fin) = results[0].value;
        let verification = if fin < initial {
            VerificationOutcome::FrameworkInherent {
                key_data: vec![("initial_loss".into(), initial), ("final_loss".into(), fin)],
            }
        } else {
            VerificationOutcome::Failed {
                detail: format!("loss did not decrease: {initial} → {fin}"),
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![("final_loss".into(), fin)],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        let mut metrics = vec![("parameters".into(), PARAMETERS)];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_separates_stripes() {
        let out = ResNet.run(&RunConfig::test(10)).unwrap();
        assert!(out.verification.passed());
        let fin = out.metric("final_loss").unwrap();
        assert!(fin < (2.0f64).ln(), "final loss {fin} not below chance");
    }

    #[test]
    fn resnet_was_prepared_but_not_used() {
        let m = ResNet.meta();
        assert!(!m.used_in_procurement);
        assert_eq!(m.base_nodes.reference(), Some(10));
    }

    #[test]
    fn ring_allreduce_cost_grows_mildly() {
        let t10 = ResNet::model(Machine::juwels_booster().partition(10)).timing();
        let t40 = ResNet::model(Machine::juwels_booster().partition(40)).timing();
        // Compute shrinks 4×; the ring allreduce volume per rank is fixed,
        // so total time falls but sublinearly.
        assert!(t40.total_s < t10.total_s);
        assert!(t10.total_s / t40.total_s < 4.0);
    }
}
