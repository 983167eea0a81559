//! The MMoCLIP benchmark: contrastive language-image pre-training with a
//! global embedding allgather.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::{gemm, rank_rng, Matrix};
use jubench_simmpi::{Comm, ReduceOp, SimError};

use crate::nn::Linear;

/// ViT-L-14 parameter count (vision + text towers, ≈ 428 M).
pub const PARAMETERS: f64 = 428e6;
/// "a synthetic dataset of 3 200 000 image-text pairs".
pub const DATASET_PAIRS: f64 = 3.2e6;
/// Embedding dimension of the shared space.
pub const EMBED_DIM: usize = 768;
/// Global batch size of the training.
const GLOBAL_BATCH: f64 = 4096.0;
/// FLOPs per pair forward+backward (ViT-L-14 ≈ 6 × params × 257 tokens…
/// folded into a per-pair constant).
const FLOPS_PER_PAIR: f64 = 6.0 * PARAMETERS;

/// A miniature two-tower CLIP model: both towers are linear encoders into
/// a shared embedding space, trained with the symmetric InfoNCE loss over
/// the globally gathered batch.
pub struct TwoTower {
    pub image_tower: Linear,
    pub text_tower: Linear,
    pub dim: usize,
}

impl TwoTower {
    pub fn new(inputs: usize, dim: usize, seed: u64) -> Self {
        TwoTower {
            image_tower: Linear::new(inputs, dim, seed),
            text_tower: Linear::new(inputs, dim, seed ^ 0xC11F),
            dim,
        }
    }

    /// One distributed contrastive step over the global batch: encode the
    /// local pairs, allgather both embedding sets, compute the local rows
    /// of the InfoNCE loss, and backpropagate through the local
    /// embeddings. Returns the mean local loss.
    pub fn train_step(
        &mut self,
        comm: &mut Comm,
        images: &Matrix,
        texts: &Matrix,
        lr: f64,
    ) -> Result<f64, SimError> {
        let local_b = images.rows;
        let img_emb = self.image_tower.forward(images);
        let txt_emb = self.text_tower.forward(texts);
        // Allgather both embedding matrices (the "multiple data parallelism
        // schemes" of OpenCLIP reduce to this global gather).
        let all_txt = comm.allgather_f64(&txt_emb.data)?;
        let global_b = all_txt.len() / self.dim;
        let all_txt = Matrix {
            rows: global_b,
            cols: self.dim,
            data: all_txt,
        };
        let my_offset = comm.rank() as usize * local_b;

        // Logits for local image rows against all texts.
        let logits = gemm(&img_emb, &all_txt.transpose());
        // Softmax cross-entropy with the matching text as the label.
        let mut loss = 0.0;
        let mut grad_logits = Matrix::zeros(local_b, global_b);
        for i in 0..local_b {
            let row = logits.row(i);
            let max = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
            let exps: Vec<f64> = row.iter().map(|&v| (v - max).exp()).collect();
            let z: f64 = exps.iter().sum();
            let label = my_offset + i;
            loss += -(exps[label] / z).ln();
            for j in 0..global_b {
                grad_logits[(i, j)] = (exps[j] / z - f64::from(j == label)) / local_b as f64;
            }
        }
        loss /= local_b as f64;

        // Backprop: d/d(img_emb) = grad_logits · all_txt; the text-tower
        // gradient uses only the local block of grad_logits (each rank
        // owns its text embeddings' rows of the global loss).
        let grad_img = gemm(&grad_logits, &all_txt);
        self.image_tower.zero_grad();
        self.image_tower.backward(images, &grad_img);
        let local_block = Matrix::from_fn(local_b, local_b, |i, j| grad_logits[(i, my_offset + j)]);
        let grad_txt = gemm(&local_block.transpose(), &img_emb);
        self.text_tower.zero_grad();
        self.text_tower.backward(texts, &grad_txt);

        // Synchronous data-parallel update.
        let mut grads = self.image_tower.grads_flat();
        grads.extend(self.text_tower.grads_flat());
        comm.allreduce_f64(&mut grads, ReduceOp::Sum)?;
        let p = comm.size() as f64;
        for g in grads.iter_mut() {
            *g /= p;
        }
        let n1 = self.image_tower.grads_flat().len();
        self.image_tower.set_grads_flat(&grads[..n1]);
        self.text_tower.set_grads_flat(&grads[n1..]);
        self.image_tower.sgd_step(lr);
        self.text_tower.sgd_step(lr);
        Ok(loss)
    }
}

/// Paired synthetic data: texts are a fixed linear transform of the
/// images, so alignment is learnable.
pub fn paired_batch(batch: usize, inputs: usize, seed: u64, rank: u32) -> (Matrix, Matrix) {
    let mut wrng = rank_rng(seed, 0); // shared pairing transform
    let w = Matrix::from_fn(inputs, inputs, |_, _| wrng.gen_range(-0.5..0.5));
    let mut rng = rank_rng(seed ^ 0xDA7A, rank);
    let images = Matrix::from_fn(batch, inputs, |_, _| rng.gen_range(-1.0..1.0));
    let texts = gemm(&images, &w);
    (images, texts)
}

pub struct MmoClip;

impl MmoClip {
    fn model(machine: Machine) -> AppModel {
        let devices = machine.devices() as f64;
        let pairs_per_gpu = GLOBAL_BATCH / devices;
        let steps = (DATASET_PAIRS / GLOBAL_BATCH).ceil() as u32;
        // Per-step embedding allgather (fp32 embeddings both ways) plus
        // the gradient ring allreduce.
        let embed_bytes = (pairs_per_gpu * EMBED_DIM as f64 * 4.0 * 2.0) as u64;
        let grad_bytes = (2.0 * PARAMETERS) as u64;
        AppModel::new(machine, steps)
            .with_efficiencies(0.8, 0.85)
            .with_phase(Phase::compute(
                "tower fwd/bwd",
                Work::new(FLOPS_PER_PAIR * pairs_per_gpu, 2.0 * PARAMETERS),
            ))
            .with_phase(Phase::comm(
                "embedding allgather",
                CommPattern::AllGather {
                    bytes_per_rank: embed_bytes,
                },
            ))
            .with_phase(Phase::comm(
                "gradient allreduce",
                CommPattern::RingAllReduce { bytes: grad_bytes },
            ))
            .with_overlap(0.4)
    }
}

impl Benchmark for MmoClip {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::MmoClip.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let seed = layout.seed;
        let results = real_world(layout).run(move |comm| {
            let inputs = 12;
            let (images, texts) = paired_batch(8, inputs, seed, comm.rank());
            let mut model = TwoTower::new(inputs, 16, seed);
            let first = model.train_step(comm, &images, &texts, 0.0).unwrap();
            let mut last = first;
            for _ in 0..40 {
                last = model.train_step(comm, &images, &texts, 0.1).unwrap();
            }
            (first, last)
        });
        let (first, last) = results[0].value;
        let verification = if last < first {
            VerificationOutcome::FrameworkInherent {
                key_data: vec![
                    ("initial_contrastive_loss".into(), first),
                    ("final_contrastive_loss".into(), last),
                ],
            }
        } else {
            VerificationOutcome::Failed {
                detail: format!("contrastive loss did not decrease: {first} → {last}"),
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![("final_loss".into(), last)],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        let mut metrics = vec![("dataset_pairs".into(), DATASET_PAIRS)];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_simmpi::World;

    #[test]
    fn contrastive_training_aligns_pairs() {
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let (images, texts) = paired_batch(6, 10, 3, comm.rank());
            let mut model = TwoTower::new(10, 12, 3);
            let first = model.train_step(comm, &images, &texts, 0.0).unwrap();
            let mut last = first;
            for _ in 0..60 {
                last = model.train_step(comm, &images, &texts, 0.15).unwrap();
            }
            (first, last)
        });
        for r in &results {
            let (first, last) = r.value;
            assert!(last < 0.7 * first, "loss {first} → {last}");
        }
    }

    #[test]
    fn initial_loss_is_near_log_global_batch() {
        // Untrained towers give near-uniform logits: loss ≈ ln(global B).
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(|comm| {
            let (images, texts) = paired_batch(4, 10, 5, comm.rank());
            let mut model = TwoTower::new(10, 12, 5);
            model.train_step(comm, &images, &texts, 0.0).unwrap()
        });
        let global_b = 16.0f64; // 4 ranks × 4 pairs
        for r in &results {
            assert!((r.value - global_b.ln()).abs() < 1.0, "loss {}", r.value);
        }
    }

    #[test]
    fn run_on_8_reference_nodes() {
        let out = MmoClip.run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert_eq!(out.metric("dataset_pairs"), Some(3.2e6));
    }

    #[test]
    fn data_parallel_scaling_reduces_time() {
        let t8 = MmoClip.run(&RunConfig::test(8)).unwrap();
        let t16 = MmoClip.run(&RunConfig::test(16)).unwrap();
        assert!(t16.virtual_time_s < t8.virtual_time_s);
    }

    #[test]
    fn meta_is_mmoclip() {
        assert_eq!(MmoClip.meta().id, BenchmarkId::MmoClip);
    }
}
