//! The Megatron-LM benchmark: 175 B parameters, 20 M tokens, tensor +
//! pipeline + data parallelism.

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::Matrix;

use crate::nn::{synthetic_task_shard, MlpClassifier};

/// GPT-175B architecture (Megatron's published configuration).
pub const PARAMETERS: f64 = 175e9;
pub const LAYERS: u32 = 96;
pub const HIDDEN: f64 = 12288.0;
pub const SEQ_LEN: f64 = 2048.0;
/// "training 20 million tokens" defines the time metric.
pub const FOM_TOKENS: f64 = 20e6;
/// Global batch in tokens per step (1536 sequences × 2048 tokens).
const TOKENS_PER_STEP: f64 = 1536.0 * 2048.0;

/// The parallelism layout on a partition: tensor-parallel within the node
/// (4 GPUs), pipeline over 8 node groups, data-parallel across the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parallelism {
    pub tensor: u32,
    pub pipeline: u32,
    pub data: u32,
}

impl Parallelism {
    pub fn for_devices(devices: u32) -> Self {
        let tensor = 4u32.min(devices);
        let after_tp = (devices / tensor).max(1);
        let pipeline = 8u32.min(after_tp);
        let data = (after_tp / pipeline).max(1);
        Parallelism {
            tensor,
            pipeline,
            data,
        }
    }

    pub fn total(&self) -> u32 {
        self.tensor * self.pipeline * self.data
    }
}

pub struct MegatronLm;

impl MegatronLm {
    fn model(machine: Machine) -> AppModel {
        let devices = machine.devices();
        let par = Parallelism::for_devices(devices);
        // FLOPs per token for forward+backward ≈ 6 × parameters; shared
        // over the tensor×pipeline shards, replicated across data-parallel
        // groups.
        let model_shards = (par.tensor * par.pipeline) as f64;
        let tokens_per_replica = TOKENS_PER_STEP / par.data as f64;
        let flops_per_gpu = 6.0 * PARAMETERS * tokens_per_replica / model_shards;
        // Weights touched once per step per shard (fp16).
        let bytes_per_gpu = 2.0 * PARAMETERS / model_shards;
        // Tensor-parallel activations: 2 allreduces per layer of the
        // microbatch activations (fp16).
        let micro_tokens = TOKENS_PER_STEP / par.data as f64 / 8.0;
        let tp_bytes = (2.0 * micro_tokens.min(SEQ_LEN * 16.0) * HIDDEN) as u64;
        // Pipeline: activation tensors between stages.
        let pp_bytes = (2.0 * SEQ_LEN * HIDDEN) as u64;
        // Data-parallel gradient allreduce: the shard's gradients (fp16).
        let dp_bytes = (2.0 * PARAMETERS / model_shards) as u64;
        let steps = (FOM_TOKENS / TOKENS_PER_STEP).ceil() as u32;
        AppModel::new(machine, steps)
            // GEMM-dominated: high flop efficiency (tensor cores).
            .with_efficiencies(0.85, 0.85)
            .with_phase(Phase::compute(
                "transformer fwd/bwd",
                Work::new(flops_per_gpu, bytes_per_gpu),
            ))
            .with_phase(Phase {
                name: "tensor-parallel allreduce",
                work: Work::ZERO,
                patterns: (0..LAYERS.min(8))
                    .map(|_| CommPattern::AllReduce { bytes: tp_bytes })
                    .collect(),
            })
            .with_phase(Phase::comm(
                "pipeline p2p",
                CommPattern::Pipeline { bytes: pp_bytes },
            ))
            .with_phase(Phase::comm(
                "gradient allreduce",
                CommPattern::RingAllReduce { bytes: dp_bytes },
            ))
            .with_overlap(0.5)
    }
}

impl Benchmark for MegatronLm {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::MegatronLm.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    /// Data-parallel training with gradient allreduce; ranks must end
    /// bit-identical (synchronous SGD) and the loss must decrease
    /// (framework-inherent verification).
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let seed = layout.seed;
        let results = real_world(layout).run(move |comm| {
            let (x, labels) = synthetic_task_shard(32, 8, 4, seed, comm.rank());
            let mut mlp = MlpClassifier::new(8, 16, 4, seed); // same init everywhere
            let initial = mlp.loss(&x, &labels);
            let mut fin = initial;
            for _ in 0..30 {
                mlp.zero_grad();
                mlp.train_step(&x, &labels);
                let mut grads = mlp.grads_flat();
                comm.allreduce_f64(&mut grads, jubench_simmpi::ReduceOp::Sum)
                    .unwrap();
                let p = comm.size() as f64;
                for g in grads.iter_mut() {
                    *g /= p;
                }
                mlp.set_grads_flat(&grads);
                mlp.sgd_step(0.3);
                fin = mlp.loss(&x, &labels);
            }
            // Weight checksum for cross-rank consistency.
            let checksum: f64 =
                mlp.l1.w.data.iter().sum::<f64>() + mlp.l2.w.data.iter().sum::<f64>();
            (initial, fin, checksum)
        });
        let checksum0 = results[0].value.2;
        let consistent = results
            .iter()
            .all(|r| (r.value.2 - checksum0).abs() < 1e-9 * checksum0.abs().max(1.0));
        let loss_fell = results.iter().all(|r| r.value.1 < r.value.0);
        let verification = if consistent && loss_fell {
            VerificationOutcome::FrameworkInherent {
                key_data: vec![
                    ("initial_loss".into(), results[0].value.0),
                    ("final_loss".into(), results[0].value.1),
                ],
            }
        } else {
            VerificationOutcome::Failed {
                detail: format!("consistent={consistent}, loss_fell={loss_fell}"),
            }
        };
        Ok(RealTrack {
            verification,
            metrics: vec![("final_loss".into(), results[0].value.1)],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let timing = Self::model(cfg.machine()).timing();
        // Tokens/s from the modeled step time.
        let tokens_per_s = FOM_TOKENS / timing.total_s;
        let mut metrics = vec![
            ("tokens_per_second".into(), tokens_per_s),
            ("parameters".into(), PARAMETERS),
        ];
        metrics.extend(track.metrics.iter().cloned());
        let mut out = outcome(timing, track.verification.clone(), metrics);
        // The paper's FOM conversion: rate × pre-defined token count.
        out.fom = Fom::Rate {
            per_second: tokens_per_s,
            items: FOM_TOKENS,
        };
        out
    }
}

/// Helper for tests: run the analytic model only.
pub fn model_time(nodes: u32) -> f64 {
    MegatronLm::model(Machine::juwels_booster().partition(nodes))
        .timing()
        .total_s
}

/// Matrix re-export check (keeps the GEMM path hot in benches).
pub fn gemm_probe(n: usize) -> f64 {
    let a = Matrix::from_fn(n, n, |i, j| ((i + j) as f64).sin());
    let b = Matrix::identity(n);
    jubench_kernels::gemm(&a, &b).frobenius()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::TimeMetric;

    #[test]
    fn parallelism_layout_on_96_nodes() {
        // 96 nodes × 4 GPUs = 384 devices: TP 4 × PP 8 × DP 12.
        let p = Parallelism::for_devices(384);
        assert_eq!(
            p,
            Parallelism {
                tensor: 4,
                pipeline: 8,
                data: 12
            }
        );
        assert_eq!(p.total(), 384);
    }

    #[test]
    fn parallelism_degenerates_gracefully() {
        let p = Parallelism::for_devices(4);
        assert_eq!(p.tensor, 4);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn run_produces_rate_fom_normalized_to_time() {
        let out = MegatronLm.run(&RunConfig::test(96)).unwrap();
        match out.fom {
            Fom::Rate { per_second, items } => {
                assert_eq!(items, FOM_TOKENS);
                assert!(per_second > 0.0);
                let tm = out.fom.time_metric().unwrap();
                assert!((tm.0 - FOM_TOKENS / per_second).abs() < 1e-9);
                assert!(tm > TimeMetric(0.0));
            }
            other => panic!("expected a rate FOM, got {other:?}"),
        }
    }

    #[test]
    fn data_parallel_training_verifies() {
        let out = MegatronLm.run(&RunConfig::test(96)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(
            out.verification,
            VerificationOutcome::FrameworkInherent { .. }
        ));
        assert!(out.metric("final_loss").unwrap() < (4.0f64).ln());
    }

    #[test]
    fn throughput_improves_with_scale() {
        // More data-parallel replicas → fewer steps... in this model the
        // total token budget is fixed, so time falls with devices.
        let t48 = model_time(48);
        let t96 = model_time(96);
        let t192 = model_time(192);
        assert!(t48 > t96, "{t48} !> {t96}");
        assert!(t96 > t192, "{t96} !> {t192}");
    }

    #[test]
    fn gemm_probe_runs() {
        assert!(gemm_probe(16) > 0.0);
    }

    #[test]
    fn meta_reference_is_96_nodes() {
        assert_eq!(MegatronLm.meta().base_nodes.reference(), Some(96));
    }
}
