//! # jubench-apps-ai
//!
//! Proxies for the three AI benchmarks, all built on a from-scratch
//! neural-network layer with explicit, gradient-checked backpropagation:
//!
//! - **Megatron-LM** (§IV-A1c): training a 175-billion-parameter GPT-style
//!   model; "the usual throughput metric (tokens per time) [is converted]
//!   to a hypothetical time-to-solution FOM by training 20 million
//!   tokens". The performance model covers tensor, pipeline, and data
//!   parallelism; the real execution trains a dense network
//!   data-parallel with gradient allreduce.
//! - **MMoCLIP** (§IV-A1d): contrastive language-image pre-training of a
//!   ViT-L-14-class model on 3,200,000 synthetic image-text pairs; the
//!   real execution trains a genuine two-tower contrastive (InfoNCE)
//!   model with a global embedding allgather.
//! - **ResNet** (prepared but not used): ResNet50-style vision training
//!   with im2col convolutions and a Horovod-style ring allreduce.
//!
//! Verification is framework-inherent (the paper: "required key data in
//! the output [...] arguably the weakest form of verification"): the
//! training loss must decrease and be present in the output.

pub(crate) mod clip;
pub(crate) mod conv;
pub(crate) mod megatron;
pub(crate) mod nn;
pub mod resnet;

pub use clip::MmoClip;
pub use megatron::MegatronLm;
pub use nn::Linear;
pub use resnet::ResNet;
