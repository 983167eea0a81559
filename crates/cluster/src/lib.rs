//! # jubench-cluster
//!
//! Machine model of the systems involved in the JUPITER procurement. This
//! crate is the substitution for the hardware the paper used:
//!
//! - **JUWELS Booster**, the preparation system: 936 nodes in a DragonFly+
//!   topology with 48-node cells, each node with 4 NVIDIA A100 GPUs (40 GB)
//!   and 4 InfiniBand HDR200 adapters (§III-A),
//! - the envisioned **JUPITER Booster**: a 1 EFLOP/s HPL system, i.e. a
//!   partition 20× the 50 PFLOP/s(th) preparation sub-partition (§II-B),
//!
//! together with an analytic **network model** (latency/bandwidth with
//! distinct intra-node, intra-cell, and inter-cell regimes plus a
//! large-scale congestion factor) and a **roofline compute model**. The
//! simulated MPI runtime (`jubench-simmpi`) advances its virtual clocks
//! using these models, so that scaling *shapes* — not absolute runtimes —
//! reproduce the mechanisms of the paper's Figs. 2 and 3.

pub mod cost;
pub mod machine;
pub mod netmodel;
pub mod patterns;
pub mod roofline;
pub mod topology;

pub use cost::CostModel;
pub use machine::{intern_name, GpuSpec, Machine, NodeSpec};
pub use netmodel::{LinkParams, NetModel};
pub use patterns::{balanced_dims3, balanced_dims4, pattern_time, CommPattern};
pub use roofline::{Roofline, Work};
pub use topology::{Distance, Placement, Topology};
