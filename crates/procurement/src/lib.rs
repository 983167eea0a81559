//! # jubench-procurement
//!
//! The procurement methodology of §II: the Total-Cost-of-Ownership-based
//! value-for-money evaluation, benchmark commitments, and the High-Scaling
//! assessment against the 1 EFLOP/s(th) partition.
//!
//! > "The procurement for the JUPITER system uses a
//! > Total-Cost-of-Ownership-based (TCO) value-for-money approach, in
//! > which the number of executed reference workloads over the lifespan of
//! > the system determines the value. [...] costs for electricity and
//! > cooling are a substantial part of the overall project budget."

pub mod commitment;
pub mod composite;
pub(crate) mod high_scaling;
pub mod tco;

pub use commitment::{Commitment, Proposal, ProposalEvaluation, ReferenceSet};
pub use composite::{CompositeScore, ScoreItem};
pub use high_scaling::{exascale_partition_nodes, HighScalingAssessment};
pub use tco::{energy_to_solution_j, TcoModel, TcoResult};
