//! # jubench-jube
//!
//! A workflow engine modeled after JUBE (Breuer et al.), the environment in
//! which every benchmark of the JUPITER suite is implemented (§III-B):
//!
//! > "In benchmark-specific definition files, *JUBE scripts*, parameters
//! > and execution steps (compilation, computation, data processing,
//! > verification) are defined. These are then interpreted by the JUBE
//! > runtime, resolving dependencies and eventually submitting jobs for
//! > execution [...] The various sub-benchmarks and variants are
//! > implemented by tags, which select different versions of parameter
//! > definitions. After execution, the benchmark results are presented by
//! > JUBE in a concise tabular form, including the FOM."
//!
//! The engine provides exactly these mechanisms:
//!
//! - [`ParameterSet`]: named parameters with `${name}` template
//!   substitution, tag-selected alternatives, and multi-value parameters
//!   that expand into a cartesian *parameter space* of workpackages,
//! - [`Step`]s with dependencies, executed in topological order per
//!   workpackage,
//! - [`ResultTable`]: concise tabular presentation of selected columns,
//!   including the FOM.

#![forbid(unsafe_code)]

pub mod archive;
pub mod checkpoint;
pub mod error;
pub mod params;
pub mod platform;
pub mod step;
pub mod table;
pub mod workflow;

pub use archive::{fnv1a64, verify_download, Archive};
pub use checkpoint::{CompletedStep, WorkflowCheckpoint};
pub use error::JubeError;
pub use params::{ParameterSet, ResolvedParams};
pub use platform::Platform;
pub use step::{output1, Step, StepOutput};
pub use table::ResultTable;
pub use workflow::{Workflow, WorkpackageResult};
