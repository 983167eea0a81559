//! The [`Benchmark`] trait implemented by every workload of the suite.

use crate::error::SuiteError;
use crate::fom::Fom;
use crate::meta::BenchmarkMeta;
use crate::variant::MemoryVariant;
use crate::verify::VerificationOutcome;
use jubench_cluster::Machine;

/// How the proxy workload is scaled relative to the paper's workload.
///
/// The real workloads (28 M atoms, 2⁴² state amplitudes, …) do not fit a
/// development machine; every proxy can run the same code path at a reduced
/// problem size. `Test` is sized for unit tests (sub-second), `Bench` for
/// Criterion benches and scaling studies, `Paper` keeps the paper's problem
/// dimensions for the analytic parts of the model (memory footprints,
/// communication volumes) while still executing the reduced kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkloadScale {
    #[default]
    Test,
    Bench,
    Paper,
}

/// Configuration of one benchmark execution.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of (simulated) nodes to run on.
    pub nodes: u32,
    /// Memory variant for High-Scaling benchmarks; `None` selects the Base
    /// workload.
    pub variant: Option<MemoryVariant>,
    /// Problem-size scaling of the proxy.
    pub scale: WorkloadScale,
    /// Deterministic seed for workload generation.
    pub seed: u64,
    /// The machine backend the run is modeled on. `nodes` selects a
    /// partition of it; the backend's device roofline and network model
    /// drive the virtual clocks. Defaults to the JUWELS Booster
    /// preparation system.
    pub backend: Machine,
}

impl RunConfig {
    /// Test-scale run on `nodes` nodes with the default seed.
    pub fn test(nodes: u32) -> Self {
        RunConfig {
            nodes,
            variant: None,
            scale: WorkloadScale::Test,
            seed: 0x5EED,
            backend: Machine::juwels_booster(),
        }
    }

    /// Bench-scale run on `nodes` nodes.
    pub fn bench(nodes: u32) -> Self {
        RunConfig {
            nodes,
            scale: WorkloadScale::Bench,
            ..RunConfig::test(nodes)
        }
    }

    pub fn with_variant(mut self, variant: MemoryVariant) -> Self {
        self.variant = Some(variant);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run on (a partition of) `backend` instead of the default JUWELS
    /// Booster model.
    pub fn with_backend(mut self, backend: Machine) -> Self {
        self.backend = backend;
        self
    }

    /// The `nodes`-node partition of the configured backend — the machine
    /// every benchmark should model its run on.
    pub fn machine(&self) -> Machine {
        self.backend.partition(self.nodes)
    }
}

/// The outcome of one benchmark execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The raw Figure-of-Merit.
    pub fom: Fom,
    /// Virtual makespan on the modeled machine, in seconds (max over ranks
    /// of compute + communication virtual time). This is what Figs. 2 and 3
    /// plot.
    pub virtual_time_s: f64,
    /// Virtual time spent in computation (max over ranks).
    pub compute_time_s: f64,
    /// Virtual time spent in communication (max over ranks).
    pub comm_time_s: f64,
    /// Verification of the computed result.
    pub verification: VerificationOutcome,
    /// Free-form additional metrics (e.g. "plaquette", "final_loss").
    pub metrics: Vec<(String, f64)>,
}

impl RunOutcome {
    /// Look up a named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Share of the virtual makespan spent communicating, in `[0, 1]`
    /// (0 for a run that took no virtual time) — what a scheduler job
    /// derived from this run is slowed by when its placement spreads.
    pub fn comm_fraction(&self) -> f64 {
        let share = self.comm_time_s / self.virtual_time_s;
        // A machine model slow enough to overflow both times makes the
        // share ∞/∞, and `clamp` would hand the NaN through.
        if self.virtual_time_s > 0.0 && !share.is_nan() {
            share.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Which simulated-MPI world a benchmark's real execution launches — how
/// its rank count was derived from the partition, and the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealWorld {
    /// No world: a serial kernel (ParFlow's PCG solve, the synthetic
    /// host kernels).
    Serial,
    /// One rank per device of the partition, capped.
    PerGpu { ranks: u32 },
    /// One rank per node of the partition, capped (the CPU codes).
    PerNode { ranks: u32 },
}

impl RealWorld {
    /// Ranks the real execution launches.
    pub fn ranks(self) -> u32 {
        match self {
            RealWorld::Serial => 1,
            RealWorld::PerGpu { ranks } | RealWorld::PerNode { ranks } => ranks,
        }
    }
}

/// Everything the real execution of a benchmark depends on. There is no
/// machine in it: two configurations on different backends whose layouts
/// compare equal run the same arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RealLayout {
    pub scale: WorkloadScale,
    pub variant: Option<MemoryVariant>,
    pub seed: u64,
    pub world: RealWorld,
}

impl RealLayout {
    /// The layout of `cfg`'s real execution on `world`.
    pub fn new(cfg: &RunConfig, world: RealWorld) -> Self {
        RealLayout {
            scale: cfg.scale,
            variant: cfg.variant,
            seed: cfg.seed,
            world,
        }
    }
}

/// What a real execution produces, with no virtual time in it: a pure
/// function of the benchmark and its [`RealLayout`] — *except* the
/// metrics a benchmark declares as host rates (STREAM's four kernels,
/// `measured_flops`, `measured_teps`, IOR's `write_bw` / `read_bw`),
/// which time the kernel on the wall clock and differ between two
/// executions. No row, table, trace, report or digest reads those.
#[derive(Debug, Clone, PartialEq)]
pub struct RealTrack {
    /// Verification of the computed result.
    pub verification: VerificationOutcome,
    /// The metrics read off the computed result, in report order.
    pub metrics: Vec<(String, f64)>,
}

/// A benchmark of the suite: a workload with a defined configuration space,
/// execution procedure, verification, and FOM.
///
/// A run is three stages, `run = cost ∘ execute ∘ layout`: a real
/// execution of the kernel, which yields the verified result, and an
/// analytic model of the full partition, which yields every virtual time
/// and (for the applications) the FOM. Only the model knows the machine,
/// so a caller holding the [`RealTrack`] of an equal layout may skip
/// [`Benchmark::execute`] and cost it on another backend.
///
/// `Send + Sync` is a supertrait so that campaign and scaling sweeps can
/// fan independent runs of one `&dyn Benchmark` across the shared thread
/// pool; implementations hold only immutable workload parameters.
pub trait Benchmark: Send + Sync {
    /// Static metadata (Tables I & II row).
    fn meta(&self) -> BenchmarkMeta;

    /// Validate `cfg` and name what its real execution depends on.
    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError>;

    /// Run the real kernel. No machine reaches this stage: a world is
    /// built from the layout on a fixed reference machine.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError>;

    /// Model `cfg` (which passed [`Benchmark::layout`]) on its machine and
    /// join the timing with the track of an equal layout.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome;

    /// Run the workload under `cfg`, returning FOM, virtual timing, and
    /// verification: the three stages, composed.
    fn run(&self, cfg: &RunConfig) -> Result<RunOutcome, SuiteError> {
        let layout = self.layout(cfg)?;
        Ok(self.cost(cfg, &self.execute(&layout)?))
    }

    /// Validate a node count against the benchmark's algorithmic
    /// limitations (footnote 1 of the paper: e.g. powers of two). The
    /// default accepts any positive count.
    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes == 0 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: self.meta().id.name(),
                nodes,
                reason: "node count must be positive".into(),
            });
        }
        Ok(())
    }

    /// The closest node count ≤ `target` the benchmark accepts (footnote 1
    /// of the paper: "the smaller, closest compatible number of nodes is
    /// taken").
    fn closest_valid_nodes(&self, target: u32) -> Option<u32> {
        (1..=target).rev().find(|&n| self.validate_nodes(n).is_ok())
    }

    /// The reference node count for the Base execution (§II-C: usually 8).
    fn reference_nodes(&self) -> u32 {
        self.meta().base_nodes.reference().unwrap_or(8)
    }
}

/// Node counts surrounding the reference for the Fig. 2 strong-scaling
/// overview: "usually 0.5×, 0.75×, 1.5×, and 2× the reference; some
/// benchmarks deviate". Counts are rounded to positive integers and
/// deduplicated.
pub fn strong_scaling_points(reference: u32) -> Vec<u32> {
    let mut pts: Vec<u32> = [0.5, 0.75, 1.0, 1.5, 2.0]
        .iter()
        .map(|f| ((reference as f64 * f).round() as u32).max(1))
        .collect();
    pts.dedup();
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_points_around_8() {
        assert_eq!(strong_scaling_points(8), vec![4, 6, 8, 12, 16]);
    }

    #[test]
    fn strong_scaling_points_never_zero() {
        assert_eq!(strong_scaling_points(1), vec![1, 2]);
    }

    #[test]
    fn run_config_builders() {
        let cfg = RunConfig::test(8)
            .with_variant(MemoryVariant::Large)
            .with_seed(7);
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.variant, Some(MemoryVariant::Large));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.scale, WorkloadScale::Test);
        assert_eq!(RunConfig::bench(4).scale, WorkloadScale::Bench);
    }

    #[test]
    fn run_config_defaults_to_juwels_booster() {
        let cfg = RunConfig::test(8);
        assert_eq!(cfg.backend.name, "JUWELS Booster");
        let m = cfg.machine();
        assert_eq!(m.nodes, 8);
        assert_eq!(m.node, Machine::juwels_booster().node);
    }

    #[test]
    fn with_backend_switches_the_modeled_machine() {
        let backend = Machine::jupiter_proposal();
        let cfg = RunConfig::test(16).with_backend(backend);
        let m = cfg.machine();
        assert_eq!(m.name, "JUPITER proposal");
        assert_eq!(m.nodes, 16);
        assert_eq!(m.node, backend.node);
        assert_eq!(m.net, backend.net);
    }

    #[test]
    fn outcome_metric_lookup() {
        let out = RunOutcome {
            fom: Fom::RuntimeSeconds(1.0),
            virtual_time_s: 1.0,
            compute_time_s: 0.8,
            comm_time_s: 0.2,
            verification: VerificationOutcome::Exact { checked_values: 1 },
            metrics: vec![("plaquette".into(), 0.59)],
        };
        assert_eq!(out.metric("plaquette"), Some(0.59));
        assert_eq!(out.metric("missing"), None);
    }
}
