//! # jubench-apps-common
//!
//! Shared plumbing for the benchmarks' three stages.
//!
//! Every [`Benchmark`](jubench_core::Benchmark) — application proxy or
//! synthetic — is three stages: its `run` is `cost ∘ execute ∘ layout`.
//! For an application proxy:
//!
//! 1. **`layout(cfg)`** validates the configuration and names what the
//!    real execution depends on — the workload scale, the memory variant,
//!    the seed, and the world: how many ranks ([`layout_per_gpu`],
//!    [`layout_per_node`]; capped at [`MAX_REAL_RANKS`]) or none at all
//!    ([`layout_serial`]). Nothing else of the machine survives this
//!    stage.
//! 2. **`execute(layout)`** runs the app's genuine distributed kernel
//!    through the simulated MPI runtime (threads exchanging real data) on
//!    [`real_world`] — that many ranks of one fixed reference machine,
//!    whatever backend was asked for — and returns the *verified result*
//!    and the metrics read off it. Virtual clocks tick there too, but no
//!    proxy reads them, so the track is a pure function of the layout:
//!    the cloud backend's 2 × 8 ranks compute what Booster's 4 × 4 do.
//! 3. **`cost(cfg, track)`** describes the same iteration as per-rank
//!    roofline [`Work`] plus [`CommPattern`]s, evaluates it on the full
//!    requested partition of `cfg`'s backend (up to the 936 JUWELS
//!    Booster nodes and beyond) — the *virtual* compute/communication
//!    times the scaling studies plot, and the FOM — adds the
//!    model-derived metrics, and joins both with [`outcome`].
//!
//! Only `cost` knows the machine; a caller that already holds the track
//! of an equal layout (the campaign service, across catalog backends)
//! skips `execute`. The synthetics use the same pieces: the five compute
//! codes execute a serial host kernel ([`layout_serial`]) and `cost`
//! reads their FOM off the host rate the track reports; OSU and
//! LinkTest, whose measurement *is* the target machine's network,
//! execute nothing and do all their work in `cost`.

use jubench_cluster::{pattern_time, CommPattern, Machine, NetModel, Placement, Roofline, Work};
use jubench_core::{
    Fom, RealLayout, RealWorld, RunConfig, RunOutcome, VerificationOutcome, WorkloadScale,
};
use jubench_simmpi::World;

/// One named phase of an application iteration (e.g. "ion channels",
/// "cable equation", "halo exchange").
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    /// Per-rank, per-iteration device work.
    pub work: Work,
    /// Per-iteration communication.
    pub patterns: Vec<CommPattern>,
}

impl Phase {
    pub fn compute(name: &'static str, work: Work) -> Self {
        Phase {
            name,
            work,
            patterns: Vec::new(),
        }
    }

    pub fn comm(name: &'static str, pattern: CommPattern) -> Self {
        Phase {
            name,
            work: Work::ZERO,
            patterns: vec![pattern],
        }
    }
}

/// The analytic performance model of an application run.
#[derive(Debug, Clone)]
pub struct AppModel {
    pub placement: Placement,
    pub net: NetModel,
    pub device: Roofline,
    pub iterations: u32,
    pub phases: Vec<Phase>,
    /// Fraction of the communication time hidden behind computation
    /// (0 = fully exposed, 1 = fully overlapped — Arbor's spike exchange
    /// "hiding communication completely").
    pub comm_overlap: f64,
}

/// The evaluated virtual timing of an [`AppModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTiming {
    pub compute_s: f64,
    pub comm_s: f64,
    /// Exposed (non-overlapped) communication.
    pub exposed_comm_s: f64,
    /// Total virtual makespan: compute + exposed communication.
    pub total_s: f64,
}

impl AppModel {
    pub fn new(machine: Machine, iterations: u32) -> Self {
        AppModel {
            placement: Placement::per_gpu(machine),
            net: machine.net,
            device: Roofline::new(machine.node.gpu),
            iterations,
            phases: Vec::new(),
            comm_overlap: 0.0,
        }
    }

    /// CPU-style model: one rank per node, with the node's CPU complex as
    /// the roofline device.
    pub fn per_node(machine: Machine, iterations: u32) -> Self {
        AppModel {
            placement: Placement::per_node(machine),
            device: Roofline::new(jubench_cluster::GpuSpec::epyc_rome_node()),
            ..AppModel::new(machine, iterations)
        }
    }

    pub fn with_phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    pub fn with_overlap(mut self, overlap: f64) -> Self {
        assert!((0.0..=1.0).contains(&overlap));
        self.comm_overlap = overlap;
        self
    }

    pub fn with_efficiencies(mut self, flop: f64, bw: f64) -> Self {
        self.device = self.device.with_efficiencies(flop, bw);
        self
    }

    /// Per-iteration phase timings `(name, compute_s, comm_s)`, for the
    /// profile breakdowns the paper quotes (e.g. Arbor's 52 % ion channels
    /// / 33 % cable equation).
    pub fn phase_profile(&self) -> Vec<(&'static str, f64, f64)> {
        self.phases
            .iter()
            .map(|p| {
                let comp = self.device.time(p.work);
                let comm: f64 = p
                    .patterns
                    .iter()
                    .map(|&pat| pattern_time(pat, &self.placement, &self.net))
                    .sum();
                (p.name, comp, comm)
            })
            .collect()
    }

    /// Evaluate the model's virtual timing over all iterations.
    pub fn timing(&self) -> ModelTiming {
        let mut compute = 0.0;
        let mut comm = 0.0;
        for (_, c, m) in self.phase_profile() {
            compute += c;
            comm += m;
        }
        compute *= self.iterations as f64;
        comm *= self.iterations as f64;
        // Overlapped communication hides behind compute, but can never
        // reduce the makespan below the larger of the two.
        let hidden = (comm * self.comm_overlap).min(compute);
        let exposed = comm - hidden;
        ModelTiming {
            compute_s: compute,
            comm_s: comm,
            exposed_comm_s: exposed,
            total_s: compute + exposed,
        }
    }
}

/// How large the *really executed* partition may be: the real execution
/// spawns one dedicated OS thread per rank (via
/// [`jubench_pool::run_dedicated`]), so it is capped at the pool crate's
/// workspace-wide spawn policy while the analytic model covers the full
/// partition.
pub const MAX_REAL_RANKS: u32 = jubench_pool::MAX_DEDICATED_THREADS;

/// A machine partition for the real execution: the requested machine if it
/// is small enough, otherwise the largest prefix whose rank count stays
/// within [`MAX_REAL_RANKS`].
pub fn real_exec_machine(machine: Machine) -> Machine {
    let rpn = machine.node.gpus_per_node;
    let max_nodes = (MAX_REAL_RANKS / rpn).max(1);
    machine.partition(machine.nodes.min(max_nodes))
}

/// A world on `machine` itself, for a code that times the world
/// (LinkTest, in `cost`). An `execute` launches [`real_world`] instead.
pub fn real_exec_world(machine: Machine) -> World {
    World::new(real_exec_machine(machine))
}

/// The layout of a real execution with one rank per device of `cfg`'s
/// partition.
pub fn layout_per_gpu(cfg: &RunConfig) -> RealLayout {
    let ranks = real_exec_machine(cfg.machine()).devices();
    RealLayout::new(cfg, RealWorld::PerGpu { ranks })
}

/// The layout of a real execution with one rank per node of `cfg`'s
/// partition (the CPU codes).
pub fn layout_per_node(cfg: &RunConfig) -> RealLayout {
    let ranks = cfg.nodes.min(MAX_REAL_RANKS);
    RealLayout::new(cfg, RealWorld::PerNode { ranks })
}

/// The layout of a real execution that launches no world.
pub fn layout_serial(cfg: &RunConfig) -> RealLayout {
    RealLayout::new(cfg, RealWorld::Serial)
}

/// The world of a real execution: `layout`'s rank count, one rank per
/// node of a fixed reference machine. The backend a run was asked for
/// is not an input — by type, not by audit.
pub fn real_world(layout: &RealLayout) -> World {
    World::per_node(Machine::juwels_booster().partition(layout.world.ranks()))
}

/// Assemble a [`RunOutcome`] from the model timing plus the real
/// execution's verification and metrics. The time-based FOM is the virtual
/// makespan (the paper's time metric for the modeled workload on the
/// modeled machine).
pub fn outcome(
    timing: ModelTiming,
    verification: VerificationOutcome,
    metrics: Vec<(String, f64)>,
) -> RunOutcome {
    RunOutcome {
        fom: Fom::RuntimeSeconds(timing.total_s),
        virtual_time_s: timing.total_s,
        compute_time_s: timing.compute_s,
        comm_time_s: timing.exposed_comm_s,
        verification,
        metrics,
    }
}

/// Scale factor applied to proxy problem sizes per workload scale.
pub fn scale_steps(scale: WorkloadScale, test: u32, bench: u32, paper: u32) -> u32 {
    match scale {
        WorkloadScale::Test => test,
        WorkloadScale::Bench => bench,
        WorkloadScale::Paper => paper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;

    fn machine(n: u32) -> Machine {
        Machine::juwels_booster().partition(n)
    }

    #[test]
    fn model_accumulates_phases_and_iterations() {
        let m = AppModel::new(machine(2), 10)
            .with_phase(Phase::compute("a", Work::new(9.7e12 * 0.7, 0.0)))
            .with_phase(Phase::comm("x", CommPattern::AllReduce { bytes: 8 }));
        let t = m.timing();
        assert!((t.compute_s - 10.0).abs() < 1e-9);
        assert!(t.comm_s > 0.0);
        assert_eq!(t.total_s, t.compute_s + t.exposed_comm_s);
    }

    #[test]
    fn full_overlap_hides_comm_up_to_compute() {
        let m = AppModel::new(machine(2), 1)
            .with_phase(Phase::compute("c", Work::new(9.7e12 * 0.7, 0.0)))
            .with_phase(Phase::comm(
                "x",
                CommPattern::AllGather {
                    bytes_per_rank: 1 << 20,
                },
            ))
            .with_overlap(1.0);
        let t = m.timing();
        assert!(t.comm_s > 0.0);
        assert_eq!(t.exposed_comm_s, 0.0);
        assert_eq!(t.total_s, t.compute_s);
    }

    #[test]
    fn overlap_cannot_hide_more_than_compute() {
        // Tiny compute, huge comm, full overlap: exposed = comm - compute.
        let m = AppModel::new(machine(8), 1)
            .with_phase(Phase::compute("c", Work::new(1e6, 0.0)))
            .with_phase(Phase::comm(
                "x",
                CommPattern::AllGather {
                    bytes_per_rank: 1 << 24,
                },
            ))
            .with_overlap(1.0);
        let t = m.timing();
        assert!(t.exposed_comm_s > 0.0);
        assert!((t.exposed_comm_s - (t.comm_s - t.compute_s)).abs() < 1e-12);
    }

    #[test]
    fn real_exec_machine_is_capped() {
        assert_eq!(real_exec_machine(machine(2)).nodes, 2);
        assert_eq!(real_exec_machine(machine(642)).nodes, 4); // 16 ranks
        assert_eq!(real_exec_world(machine(936)).ranks(), 16);
    }

    #[test]
    fn outcome_carries_model_time_as_fom() {
        let t = ModelTiming {
            compute_s: 3.0,
            comm_s: 2.0,
            exposed_comm_s: 1.0,
            total_s: 4.0,
        };
        let o = outcome(t, VerificationOutcome::Exact { checked_values: 1 }, vec![]);
        assert_eq!(o.fom, Fom::RuntimeSeconds(4.0));
        assert_eq!(o.compute_time_s, 3.0);
        assert_eq!(o.comm_time_s, 1.0);
    }

    #[test]
    fn scale_steps_selects() {
        use jubench_core::WorkloadScale as S;
        assert_eq!(scale_steps(S::Test, 1, 2, 3), 1);
        assert_eq!(scale_steps(S::Bench, 1, 2, 3), 2);
        assert_eq!(scale_steps(S::Paper, 1, 2, 3), 3);
    }

    #[test]
    fn phase_profile_names_costs() {
        let m = AppModel::new(machine(2), 1)
            .with_phase(Phase::compute("ion channels", Work::new(1e12, 0.0)))
            .with_phase(Phase::compute("cable equation", Work::new(5e11, 0.0)));
        let prof = m.phase_profile();
        assert_eq!(prof.len(), 2);
        assert_eq!(prof[0].0, "ion channels");
        assert!(prof[0].1 > prof[1].1);
    }
}
