//! The JUQCS benchmark definitions: Base (n = 36), High-Scaling (S: n = 41,
//! L: n = 42), extrapolation rules to the exascale setup (S: n = 45, L:
//! n = 46), and the MSA variant (n = 34 split between Cluster and Booster).

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, MemoryVariant, RealLayout, RealTrack, RunConfig,
    RunOutcome, SuiteError, VerificationOutcome,
};

use crate::statevector::{DistStateVector, Gate1};
use crate::{max_qubits, state_bytes};

/// Number of successive single-qubit gates on the highest (always
/// non-local) qubit: "All present JUQCS benchmarks simulate successive
/// applications of a single-qubit quantum gate that requires large memory
/// transfers."
const GLOBAL_GATES: u32 = 12;

/// The JUQCS benchmark.
pub struct Juqcs;

impl Juqcs {
    /// The qubit count for a configuration: Base fixes n = 36 (1 TiB);
    /// the memory variants size n to the available GPU memory. §IV-A2c
    /// extrapolates them to the 1 EFLOP/s(th) partition (20× scale-up),
    /// where the committed workload uses n = 45 (S) or n = 46 (L).
    pub fn qubits_for(machine: &Machine, variant: Option<MemoryVariant>) -> u32 {
        match variant {
            None => 36,
            Some(v) => {
                let budget = (machine.gpu_memory_bytes() as f64 * v.memory_fraction()) as u128;
                max_qubits(budget)
            }
        }
    }
}

impl Benchmark for Juqcs {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Juqcs.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes == 0 || !nodes.is_power_of_two() {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "JUQCS",
                nodes,
                reason: "the state-vector distribution requires a power-of-two node count".into(),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        if let Some(v) = cfg.variant {
            let offered = self.meta().high_scale.unwrap().variants;
            if !offered.contains(&v) {
                return Err(SuiteError::UnsupportedVariant {
                    benchmark: "JUQCS",
                    variant: match v {
                        MemoryVariant::Tiny => "tiny",
                        MemoryVariant::Small => "small",
                        MemoryVariant::Medium => "medium",
                        MemoryVariant::Large => "large",
                    },
                });
            }
        }
        let machine = cfg.machine();
        let required = state_bytes(Self::qubits_for(&machine, cfg.variant));
        let available = machine.gpu_memory_bytes() as u128;
        if required > available {
            return Err(SuiteError::OutOfMemory {
                benchmark: "JUQCS",
                required_bytes: required.min(u64::MAX as u128) as u64,
                available_bytes: machine.gpu_memory_bytes(),
            });
        }
        Ok(layout_per_gpu(cfg))
    }

    /// The same algorithm at a reduced qubit count.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let world = real_world(layout);
        // 6 local qubits at test scale, 10 at bench scale (16× the state).
        let local_bits = jubench_apps_common::scale_steps(layout.scale, 6, 10, 12);
        let real_n = world.ranks().trailing_zeros() + local_bits;
        let results = world.run(|comm| {
            let mut sv = DistStateVector::zero_state(comm, real_n);
            // H on every qubit, then `GLOBAL_GATES` phase gates on the top
            // qubit (each remaps a global qubit → half-memory exchange),
            // then H on every qubit again: the final state is |0…0⟩ up to
            // the phases, whose effect we verify exactly.
            for q in 0..real_n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            for _ in 0..GLOBAL_GATES {
                sv.apply(comm, real_n - 1, Gate1::phase(std::f64::consts::PI))
                    .unwrap();
            }
            for q in 0..real_n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            // π-phase applied 12 (even) times is the identity; the state
            // must be exactly |0…0⟩ again.
            let zero_amp = sv.amplitude(comm, 0).map(|a| (a.re, a.im));
            let norm = sv.norm_sqr(comm).unwrap();
            (zero_amp, norm, sv.bytes_exchanged)
        });
        let mut checked = 0;
        let mut verification = None;
        let mut exchanged_total = 0u64;
        for r in &results {
            let (zero_amp, norm, bytes) = r.value;
            exchanged_total += bytes;
            if (norm - 1.0).abs() > 1e-10 {
                verification = Some(VerificationOutcome::Failed {
                    detail: format!("norm {norm} deviates from 1"),
                });
            }
            if let Some((re, im)) = zero_amp {
                checked += 1;
                if (re - 1.0).abs() > 1e-10 || im.abs() > 1e-10 {
                    verification = Some(VerificationOutcome::Failed {
                        detail: format!("|0…0⟩ amplitude is {re}+{im}i, expected 1"),
                    });
                }
            }
        }
        Ok(RealTrack {
            verification: verification.unwrap_or(VerificationOutcome::Exact {
                checked_values: checked + results.len(),
            }),
            metrics: vec![("real_exec_bytes_exchanged".into(), exchanged_total as f64)],
        })
    }

    /// The analytic model at the requested scale.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let n = Self::qubits_for(&machine, cfg.variant);
        let ranks = machine.devices();
        let rank_bits = 31 - ranks.leading_zeros();
        let local_bits = n - rank_bits;
        let local_amps = 2f64.powi(local_bits as i32);
        // Per gate: read+write every local amplitude (32 B) with ~14 FLOP
        // per pair update.
        let gate_work = Work::new(7.0 * local_amps, 32.0 * local_amps);
        // Per global gate: exchange half of the local amplitudes with the
        // partner differing in the top rank bit — machine-wide, half of
        // all memory (§IV-A2c).
        let half_local_bytes = (16.0 * local_amps / 2.0) as u64;
        let model = AppModel::new(machine, GLOBAL_GATES)
            .with_efficiencies(0.5, 0.85)
            .with_phase(Phase::compute("gate update", gate_work))
            .with_phase(Phase::comm(
                // A gate on the top qubit pairs rank r with r + P/2: a
                // pairwise exchange across the machine bisection, moving
                // half the local amplitudes each way.
                "state exchange",
                CommPattern::PairwiseBisection {
                    bytes: half_local_bytes,
                },
            ));
        let mut metrics = vec![
            ("qubits".into(), n as f64),
            ("state_bytes".into(), state_bytes(n) as f64),
        ];
        metrics.extend(track.metrics.iter().cloned());
        outcome(model.timing(), track.verification.clone(), metrics)
    }
}

/// The MSA variant of §IV-A2c: "an MSA version of the JUQCS benchmark
/// simulates n = 34 qubits on both JUWELS Cluster and Booster
/// simultaneously. The total amount of memory is split into two parts,
/// with 128 GiB residing on the CPU nodes and 128 GiB residing on the GPU
/// nodes. [...] On the Cluster, each MPI task launches 12 OpenMP threads
/// [...] On the Booster, each MPI task controls one of the GPUs."
pub struct JuqcsMsa;

/// Result of an MSA execution.
#[derive(Debug, Clone)]
pub struct MsaRunOutcome {
    pub verification: VerificationOutcome,
    /// Virtual makespan of the heterogeneous run.
    pub virtual_time_s: f64,
    /// Worst communication share among the Cluster ranks (they sit behind
    /// the federation gateway).
    pub cluster_comm_s: f64,
    /// Worst communication share among the Booster ranks.
    pub booster_comm_s: f64,
    /// Bytes exchanged between ranks in the real execution.
    pub bytes_exchanged: u64,
}

impl JuqcsMsa {
    /// Run the real distributed simulator across an MSA world: half the
    /// ranks on CPU nodes, half on GPU nodes, the state evenly split. The
    /// top qubit's exchange pairs every Cluster rank with a Booster rank
    /// through the inter-module gateway.
    pub fn run_msa(cluster_nodes: u32, booster_nodes: u32, seed: u64) -> MsaRunOutcome {
        let world = jubench_simmpi::World::msa(cluster_nodes, booster_nodes);
        let ranks = world.ranks();
        assert!(
            ranks.is_power_of_two(),
            "MSA rank split must stay a power of two"
        );
        let split = world.rank_map().cluster_ranks();
        let n = ranks.trailing_zeros() + 6;
        let _ = seed;
        let results = world.run(|comm| {
            let mut sv = DistStateVector::zero_state(comm, n);
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            // The top qubit is encoded in the module-selector rank bit:
            // applying a gate there moves half of each module's state
            // through the gateway.
            sv.apply(comm, n - 1, Gate1::phase(std::f64::consts::PI))
                .unwrap();
            sv.apply(comm, n - 1, Gate1::phase(std::f64::consts::PI))
                .unwrap();
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            let zero = sv.amplitude(comm, 0).map(|a| (a.re, a.im));
            let norm = sv.norm_sqr(comm).unwrap();
            (zero, norm, sv.bytes_exchanged)
        });
        let mut verification = VerificationOutcome::Exact {
            checked_values: results.len(),
        };
        let mut bytes = 0;
        let mut cluster_comm_s = 0.0f64;
        let mut booster_comm_s = 0.0f64;
        let mut makespan = 0.0f64;
        for r in &results {
            let (zero, norm, b) = r.value;
            bytes += b;
            makespan = makespan.max(r.clock.total_s());
            if r.rank < split {
                cluster_comm_s = cluster_comm_s.max(r.clock.comm_s);
            } else {
                booster_comm_s = booster_comm_s.max(r.clock.comm_s);
            }
            if (norm - 1.0).abs() > 1e-10 {
                verification = VerificationOutcome::Failed {
                    detail: format!("norm {norm}"),
                };
            }
            if let Some((re, im)) = zero {
                if (re - 1.0).abs() > 1e-10 || im.abs() > 1e-10 {
                    verification = VerificationOutcome::Failed {
                        detail: format!("|0…0⟩ = {re}+{im}i"),
                    };
                }
            }
        }
        MsaRunOutcome {
            verification,
            virtual_time_s: makespan,
            cluster_comm_s,
            booster_comm_s,
            bytes_exchanged: bytes,
        }
    }

    pub const QUBITS: u32 = 34;

    /// The memory split: half the state on each module.
    pub fn module_bytes() -> (u128, u128) {
        let total = state_bytes(Self::QUBITS);
        (total / 2, total / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: u32) -> RunConfig {
        RunConfig::test(nodes).with_seed(1)
    }

    #[test]
    fn base_run_verifies_exactly_on_8_nodes() {
        let out = Juqcs.run(&cfg(8)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(
            out.verification,
            VerificationOutcome::Exact { .. }
        ));
        assert_eq!(out.metric("qubits"), Some(36.0));
        assert!(out.virtual_time_s > 0.0);
        assert!(out.comm_time_s > 0.0);
    }

    #[test]
    fn non_power_of_two_nodes_rejected() {
        let err = Juqcs.run(&cfg(6)).unwrap_err();
        assert!(matches!(err, SuiteError::InvalidNodeCount { nodes: 6, .. }));
    }

    #[test]
    fn base_needs_enough_memory() {
        // n = 36 needs 1 TiB; 4 nodes provide 640 GiB.
        let err = Juqcs.run(&cfg(4)).unwrap_err();
        assert!(matches!(err, SuiteError::OutOfMemory { .. }));
    }

    #[test]
    fn high_scaling_variants_size_to_memory() {
        // 512 nodes × 160 GiB = 80 TiB; L = 100 % → 42 qubits (64 TiB),
        // S = 50 % → 41 qubits (32 TiB). Matches §IV-A2c exactly.
        let m = Machine::juwels_booster().partition(512);
        assert_eq!(Juqcs::qubits_for(&m, Some(MemoryVariant::Large)), 42);
        assert_eq!(Juqcs::qubits_for(&m, Some(MemoryVariant::Small)), 41);
    }

    #[test]
    fn medium_variant_is_not_offered() {
        let err = Juqcs
            .run(&cfg(8).with_variant(MemoryVariant::Medium))
            .unwrap_err();
        assert!(matches!(err, SuiteError::UnsupportedVariant { .. }));
    }

    #[test]
    fn small_variant_runs_on_512_nodes() {
        let out = Juqcs
            .run(&cfg(512).with_variant(MemoryVariant::Small))
            .unwrap();
        assert_eq!(out.metric("qubits"), Some(41.0));
        assert!(out.verification.passed());
    }

    #[test]
    fn communication_drops_from_1_to_2_nodes() {
        // Weak-scaling communication efficiency: the per-gate exchange
        // moves from NVLink (intra-node) to InfiniBand (inter-node).
        let t1 = Juqcs
            .run(&cfg(1).with_variant(MemoryVariant::Small))
            .unwrap();
        let t2 = Juqcs
            .run(&cfg(2).with_variant(MemoryVariant::Small))
            .unwrap();
        assert!(
            t2.comm_time_s > 3.0 * t1.comm_time_s,
            "inter-node exchange must be far slower: {} vs {}",
            t2.comm_time_s,
            t1.comm_time_s
        );
        // Compute time per rank is identical (weak scaling).
        assert!((t2.compute_time_s - t1.compute_time_s).abs() / t1.compute_time_s < 1e-9);
    }

    #[test]
    fn communication_enters_large_scale_regime_at_256_nodes() {
        let t128 = Juqcs
            .run(&cfg(128).with_variant(MemoryVariant::Small))
            .unwrap();
        let t512 = Juqcs
            .run(&cfg(512).with_variant(MemoryVariant::Small))
            .unwrap();
        assert!(
            t512.comm_time_s > 1.3 * t128.comm_time_s,
            "congestion drop missing: {} vs {}",
            t512.comm_time_s,
            t128.comm_time_s
        );
    }

    #[test]
    fn msa_execution_spans_both_modules() {
        // 4 Cluster ranks + 4 Booster ranks hold one state vector; the
        // algorithm verifies exactly and the Cluster ranks pay the
        // inter-module gateway cost.
        let out = JuqcsMsa::run_msa(4, 1, 1);
        assert!(out.verification.passed(), "{:?}", out.verification);
        assert!(out.bytes_exchanged > 0);
        assert!(out.virtual_time_s > 0.0);
        assert!(out.cluster_comm_s > 0.0 && out.booster_comm_s > 0.0);
    }

    #[test]
    fn msa_gateway_is_slower_than_booster_only() {
        // The same circuit on a Booster-only world of equal rank count
        // finishes faster: the inter-module exchange is the bottleneck.
        let msa = JuqcsMsa::run_msa(4, 1, 1);
        let world = jubench_simmpi::World::new(Machine::juwels_booster().partition(2));
        let n = world.ranks().trailing_zeros() + 6;
        let (_, span) = world.run_timed(|comm| {
            let mut sv = DistStateVector::zero_state(comm, n);
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            sv.apply(comm, n - 1, Gate1::phase(std::f64::consts::PI))
                .unwrap();
            sv.apply(comm, n - 1, Gate1::phase(std::f64::consts::PI))
                .unwrap();
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
        });
        assert!(
            msa.virtual_time_s > span.total_s(),
            "MSA {} s vs Booster-only {} s",
            msa.virtual_time_s,
            span.total_s()
        );
    }

    #[test]
    fn msa_split_matches_paper() {
        // n = 34: 16·2^34 = 256 GiB total, 128 GiB per module.
        let (cluster, booster) = JuqcsMsa::module_bytes();
        assert_eq!(cluster, 128 << 30);
        assert_eq!(booster, 128 << 30);
    }

    #[test]
    fn meta_is_juqcs() {
        assert_eq!(Juqcs.meta().id, BenchmarkId::Juqcs);
    }
}
