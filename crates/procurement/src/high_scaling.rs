//! The High-Scaling assessment (§II-B/§II-C): comparing proposed designs
//! with the preparation system for large-scale executions.
//!
//! "For each high-scaling application, a workload is defined to fill a
//! 50 PFLOP/s(th) sub-partition of the preparation system (about 640
//! nodes) and a 20× larger sub-partition of the future system
//! (20 × 50 PFLOP/s = 1 EFLOP/s). The final assessment is based on the
//! ratio of the runtime value committed for the future 1 EFLOP/s(th)
//! sub-partition and the reference value."

use jubench_cluster::Machine;
use jubench_core::{BenchmarkId, MemoryVariant, SuiteError, TimeMetric};

/// The scale-up factor between the preparation sub-partition and the
/// future sub-partition.
pub(crate) const SCALE_UP: f64 = 20.0;

/// Nodes of the proposed machine forming the 1 EFLOP/s(th) sub-partition:
/// enough nodes to reach 20× the peak of the 50 PFLOP/s(th) reference
/// partition.
pub fn exascale_partition_nodes(proposal: &Machine) -> u32 {
    let reference = Machine::high_scaling_partition();
    let target = SCALE_UP * reference.peak_flops();
    (target / proposal.node.peak_flops()).ceil() as u32
}

/// One High-Scaling benchmark's assessment.
#[derive(Debug, Clone)]
pub struct HighScalingAssessment {
    pub id: BenchmarkId,
    /// Variant chosen by the proposal ("the variant that best exploits the
    /// available memory on the proposed accelerator after scale-up").
    pub variant: MemoryVariant,
    /// Reference runtime on the 50 PFLOP/s(th) preparation partition.
    pub reference: TimeMetric,
    /// Committed runtime on the 1 EFLOP/s(th) proposal partition.
    pub committed: TimeMetric,
}

impl HighScalingAssessment {
    /// Choose the best-fitting variant and build the assessment.
    pub fn build(
        id: BenchmarkId,
        offered: &[MemoryVariant],
        proposal_gpu_bytes: u64,
        reference: TimeMetric,
        committed: TimeMetric,
    ) -> Result<Self, SuiteError> {
        let reference_gpu = jubench_cluster::GpuSpec::a100_40gb().memory_bytes;
        let variant = MemoryVariant::best_fit(offered, reference_gpu, proposal_gpu_bytes).ok_or(
            SuiteError::UnsupportedVariant {
                benchmark: id.name(),
                variant: "none fits the proposed accelerator",
            },
        )?;
        if committed.0 <= 0.0 || reference.0 <= 0.0 {
            return Err(SuiteError::RuleViolation {
                benchmark: id.name(),
                rule: "High-Scaling runtimes must be positive".into(),
            });
        }
        Ok(HighScalingAssessment {
            id,
            variant,
            reference,
            committed,
        })
    }

    /// "The final assessment is based on the ratio of the runtime value
    /// committed for the future 1 EFLOP/s(th) sub-partition and the
    /// reference value." Smaller is better.
    pub fn ratio(&self) -> f64 {
        self.committed.ratio_to(self.reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::BenchmarkId as B;

    #[test]
    fn exascale_partition_is_20x_peak() {
        let proposal = Machine::jupiter_proposal();
        let nodes = exascale_partition_nodes(&proposal);
        let partition = proposal.partition(nodes.min(proposal.nodes));
        let ratio = partition.peak_flops() / Machine::high_scaling_partition().peak_flops();
        assert!((20.0..21.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn variant_chosen_to_exploit_memory() {
        // A 96 GB accelerator fits all variants: Large is chosen.
        let a = HighScalingAssessment::build(
            B::Arbor,
            &MemoryVariant::ALL,
            96 << 30,
            TimeMetric(100.0),
            TimeMetric(90.0),
        )
        .unwrap();
        assert_eq!(a.variant, MemoryVariant::Large);
        // A 30 GB accelerator only fits up to Medium.
        let b = HighScalingAssessment::build(
            B::Arbor,
            &MemoryVariant::ALL,
            30 << 30,
            TimeMetric(100.0),
            TimeMetric(90.0),
        )
        .unwrap();
        assert_eq!(b.variant, MemoryVariant::Medium);
    }

    #[test]
    fn no_fitting_variant_is_an_error() {
        let err = HighScalingAssessment::build(
            B::Juqcs,
            &[MemoryVariant::Large],
            8 << 30,
            TimeMetric(100.0),
            TimeMetric(90.0),
        )
        .unwrap_err();
        assert!(matches!(err, SuiteError::UnsupportedVariant { .. }));
    }

    #[test]
    fn ratio_is_committed_over_reference() {
        let a = HighScalingAssessment::build(
            B::NekRs,
            &[MemoryVariant::Small, MemoryVariant::Large],
            40 << 30,
            TimeMetric(200.0),
            TimeMetric(100.0),
        )
        .unwrap();
        assert_eq!(a.ratio(), 0.5);
    }
}
