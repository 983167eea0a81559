//! Normalized benchmark descriptions.
//!
//! §III-C: "each benchmark is accompanied by an extensive description. All
//! descriptions are normalized, using identical structure with similar
//! language. Example parts are information about the source and the
//! compilation, execution parameters and rules, detailed instructions for
//! execution and verification, sample results, and concluding commitment
//! requests."
//!
//! The generator below produces that identical structure for every
//! benchmark from the Table I/II metadata, so the 23 documents stay
//! consistent by construction.

use jubench_core::{BenchmarkMeta, Category, ExecutionTarget};

/// Render the normalized description of one benchmark.
pub fn describe(meta: &BenchmarkMeta) -> String {
    let name = meta.id.name();
    let mut out = String::new();
    out.push_str(&format!("# {name} — JUPITER Benchmark Suite\n\n"));

    // 1. Source and compilation.
    out.push_str("## Source and compilation\n\n");
    out.push_str(&format!(
        "{name} is implemented in {} and distributed under the {} license. \
         The sources are included as a Git submodule of the benchmark \
         repository; build recipes follow the EasyBuild easyconfigs of the \
         preparation system.\n\n",
        meta.languages, meta.license
    ));

    // 2. Execution parameters and rules.
    out.push_str("## Execution parameters and rules\n\n");
    let nodes = match meta.base_nodes {
        jubench_core::meta::NodeSpecification::Fixed(n) => format!("{n} nodes"),
        jubench_core::meta::NodeSpecification::PerSubBenchmark(list) => format!(
            "{} nodes per sub-benchmark",
            list.iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("/")
        ),
        jubench_core::meta::NodeSpecification::AtLeast(n) => {
            format!("a freely chosen node count above {n}")
        }
        jubench_core::meta::NodeSpecification::Free => "a freely chosen node count".into(),
        jubench_core::meta::NodeSpecification::FullSystem => "the full system".into(),
    };
    let targets: Vec<&str> = meta
        .targets
        .iter()
        .map(|t| match t {
            ExecutionTarget::BoosterGpu => "the GPU Booster module",
            ExecutionTarget::ClusterCpu => "the CPU Cluster module",
            ExecutionTarget::Msa => "both modules (MSA)",
            ExecutionTarget::Storage => "the storage module",
        })
        .collect();
    out.push_str(&format!(
        "The reference execution uses {nodes} on {}. Simulation parameters \
         are fixed; the node count may be adapted within the stated rules.\n\n",
        targets.join(" and ")
    ));
    if let Some(hs) = meta.high_scale {
        let tags: Vec<String> = hs.variants.iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "As a High-Scaling benchmark, {name} additionally defines \
             workloads filling the 50 PFLOP/s(th) sub-partition ({} nodes) \
             in the memory variants {}; commitments are requested for a \
             20x larger 1 EFLOP/s(th) sub-partition of the proposed \
             system.\n\n",
            hs.nodes,
            tags.join(", ")
        ));
    }

    // 3. Verification.
    out.push_str("## Verification\n\n");
    out.push_str(
        "The computed result is verified as part of every run; runs failing \
         verification are invalid and must not be committed.\n\n",
    );

    // 4. Sample results and commitment.
    out.push_str("## Sample results and commitment\n\n");
    if meta.category == Category::Synthetic {
        out.push_str(
            "The benchmark reports its own figure of merit, evaluated with \
             benchmark-specific rules.\n",
        );
    } else {
        out.push_str(
            "The figure of merit is normalized to a time metric determined \
             on the reference number of nodes; proposals shall commit an \
             improved value.\n",
        );
    }
    if !meta.used_in_procurement {
        out.push_str(
            "\n*This benchmark was prepared for the procurement but \
             ultimately not used.*\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::{suite_meta, BenchmarkId};

    #[test]
    fn every_description_has_the_normalized_sections() {
        for meta in suite_meta() {
            let d = describe(&meta);
            for section in [
                "## Source and compilation",
                "## Execution parameters and rules",
                "## Verification",
                "## Sample results and commitment",
            ] {
                assert!(d.contains(section), "{}: missing {section}", meta.id.name());
            }
            assert!(d.contains(meta.license), "{}", meta.id.name());
        }
    }

    #[test]
    fn high_scaling_descriptions_state_the_commitment_request() {
        let meta = suite_meta();
        let arbor = meta.iter().find(|m| m.id == BenchmarkId::Arbor).unwrap();
        let d = describe(arbor);
        assert!(d.contains("1 EFLOP/s(th)"));
        assert!(d.contains("tiny, small, medium, large"));
        let hpl = meta.iter().find(|m| m.id == BenchmarkId::Hpl).unwrap();
        assert!(!describe(hpl).contains("1 EFLOP/s(th)"));
    }

    #[test]
    fn unused_benchmarks_are_marked() {
        let meta = suite_meta();
        let amber = meta.iter().find(|m| m.id == BenchmarkId::Amber).unwrap();
        assert!(describe(amber).contains("ultimately not used"));
        let nekrs = meta.iter().find(|m| m.id == BenchmarkId::NekRs).unwrap();
        assert!(!describe(nekrs).contains("ultimately not used"));
    }
}
