//! Text renderings of Table I and Table II from the suite metadata.

use jubench_core::{suite_meta, ExecutionTarget};

/// Render Table I: "Relation of benchmarks of the JUPITER Benchmark Suite
/// to domains and Berkeley dwarfs".
pub fn render_table1() -> String {
    let mut out = String::from(
        "| Benchmark        | Domain         | Dwarfs                                  |\n\
         |------------------|----------------|------------------------------------------|\n",
    );
    for m in suite_meta() {
        let dwarfs: Vec<&str> = m.dwarfs.iter().map(|d| d.label()).collect();
        let star = if m.used_in_procurement { " " } else { "*" };
        out.push_str(&format!(
            "| {:<15}{} | {:<14} | {:<40} |\n",
            m.id.name(),
            star,
            m.domain.label(),
            dwarfs.join(", ")
        ));
    }
    out
}

/// Render Table II: application features and execution targets.
pub fn render_table2() -> String {
    let mut out = String::from(
        "| Benchmark        | Languages/Models                    | Licence        | Base nodes | High-Scale           | Targets        |\n\
         |------------------|-------------------------------------|----------------|------------|----------------------|----------------|\n",
    );
    for m in suite_meta() {
        let base = match m.base_nodes {
            jubench_core::meta::NodeSpecification::Fixed(n) => n.to_string(),
            jubench_core::meta::NodeSpecification::PerSubBenchmark(list) => list
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            jubench_core::meta::NodeSpecification::AtLeast(n) => format!("-/>{n}"),
            jubench_core::meta::NodeSpecification::Free => "free".into(),
            jubench_core::meta::NodeSpecification::FullSystem => "all".into(),
        };
        let hs = m
            .high_scale
            .map(|h| {
                let tags: String = h.variants.iter().map(|v| v.tag()).collect();
                format!("{}^{{{tags}}}", h.nodes)
            })
            .unwrap_or_default();
        let targets: Vec<&str> = m
            .targets
            .iter()
            .map(|t| match t {
                ExecutionTarget::BoosterGpu => "Booster",
                ExecutionTarget::ClusterCpu => "Cluster",
                ExecutionTarget::Msa => "MSA",
                ExecutionTarget::Storage => "Storage",
            })
            .collect();
        let star = if m.used_in_procurement { " " } else { "*" };
        out.push_str(&format!(
            "| {:<15}{} | {:<35} | {:<14} | {:<10} | {:<20} | {:<14} |\n",
            m.id.name(),
            star,
            m.languages,
            m.license,
            base,
            hs,
            targets.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::{Category, Dwarf};

    #[test]
    fn table1_lists_all_23_rows() {
        let t = render_table1();
        assert_eq!(t.lines().count(), 2 + 23);
        assert!(t.contains("Chroma-QCD"));
        assert!(t.contains("Graph Traversal (D. 9)"));
        // Unused benchmarks are starred.
        assert!(t.contains("Amber          *"));
    }

    #[test]
    fn table2_contains_key_facts() {
        let t = render_table2();
        assert!(t.contains("642^{TSML}"), "Arbor's High-Scale column");
        assert!(t.contains("512^{SL}"), "JUQCS's High-Scale column");
        assert!(t.contains("120/300"), "ICON node counts");
        assert!(t.contains("-/>64"), "IOR node rule");
        assert!(t.contains("LGPLv2.1"), "GROMACS licence");
        assert!(t.contains("MSA"), "JUQCS MSA target");
    }

    #[test]
    fn dense_la_is_well_represented() {
        // The AI benchmarks plus HPL, JUQCS, and QE all exercise dense LA.
        let dense = suite_meta()
            .iter()
            .filter(|m| m.dwarfs.contains(&Dwarf::DenseLinearAlgebra))
            .count();
        assert!(dense >= 5, "dense LA count {dense}");
    }

    #[test]
    fn every_dwarf_is_covered() {
        let meta = suite_meta();
        for d in [
            Dwarf::DenseLinearAlgebra,
            Dwarf::SparseLinearAlgebra,
            Dwarf::SpectralMethods,
            Dwarf::NBodyParticle,
            Dwarf::StructuredGrid,
            Dwarf::UnstructuredGrid,
            Dwarf::GraphTraversal,
            Dwarf::InputOutput,
            Dwarf::PointToPointTopology,
            Dwarf::MessageExchangeDma,
            Dwarf::RegularMemoryAccess,
        ] {
            let covered = meta.iter().any(|m| m.dwarfs.contains(&d));
            assert!(covered, "{} uncovered", d.label());
        }
    }

    #[test]
    fn category_split_in_tables() {
        let meta = suite_meta();
        let base = meta
            .iter()
            .filter(|m| m.category != Category::Synthetic)
            .count();
        assert_eq!(base, 16);
    }
}
