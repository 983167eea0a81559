//! Static metadata of the 23 benchmarks — the data behind Table I
//! (domains and Berkeley dwarfs) and Table II (application features and
//! execution targets) of the paper.

use crate::variant::MemoryVariant;

/// Stable identifier for each of the 23 benchmarks of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    Amber,
    Arbor,
    ChromaQcd,
    Gromacs,
    Icon,
    Juqcs,
    NekRs,
    ParFlow,
    PIConGpu,
    QuantumEspresso,
    Soma,
    MmoClip,
    MegatronLm,
    ResNet,
    DynQcd,
    Nastja,
    Graph500,
    Hpcg,
    Hpl,
    Ior,
    LinkTest,
    Osu,
    Stream,
}

impl BenchmarkId {
    /// All 23 benchmarks in the row order of Tables I and II.
    pub const ALL: [BenchmarkId; 23] = [
        BenchmarkId::Amber,
        BenchmarkId::Arbor,
        BenchmarkId::ChromaQcd,
        BenchmarkId::Gromacs,
        BenchmarkId::Icon,
        BenchmarkId::Juqcs,
        BenchmarkId::NekRs,
        BenchmarkId::ParFlow,
        BenchmarkId::PIConGpu,
        BenchmarkId::QuantumEspresso,
        BenchmarkId::Soma,
        BenchmarkId::MmoClip,
        BenchmarkId::MegatronLm,
        BenchmarkId::ResNet,
        BenchmarkId::DynQcd,
        BenchmarkId::Nastja,
        BenchmarkId::Graph500,
        BenchmarkId::Hpcg,
        BenchmarkId::Hpl,
        BenchmarkId::Ior,
        BenchmarkId::LinkTest,
        BenchmarkId::Osu,
        BenchmarkId::Stream,
    ];

    /// Display name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Amber => "Amber",
            BenchmarkId::Arbor => "Arbor",
            BenchmarkId::ChromaQcd => "Chroma-QCD",
            BenchmarkId::Gromacs => "GROMACS",
            BenchmarkId::Icon => "ICON",
            BenchmarkId::Juqcs => "JUQCS",
            BenchmarkId::NekRs => "nekRS",
            BenchmarkId::ParFlow => "ParFlow",
            BenchmarkId::PIConGpu => "PIConGPU",
            BenchmarkId::QuantumEspresso => "Quantum Espresso",
            BenchmarkId::Soma => "SOMA",
            BenchmarkId::MmoClip => "MMoCLIP",
            BenchmarkId::MegatronLm => "Megatron-LM",
            BenchmarkId::ResNet => "ResNet",
            BenchmarkId::DynQcd => "DynQCD",
            BenchmarkId::Nastja => "NAStJA",
            BenchmarkId::Graph500 => "Graph500",
            BenchmarkId::Hpcg => "HPCG",
            BenchmarkId::Hpl => "HPL",
            BenchmarkId::Ior => "IOR",
            BenchmarkId::LinkTest => "LinkTest",
            BenchmarkId::Osu => "OSU",
            BenchmarkId::Stream => "STREAM",
        }
    }

    /// Parse a display name (as produced by [`Self::name`]) back into the
    /// id — the wire-format decoding used by campaign requests.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|id| id.name() == name)
    }

    /// This benchmark's row of Tables I and II.
    pub fn meta(self) -> BenchmarkMeta {
        SUITE_META[self as usize].clone()
    }
}

/// Benchmark category (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// One of the 16 application benchmarks used for the TCO/value-for-money
    /// calculation.
    Base,
    /// One of the 5 applications additionally used to compare proposed
    /// designs at the full-machine scale (these are also Base benchmarks).
    HighScaling,
    /// One of the 7 synthetic benchmarks testing individual hardware
    /// features.
    Synthetic,
}

/// Predominant scientific domain (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    MolecularDynamics,
    Neuroscience,
    QuantumChromodynamics,
    Climate,
    QuantumComputing,
    ComputationalFluidDynamics,
    EarthSystems,
    PlasmaPhysics,
    MaterialsScience,
    PolymerSystems,
    AiMultiModal,
    AiLargeLanguageModel,
    AiVision,
    Biology,
    GraphAnalytics,
    ConjugateGradient,
    LinearAlgebra,
    Filesystem,
    Network,
    Memory,
}

impl Domain {
    /// Abbreviated domain label as used in Table I.
    pub fn label(self) -> &'static str {
        match self {
            Domain::MolecularDynamics => "MD",
            Domain::Neuroscience => "Neurosci.",
            Domain::QuantumChromodynamics => "QCD",
            Domain::Climate => "Climate",
            Domain::QuantumComputing => "QC",
            Domain::ComputationalFluidDynamics => "CFD",
            Domain::EarthSystems => "Earth Sys.",
            Domain::PlasmaPhysics => "Plasma",
            Domain::MaterialsScience => "Materials Sci.",
            Domain::PolymerSystems => "Polymer Sys.",
            Domain::AiMultiModal => "AI (MM)",
            Domain::AiLargeLanguageModel => "AI (LLM)",
            Domain::AiVision => "AI (Vision)",
            Domain::Biology => "Biology",
            Domain::GraphAnalytics => "Graph",
            Domain::ConjugateGradient => "CG",
            Domain::LinearAlgebra => "LA",
            Domain::Filesystem => "Filesys.",
            Domain::Network => "Network",
            Domain::Memory => "Memory",
        }
    }
}

/// Berkeley dwarfs (Asanović et al. 2006) plus the hardware-feature
/// "profiles" the paper assigns to the synthetic benchmarks in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dwarf {
    DenseLinearAlgebra,
    SparseLinearAlgebra,
    SpectralMethods,
    NBodyParticle,
    StructuredGrid,
    UnstructuredGrid,
    /// Dwarf 9 in the Berkeley list; assigned to Graph500.
    GraphTraversal,
    /// IOR's profile in Table I.
    InputOutput,
    /// LinkTest's profile: point-to-point messages and topology.
    PointToPointTopology,
    /// OSU's profile: message exchange and direct memory access.
    MessageExchangeDma,
    /// STREAM's profile: regular memory access.
    RegularMemoryAccess,
}

impl Dwarf {
    pub fn label(self) -> &'static str {
        match self {
            Dwarf::DenseLinearAlgebra => "Dense LA",
            Dwarf::SparseLinearAlgebra => "Sparse LA",
            Dwarf::SpectralMethods => "Spectral",
            Dwarf::NBodyParticle => "Particle",
            Dwarf::StructuredGrid => "Structured Grid",
            Dwarf::UnstructuredGrid => "Unstructured Grid",
            Dwarf::GraphTraversal => "Graph Traversal (D. 9)",
            Dwarf::InputOutput => "Input/Output",
            Dwarf::PointToPointTopology => "P2P, Topology",
            Dwarf::MessageExchangeDma => "Message Exchange, DMA",
            Dwarf::RegularMemoryAccess => "Regular Access",
        }
    }
}

/// Execution target of a benchmark (last columns of Table II). JUPITER
/// consists of the exascale GPU module *Booster*, the CPU module *Cluster*,
/// and benchmarks spanning both are *MSA* benchmarks (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionTarget {
    BoosterGpu,
    ClusterCpu,
    /// Modular Supercomputing Architecture: spans Cluster and Booster.
    Msa,
    /// The high-bandwidth flash storage module.
    Storage,
}

/// Number of nodes used for the reference execution. Some benchmarks define
/// several sub-benchmarks with different node counts (e.g. GROMACS test
/// cases A and C) and synthetic benchmarks may use free or full-system node
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeSpecification {
    /// One fixed reference count.
    Fixed(u32),
    /// Several sub-benchmarks, each with its own count.
    PerSubBenchmark(&'static [u32]),
    /// Free choice with a lower bound (IOR hard: "> 64").
    AtLeast(u32),
    /// Free choice (IOR easy).
    Free,
    /// The whole system (LinkTest; Graph500/HPCG/HPL full-system runs).
    FullSystem,
}

impl NodeSpecification {
    /// The primary reference node count used for scaling studies, if a
    /// concrete one exists. For `PerSubBenchmark`, the first entry.
    pub fn reference(&self) -> Option<u32> {
        match *self {
            NodeSpecification::Fixed(n) => Some(n),
            NodeSpecification::PerSubBenchmark(list) => list.first().copied(),
            NodeSpecification::AtLeast(n) => Some(n),
            NodeSpecification::Free | NodeSpecification::FullSystem => None,
        }
    }
}

/// High-Scaling configuration of a benchmark (Table II, "Nodes High-Scale").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HighScaleSpec {
    /// Reference node count on the preparation system. 642 nodes make up the
    /// 50 PFLOP/s(th) sub-partition; benchmarks with powers-of-two
    /// limitations use 512, PIConGPU's 3D decomposition limits it to 640.
    pub nodes: u32,
    /// Offered memory variants.
    pub variants: &'static [MemoryVariant],
}

/// A row of Table II (plus the Table I dwarf columns).
#[derive(Debug, Clone)]
pub struct BenchmarkMeta {
    pub id: BenchmarkId,
    pub category: Category,
    pub domain: Domain,
    pub dwarfs: &'static [Dwarf],
    /// "Progr. Language, \[Libraries, \] Prog. Models" column.
    pub languages: &'static str,
    pub license: &'static str,
    pub base_nodes: NodeSpecification,
    pub high_scale: Option<HighScaleSpec>,
    pub targets: &'static [ExecutionTarget],
    /// Benchmarks marked `*` in the tables: prepared for the procurement but
    /// ultimately not used (Amber, ParFlow, SOMA, ResNet).
    pub used_in_procurement: bool,
}

use BenchmarkId as B;
use Dwarf as D;
use ExecutionTarget as T;
use MemoryVariant as V;

const TSML: &[MemoryVariant] = &[V::Tiny, V::Small, V::Medium, V::Large];
const SML: &[MemoryVariant] = &[V::Small, V::Medium, V::Large];
const SL: &[MemoryVariant] = &[V::Small, V::Large];

/// The 23 rows, in the order of [`BenchmarkId::ALL`] (so an id indexes
/// its row).
const SUITE_META: [BenchmarkMeta; 23] = [
    BenchmarkMeta {
        id: B::Amber,
        category: Category::Base,
        domain: Domain::MolecularDynamics,
        dwarfs: &[D::NBodyParticle, D::SpectralMethods],
        languages: "Fortran, CUDA",
        license: "Custom",
        base_nodes: NodeSpecification::Fixed(1),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: false,
    },
    BenchmarkMeta {
        id: B::Arbor,
        category: Category::HighScaling,
        domain: Domain::Neuroscience,
        dwarfs: &[D::SparseLinearAlgebra],
        languages: "C++, CUDA/HIP",
        license: "BSD-3-Clause",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: Some(HighScaleSpec {
            nodes: 642,
            variants: TSML,
        }),
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::ChromaQcd,
        category: Category::HighScaling,
        domain: Domain::QuantumChromodynamics,
        dwarfs: &[D::SparseLinearAlgebra, D::StructuredGrid],
        languages: "C++, QUDA, CUDA/HIP",
        license: "JLab",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: Some(HighScaleSpec {
            nodes: 512,
            variants: SML,
        }),
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Gromacs,
        category: Category::Base,
        domain: Domain::MolecularDynamics,
        dwarfs: &[D::NBodyParticle, D::SpectralMethods],
        languages: "C++, CUDA/SYCL",
        license: "LGPLv2.1",
        base_nodes: NodeSpecification::PerSubBenchmark(&[3, 128]),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Icon,
        category: Category::Base,
        domain: Domain::Climate,
        dwarfs: &[D::StructuredGrid],
        languages: "Fortran/C, OpenACC/CUDA/HIP",
        license: "BSD-3-Clause",
        base_nodes: NodeSpecification::PerSubBenchmark(&[120, 300]),
        high_scale: None,
        targets: &[T::BoosterGpu, T::Storage],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Juqcs,
        category: Category::HighScaling,
        domain: Domain::QuantumComputing,
        dwarfs: &[D::DenseLinearAlgebra],
        languages: "Fortran, CUDA/OpenMP",
        license: "None",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: Some(HighScaleSpec {
            nodes: 512,
            variants: SL,
        }),
        targets: &[T::BoosterGpu, T::Msa],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::NekRs,
        category: Category::HighScaling,
        domain: Domain::ComputationalFluidDynamics,
        dwarfs: &[D::SpectralMethods, D::UnstructuredGrid],
        languages: "C++/C, OCCA, CUDA/HIP/SYCL",
        license: "BSD-3-Clause",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: Some(HighScaleSpec {
            nodes: 642,
            variants: SL,
        }),
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::ParFlow,
        category: Category::Base,
        domain: Domain::EarthSystems,
        dwarfs: &[D::StructuredGrid],
        languages: "C, Hypre, CUDA/HIP",
        license: "LGPL",
        base_nodes: NodeSpecification::Fixed(4),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: false,
    },
    BenchmarkMeta {
        id: B::PIConGpu,
        category: Category::HighScaling,
        domain: Domain::PlasmaPhysics,
        dwarfs: &[D::NBodyParticle],
        languages: "C++, Alpaka, CUDA/HIP",
        license: "GPLv3+",
        base_nodes: NodeSpecification::Fixed(4),
        high_scale: Some(HighScaleSpec {
            nodes: 640,
            variants: SML,
        }),
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::QuantumEspresso,
        category: Category::Base,
        domain: Domain::MaterialsScience,
        dwarfs: &[D::DenseLinearAlgebra, D::SpectralMethods],
        languages: "Fortran, ELPA, OpenACC/CUF",
        license: "GPL",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Soma,
        category: Category::Base,
        domain: Domain::PolymerSystems,
        dwarfs: &[D::NBodyParticle],
        languages: "C, OpenACC",
        license: "LGPL",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: false,
    },
    BenchmarkMeta {
        id: B::MmoClip,
        category: Category::Base,
        domain: Domain::AiMultiModal,
        dwarfs: &[D::DenseLinearAlgebra],
        languages: "Python, PyTorch, CUDA/ROCm",
        license: "MIT",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::MegatronLm,
        category: Category::Base,
        domain: Domain::AiLargeLanguageModel,
        dwarfs: &[D::DenseLinearAlgebra],
        languages: "Python, PyTorch/Apex, CUDA/ROCm",
        license: "BSD-3-Clause",
        base_nodes: NodeSpecification::Fixed(96),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::ResNet,
        category: Category::Base,
        domain: Domain::AiVision,
        dwarfs: &[D::DenseLinearAlgebra],
        languages: "Python, TensorFlow/Horovod, CUDA/ROCm",
        license: "Apache-2.0",
        base_nodes: NodeSpecification::Fixed(10),
        high_scale: None,
        targets: &[T::BoosterGpu],
        used_in_procurement: false,
    },
    BenchmarkMeta {
        id: B::DynQcd,
        category: Category::Base,
        domain: Domain::QuantumChromodynamics,
        dwarfs: &[D::SparseLinearAlgebra, D::StructuredGrid],
        languages: "C, OpenMP",
        license: "None",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: None,
        targets: &[T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Nastja,
        category: Category::Base,
        domain: Domain::Biology,
        dwarfs: &[D::StructuredGrid],
        languages: "C++, MPI",
        license: "MPL-2.0",
        base_nodes: NodeSpecification::Fixed(8),
        high_scale: None,
        targets: &[T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Graph500,
        category: Category::Synthetic,
        domain: Domain::GraphAnalytics,
        dwarfs: &[D::GraphTraversal],
        languages: "C, MPI",
        license: "MIT",
        base_nodes: NodeSpecification::PerSubBenchmark(&[4, 16]),
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Hpcg,
        category: Category::Synthetic,
        domain: Domain::ConjugateGradient,
        dwarfs: &[D::SparseLinearAlgebra, D::StructuredGrid],
        languages: "C++, OpenMP, CUDA/HIP",
        license: "BSD-3-Clause",
        base_nodes: NodeSpecification::PerSubBenchmark(&[1, 4]),
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Hpl,
        category: Category::Synthetic,
        domain: Domain::LinearAlgebra,
        dwarfs: &[D::DenseLinearAlgebra],
        languages: "C, BLAS, OpenMP, CUDA/HIP",
        license: "BSD-4-Clause",
        base_nodes: NodeSpecification::PerSubBenchmark(&[1, 16]),
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Ior,
        category: Category::Synthetic,
        domain: Domain::Filesystem,
        dwarfs: &[D::InputOutput],
        languages: "C, MPI",
        license: "GPLv2",
        base_nodes: NodeSpecification::AtLeast(64),
        high_scale: None,
        targets: &[T::Storage],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::LinkTest,
        category: Category::Synthetic,
        domain: Domain::Network,
        dwarfs: &[D::PointToPointTopology],
        languages: "C++, MPI/SIONlib",
        license: "BSD-4-Clause+",
        base_nodes: NodeSpecification::FullSystem,
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Osu,
        category: Category::Synthetic,
        domain: Domain::Network,
        dwarfs: &[D::MessageExchangeDma],
        languages: "C, MPI, CUDA",
        license: "BSD",
        base_nodes: NodeSpecification::PerSubBenchmark(&[1, 2]),
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
    BenchmarkMeta {
        id: B::Stream,
        category: Category::Synthetic,
        domain: Domain::Memory,
        dwarfs: &[D::RegularMemoryAccess],
        languages: "C, CUDA/ROCm/OpenACC",
        license: "Custom",
        base_nodes: NodeSpecification::Fixed(1),
        high_scale: None,
        targets: &[T::BoosterGpu, T::ClusterCpu],
        used_in_procurement: true,
    },
];

/// The full suite metadata, in the row order of Tables I and II.
pub fn suite_meta() -> Vec<BenchmarkMeta> {
    SUITE_META.to_vec()
}

impl BenchmarkMeta {
    /// Whether this benchmark belongs to the Base set (all applications,
    /// including the High-Scaling five, but not the synthetic codes).
    pub fn is_application(&self) -> bool {
        !matches!(self.category, Category::Synthetic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_23_benchmarks() {
        assert_eq!(suite_meta().len(), 23);
        assert_eq!(BenchmarkId::ALL.len(), 23);
    }

    #[test]
    fn seven_synthetic_sixteen_applications() {
        let meta = suite_meta();
        let synthetic = meta
            .iter()
            .filter(|m| m.category == Category::Synthetic)
            .count();
        let apps = meta.iter().filter(|m| m.is_application()).count();
        assert_eq!(synthetic, 7);
        assert_eq!(apps, 16);
    }

    #[test]
    fn five_high_scaling_benchmarks() {
        let meta = suite_meta();
        let hs: Vec<_> = meta
            .iter()
            .filter(|m| m.category == Category::HighScaling)
            .map(|m| m.id)
            .collect();
        assert_eq!(
            hs,
            vec![B::Arbor, B::ChromaQcd, B::Juqcs, B::NekRs, B::PIConGpu],
            "the paper's five High-Scaling applications"
        );
        for m in meta.iter().filter(|m| m.category == Category::HighScaling) {
            assert!(m.high_scale.is_some());
        }
    }

    #[test]
    fn twelve_applications_used_in_procurement() {
        // §IV: "In the procurement process, the number of application
        // benchmarks was reduced to 12" (Amber, ParFlow, SOMA, ResNet were
        // prepared but not used).
        let meta = suite_meta();
        let used = meta
            .iter()
            .filter(|m| m.is_application() && m.used_in_procurement)
            .count();
        assert_eq!(used, 12);
        for id in [B::Amber, B::ParFlow, B::Soma, B::ResNet] {
            let m = meta.iter().find(|m| m.id == id).unwrap();
            assert!(!m.used_in_procurement, "{:?} was prepared but not used", id);
        }
    }

    #[test]
    fn ids_are_unique_and_ordered_like_all() {
        let meta = suite_meta();
        let ids: Vec<_> = meta.iter().map(|m| m.id).collect();
        assert_eq!(ids, BenchmarkId::ALL.to_vec());
    }

    #[test]
    fn an_id_looks_up_its_own_row() {
        for id in BenchmarkId::ALL {
            assert_eq!(id.meta().id, id);
        }
    }

    #[test]
    fn high_scale_node_counts_match_paper() {
        let meta = suite_meta();
        let hs = |id: BenchmarkId| {
            meta.iter()
                .find(|m| m.id == id)
                .unwrap()
                .high_scale
                .unwrap()
        };
        // 642 nodes = 50 PFLOP/s(th) sub-partition; 512 for powers-of-two
        // codes; 640 for PIConGPU's 3D decomposition.
        assert_eq!(hs(B::Arbor).nodes, 642);
        assert_eq!(hs(B::ChromaQcd).nodes, 512);
        assert_eq!(hs(B::Juqcs).nodes, 512);
        assert_eq!(hs(B::NekRs).nodes, 642);
        assert_eq!(hs(B::PIConGpu).nodes, 640);
    }

    #[test]
    fn arbor_offers_all_four_variants() {
        let meta = suite_meta();
        let arbor = meta.iter().find(|m| m.id == B::Arbor).unwrap();
        assert_eq!(arbor.high_scale.unwrap().variants, MemoryVariant::ALL);
    }

    #[test]
    fn juqcs_offers_small_and_large_only() {
        // §IV-A2c: L = 42 qubits (64 TiB), S = 41 qubits (32 TiB).
        let meta = suite_meta();
        let juqcs = meta.iter().find(|m| m.id == B::Juqcs).unwrap();
        assert_eq!(
            juqcs.high_scale.unwrap().variants,
            &[MemoryVariant::Small, MemoryVariant::Large]
        );
    }

    #[test]
    fn cpu_only_benchmarks_target_cluster() {
        let meta = suite_meta();
        for id in [B::DynQcd, B::Nastja] {
            let m = meta.iter().find(|m| m.id == id).unwrap();
            assert!(m.targets.contains(&ExecutionTarget::ClusterCpu));
            assert!(!m.targets.contains(&ExecutionTarget::BoosterGpu));
        }
    }

    #[test]
    fn juqcs_has_msa_version() {
        let meta = suite_meta();
        let m = meta.iter().find(|m| m.id == B::Juqcs).unwrap();
        assert!(m.targets.contains(&ExecutionTarget::Msa));
    }

    #[test]
    fn megatron_reference_is_96_nodes() {
        let meta = suite_meta();
        let m = meta.iter().find(|m| m.id == B::MegatronLm).unwrap();
        assert_eq!(m.base_nodes.reference(), Some(96));
    }

    #[test]
    fn icon_has_two_resolutions() {
        let meta = suite_meta();
        let m = meta.iter().find(|m| m.id == B::Icon).unwrap();
        assert_eq!(
            m.base_nodes,
            NodeSpecification::PerSubBenchmark(&[120, 300]),
            "R02B09 on 120 nodes, R02B10 on 300 nodes"
        );
    }

    #[test]
    fn ior_requires_more_than_64_nodes_in_hard_mode() {
        let meta = suite_meta();
        let m = meta.iter().find(|m| m.id == B::Ior).unwrap();
        assert_eq!(m.base_nodes, NodeSpecification::AtLeast(64));
    }

    #[test]
    fn every_benchmark_has_at_least_one_dwarf_and_target() {
        for m in suite_meta() {
            assert!(!m.dwarfs.is_empty(), "{:?}", m.id);
            assert!(!m.targets.is_empty(), "{:?}", m.id);
        }
    }
}
