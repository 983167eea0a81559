//! The real tracks a fleet row cannot see, pinned bit for bit.
//!
//! A fleet row reads `cost`'s modelled runtime, not the metrics
//! `execute` computes, so the fleet digest would not notice a changed
//! Quantum ESPRESSO or AI track. This suite executes Quantum ESPRESSO,
//! ResNet, Megatron-LM and MMoCLIP at every layout the standard fleet
//! study executes, at two seeds, and compares every metric's `to_bits()`
//! and the verification outcome with the values the proxies computed
//! before their loops were planned and hoisted (`5bc2209`).

use jubench::core::RealLayout;
use jubench::fleet::standard_catalog;
use jubench::prelude::*;
use jubench::scaling::full_registry;

/// The standard study's seed and the benchmark harness's first one.
const SEEDS: [u64; 2] = [2024, 1];

/// One execution's expected track.
struct Pinned {
    bench: BenchmarkId,
    ranks: u32,
    seed: u64,
    /// The outcome's `Debug` form: `f64` prints its shortest round-trip
    /// decimal, so two outcomes print alike only if their bits agree.
    verification: &'static str,
    metrics: &'static [(&'static str, u64)],
}

const PINNED: &[Pinned] = &[
    Pinned {
        bench: BenchmarkId::QuantumEspresso,
        ranks: 16,
        seed: 2024,
        verification: "WithinTolerance { max_deviation: 4.191472230014304e-12, tolerance: 0.001 }",
        metrics: &[
            ("fft_round_trip_error", 0x3cc465655f122ff6),
            ("ground_state_energy", 0x3d926f2d9e139800),
            ("cp_energy_drop", 0x4023b5ecfeb52df2),
        ],
    },
    Pinned {
        bench: BenchmarkId::QuantumEspresso,
        ranks: 8,
        seed: 2024,
        verification: "WithinTolerance { max_deviation: 4.191472230014304e-12, tolerance: 0.001 }",
        metrics: &[
            ("fft_round_trip_error", 0x3cc5a22073490377),
            ("ground_state_energy", 0x3d926f2d9e139800),
            ("cp_energy_drop", 0x4023b5ecfeb52df2),
        ],
    },
    Pinned {
        bench: BenchmarkId::QuantumEspresso,
        ranks: 16,
        seed: 1,
        verification: "WithinTolerance { max_deviation: 1.315898237363107e-10, tolerance: 0.001 }",
        metrics: &[
            ("fft_round_trip_error", 0x3cc465655f122ff6),
            ("ground_state_energy", 0x3de215e7c3256280),
            ("cp_energy_drop", 0x4023d24ebd23db08),
        ],
    },
    Pinned {
        bench: BenchmarkId::QuantumEspresso,
        ranks: 8,
        seed: 1,
        verification: "WithinTolerance { max_deviation: 1.315898237363107e-10, tolerance: 0.001 }",
        metrics: &[
            ("fft_round_trip_error", 0x3cc5a22073490377),
            ("ground_state_energy", 0x3de215e7c3256280),
            ("cp_energy_drop", 0x4023d24ebd23db08),
        ],
    },
    Pinned {
        bench: BenchmarkId::ResNet,
        ranks: 16,
        seed: 2024,
        verification: "FrameworkInherent { key_data: [(\"initial_loss\", 0.7181466535346964), (\"final_loss\", 0.34813167164072695)] }",
        metrics: &[
            ("final_loss", 0x3fd647ca101984d7),
        ],
    },
    Pinned {
        bench: BenchmarkId::ResNet,
        ranks: 10,
        seed: 2024,
        verification: "FrameworkInherent { key_data: [(\"initial_loss\", 0.7181466535346964), (\"final_loss\", 0.34816127248796064)] }",
        metrics: &[
            ("final_loss", 0x3fd6484637c47345),
        ],
    },
    Pinned {
        bench: BenchmarkId::ResNet,
        ranks: 16,
        seed: 1,
        verification: "Failed { detail: \"loss did not decrease: 0.6181497138923654 → 0.6931471805599453\" }",
        metrics: &[
            ("final_loss", 0x3fe62e42fefa39ef),
        ],
    },
    Pinned {
        bench: BenchmarkId::ResNet,
        ranks: 10,
        seed: 1,
        verification: "Failed { detail: \"loss did not decrease: 0.6181497138923654 → 0.6931471805599453\" }",
        metrics: &[
            ("final_loss", 0x3fe62e42fefa39ef),
        ],
    },
    Pinned {
        bench: BenchmarkId::MegatronLm,
        ranks: 16,
        seed: 2024,
        verification: "FrameworkInherent { key_data: [(\"initial_loss\", 1.405268792323888), (\"final_loss\", 0.5987212504001871)] }",
        metrics: &[
            ("final_loss", 0x3fe328b977bc72f0),
        ],
    },
    Pinned {
        bench: BenchmarkId::MegatronLm,
        ranks: 16,
        seed: 1,
        verification: "FrameworkInherent { key_data: [(\"initial_loss\", 1.4521255157002746), (\"final_loss\", 0.6219542929528672)] }",
        metrics: &[
            ("final_loss", 0x3fe3e70cb07adc1a),
        ],
    },
    Pinned {
        bench: BenchmarkId::MmoClip,
        ranks: 16,
        seed: 2024,
        verification: "FrameworkInherent { key_data: [(\"initial_contrastive_loss\", 4.728079954042419), (\"final_contrastive_loss\", 0.9293773771069506)] }",
        metrics: &[
            ("final_loss", 0x3fedbd75a00a21af),
        ],
    },
    Pinned {
        bench: BenchmarkId::MmoClip,
        ranks: 8,
        seed: 2024,
        verification: "FrameworkInherent { key_data: [(\"initial_contrastive_loss\", 4.108145635403872), (\"final_contrastive_loss\", 0.5455912558800272)] }",
        metrics: &[
            ("final_loss", 0x3fe1757bcb1fa007),
        ],
    },
    Pinned {
        bench: BenchmarkId::MmoClip,
        ranks: 16,
        seed: 1,
        verification: "FrameworkInherent { key_data: [(\"initial_contrastive_loss\", 4.953900323045216), (\"final_contrastive_loss\", 1.8524070755920066)] }",
        metrics: &[
            ("final_loss", 0x3ffda3759a08bf27),
        ],
    },
    Pinned {
        bench: BenchmarkId::MmoClip,
        ranks: 8,
        seed: 1,
        verification: "FrameworkInherent { key_data: [(\"initial_contrastive_loss\", 4.173807117737449), (\"final_contrastive_loss\", 1.2027078838074978)] }",
        metrics: &[
            ("final_loss", 0x3ff33e4a9f39835d),
        ],
    },
];

/// The distinct layouts `bench` executes in a standard study at `seed`.
fn fleet_layouts(bench: &dyn Benchmark, seed: u64) -> Vec<RealLayout> {
    let mut layouts = Vec::new();
    for model in standard_catalog() {
        let cfg = RunConfig::test(bench.reference_nodes())
            .with_backend(model.machine)
            .with_seed(seed);
        let layout = bench.layout(&cfg).unwrap();
        if !layouts.contains(&layout) {
            layouts.push(layout);
        }
    }
    layouts
}

#[test]
fn fleet_layouts_of_qe_and_the_ai_proxies_reproduce_their_tracks_bit_for_bit() {
    let registry = full_registry();
    let mut checked = 0;
    for id in [
        BenchmarkId::QuantumEspresso,
        BenchmarkId::ResNet,
        BenchmarkId::MegatronLm,
        BenchmarkId::MmoClip,
    ] {
        let bench = registry.get(id).unwrap();
        for seed in SEEDS {
            for layout in fleet_layouts(bench, seed) {
                let ranks = layout.world.ranks();
                let what = format!("{} at {ranks} ranks, seed {seed}", id.name());
                let pinned = PINNED
                    .iter()
                    .find(|p| (p.bench, p.ranks, p.seed) == (id, ranks, seed))
                    .unwrap_or_else(|| panic!("{what}: no pinned track"));
                let track = bench.execute(&layout).unwrap();
                assert_eq!(
                    format!("{:?}", track.verification),
                    pinned.verification,
                    "{what}: verification"
                );
                let got: Vec<(&str, u64)> = track
                    .metrics
                    .iter()
                    .map(|(name, v)| (name.as_str(), v.to_bits()))
                    .collect();
                assert_eq!(got, pinned.metrics, "{what}: metric bits");
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked,
        PINNED.len(),
        "a pinned track no fleet layout executes"
    );
}
