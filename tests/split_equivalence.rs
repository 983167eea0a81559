//! The split is the parent, bit for bit.
//!
//! Every benchmark's `run` is `cost ∘ execute ∘ layout`. This suite pins
//! every `RunOutcome` of the registry on the standard catalog to digests
//! taken at the commit *before* the split (`9725242`), through `run` and
//! through every cross-backend composition
//! `cost(cfg_b, execute(layout(cfg_a)))` whose layouts compare equal —
//! the sharing `jubench-serve` performs.

use jubench::core::{fnv1a64, RealLayout, RealTrack, RealWorld, WorkloadScale};
use jubench::fleet::standard_catalog;
use jubench::prelude::*;
use jubench::scaling::full_registry;

/// Workload seeds of the pinned digest.
const SEEDS: [u64; 3] = [2024, 7, 11];

/// Metrics that are wall-clock rates of the host (STREAM, HPL, HPCG,
/// Graph500, IOR): two runs of one commit disagree on them, so they stay
/// out of the digest — and out of a track comparison — by name.
const WALL_CLOCK_METRICS: [&str; 8] = [
    "copy",
    "scale",
    "add",
    "triad",
    "measured_flops",
    "measured_teps",
    "write_bw",
    "read_bw",
];

/// Benchmarks whose FOM itself is such a host rate (their virtual times,
/// verification and other metrics are pinned).
const WALL_CLOCK_FOMS: [&str; 5] = ["Graph500", "HPCG", "HPL", "IOR", "STREAM"];

/// The two partitions each benchmark is pinned at: its reference node
/// count and twice that (a power of two stays one; where a backend
/// cannot hold the workload the typed error is what is pinned).
fn node_counts(bench: &dyn Benchmark) -> [u32; 2] {
    let reference = bench.reference_nodes();
    [reference, 2 * reference]
}

/// The metrics that are not host rates, by bit pattern.
fn metrics_line(metrics: &[(String, f64)]) -> String {
    let pinned: Vec<String> = metrics
        .iter()
        .filter(|(name, _)| !WALL_CLOCK_METRICS.contains(&name.as_str()))
        .map(|(name, value)| format!("{name}={:016x}", value.to_bits()))
        .collect();
    pinned.join(",")
}

/// Everything of a track that is a function of its layout: all of it
/// (`Debug` is bit-exact: floats round-trip), less the host rates of the
/// five benchmarks that report them.
fn track_line(bench: &dyn Benchmark, track: &RealTrack) -> String {
    if WALL_CLOCK_FOMS.contains(&bench.meta().id.name()) {
        format!(
            "{:?} [{}]",
            track.verification,
            metrics_line(&track.metrics)
        )
    } else {
        format!("{track:?}")
    }
}

/// Every field of an outcome, floats by bit pattern (`Debug` of an `f64`
/// round-trips, so the FOM and the verification are exact too).
fn outcome_line(bench: &dyn Benchmark, result: &Result<RunOutcome, SuiteError>) -> String {
    let host_fom = WALL_CLOCK_FOMS.contains(&bench.meta().id.name());
    match result {
        Err(err) => format!("Err {err}"),
        Ok(out) => {
            format!(
                "Ok fom={} virtual={:016x} compute={:016x} comm={:016x} verification={:?} \
                 metrics=[{}]",
                if host_fom {
                    "(host rate)".to_string()
                } else {
                    format!("{:?}", out.fom)
                },
                out.virtual_time_s.to_bits(),
                out.compute_time_s.to_bits(),
                out.comm_time_s.to_bits(),
                out.verification,
                metrics_line(&out.metrics),
            )
        }
    }
}

/// The configurations one benchmark is pinned over, in digest order.
fn configs(bench: &dyn Benchmark) -> Vec<(&'static str, RunConfig)> {
    let mut out = Vec::new();
    for model in standard_catalog() {
        for nodes in node_counts(bench) {
            for seed in SEEDS {
                let cfg = RunConfig::test(nodes)
                    .with_seed(seed)
                    .with_backend(model.machine);
                out.push((model.key, cfg));
            }
        }
    }
    out
}

/// Digest of one benchmark's outcomes over [`configs`], the `i`-th
/// produced by `produce(i, cfg)`.
fn digest(
    bench: &dyn Benchmark,
    mut produce: impl FnMut(usize, &RunConfig) -> Result<RunOutcome, SuiteError>,
) -> u64 {
    let mut text = String::new();
    for (i, (backend, cfg)) in configs(bench).into_iter().enumerate() {
        text.push_str(&format!(
            "{backend} nodes={} seed={} {}\n",
            cfg.nodes,
            cfg.seed,
            outcome_line(bench, &produce(i, &cfg))
        ));
    }
    fnv1a64(text.as_bytes())
}

/// Per-benchmark digests of [`configs`] through `Benchmark::run`, taken
/// at `9725242` — the commit before any proxy was split — with this
/// file's `digest`. Equal in debug and release builds.
const PARENT_DIGESTS: [(&str, u64); 23] = [
    ("Amber", 0x8dbaa02557bdb4d2),
    ("Arbor", 0x0efc4e010c1b76b8),
    ("Chroma-QCD", 0x4e83e2e9eabdeabb),
    ("GROMACS", 0x70fbaee4d5fe45c8),
    ("ICON", 0x3a3bf4c80a4a2ae0),
    ("JUQCS", 0x868756ce5c038e16),
    ("nekRS", 0x3b5a2f229d8ce49b),
    ("ParFlow", 0xc5e4f2359884e337),
    ("PIConGPU", 0x616d9b16503a1316),
    ("Quantum Espresso", 0xa81082c798bafc7a),
    ("SOMA", 0xf9bca74989ddf8fd),
    ("MMoCLIP", 0x6fd6e75acaff1b76),
    ("Megatron-LM", 0xb22c98e30b96d518),
    ("ResNet", 0x4f13844ee835a292),
    ("DynQCD", 0x9d364172470fc76e),
    ("NAStJA", 0xdf056f939b47e9f9),
    ("Graph500", 0x95ab493d06d6d7b6),
    ("HPCG", 0x634dd0a16e76d01b),
    ("HPL", 0xd3d4002572178f49),
    ("IOR", 0x0ffa5c88200de019),
    ("LinkTest", 0xc3b3827e448ce37e),
    ("OSU", 0xa69fa9b3ddd86285),
    ("STREAM", 0x30f7f969adefa913),
];

fn pinned(bench: &dyn Benchmark) -> u64 {
    let name = bench.meta().id.name();
    PARENT_DIGESTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no pinned digest for {name}"))
        .1
}

/// Every outcome of the registry through `run` — which *is*
/// `cost ∘ execute ∘ layout` — is the parent's.
#[test]
fn run_reproduces_the_parent_digest() {
    let registry = full_registry();
    assert_eq!(registry.len(), PARENT_DIGESTS.len());
    for bench in registry.iter() {
        let got = digest(bench, |_, cfg| bench.run(cfg));
        assert_eq!(
            got,
            pinned(bench),
            "{}: outcomes through `run` moved (got 0x{got:016x})",
            bench.meta().id.name()
        );
    }
}

/// The sharing the service performs, at its widest: execute the real
/// track of *every* configuration, require the tracks of equal layouts
/// to be bit-equal but for the host rates (independence of the
/// backend), then cost every configuration with the track of each
/// member of its layout group in turn —
/// `cost(cfg_b, execute(layout(cfg_a)))` — and find the parent's digest
/// every time.
#[test]
fn costing_the_track_of_an_equal_layout_reproduces_the_parent_digest() {
    let registry = full_registry();
    for bench in registry.iter() {
        let name = bench.meta().id.name();
        // Per configuration: its layout and track, or the typed refusal.
        let staged: Vec<Result<(RealLayout, RealTrack), SuiteError>> = configs(bench)
            .iter()
            .map(|(_, cfg)| {
                let layout = bench.layout(cfg)?;
                let track = bench.execute(&layout)?;
                Ok((layout, track))
            })
            .collect();
        let valid = || staged.iter().filter_map(|s| s.as_ref().ok());
        assert!(valid().count() > 0, "{name}: no configuration is valid");
        for (layout, track) in valid() {
            for (other_layout, other_track) in valid() {
                if layout == other_layout {
                    assert_eq!(
                        track_line(bench, track),
                        track_line(bench, other_track),
                        "{name}: equal layouts {layout:?}, different tracks"
                    );
                }
            }
        }
        for (donor_layout, donor_track) in valid() {
            let got = digest(bench, |i, cfg| {
                let (layout, own_track) = staged[i].as_ref().map_err(Clone::clone)?;
                let track = if layout == donor_layout {
                    donor_track
                } else {
                    own_track
                };
                Ok(bench.cost(cfg, track))
            });
            assert_eq!(
                got,
                pinned(bench),
                "{name}: costing with the track of {donor_layout:?} moved an outcome"
            );
        }
    }
}

/// `execute` is a pure function of the layout, host rates aside: twice
/// is bit-equal.
#[test]
fn executing_a_layout_twice_is_bit_equal() {
    let registry = full_registry();
    for bench in registry.iter() {
        let cfg = RunConfig::test(bench.reference_nodes()).with_seed(SEEDS[0]);
        let layout = bench.layout(&cfg).unwrap();
        let first = bench.execute(&layout).unwrap();
        let second = bench.execute(&layout).unwrap();
        assert_eq!(
            track_line(bench, &first),
            track_line(bench, &second),
            "{}",
            bench.meta().id.name()
        );
    }
}

/// What a layout distinguishes, and what it does not.
#[test]
fn layouts_differ_by_seed_scale_variant_ranks_and_world_kind_only() {
    let registry = full_registry();
    let chroma = registry.get(BenchmarkId::ChromaQcd).unwrap();
    let on = |key: &str| {
        let model = standard_catalog().into_iter().find(|m| m.key == key);
        RunConfig::test(8).with_backend(model.unwrap().machine)
    };
    let base = chroma.layout(&on("booster")).unwrap();
    assert_eq!(base.world, RealWorld::PerGpu { ranks: 16 });

    // Ranks per node are not an input: cloud's 2 × 8 ranks are Booster's
    // 4 × 4, and the next-generation node differs in nothing that counts.
    assert_eq!(chroma.layout(&on("cloud")).unwrap(), base);
    assert_eq!(chroma.layout(&on("nextgen")).unwrap(), base);

    let differs = |cfg: RunConfig, what: &str| {
        assert_ne!(chroma.layout(&cfg).unwrap(), base, "{what}");
    };
    differs(on("booster").with_seed(7), "seed");
    differs(
        RunConfig {
            scale: WorkloadScale::Bench,
            ..on("booster")
        },
        "scale",
    );
    differs(on("booster").with_variant(MemoryVariant::Small), "variant");
    // One device per node: 8 ranks, not 16 — the rank count, not the
    // node count, is the key.
    differs(on("cpu"), "rank count");
    assert_eq!(
        chroma.layout(&on("cpu")).unwrap().world,
        RealWorld::PerGpu { ranks: 8 }
    );
    assert_eq!(
        chroma
            .layout(&RunConfig {
                nodes: 2,
                ..on("booster")
            })
            .unwrap()
            .world,
        RealWorld::PerGpu { ranks: 8 },
        "2 Booster nodes launch what 8 CPU nodes do"
    );

    // Same seed, scale, variant and rank count, the other kind of world.
    let dynqcd = registry
        .get(BenchmarkId::DynQcd)
        .unwrap()
        .layout(&RunConfig {
            nodes: 16,
            ..on("booster")
        })
        .unwrap();
    assert_eq!(dynqcd.world, RealWorld::PerNode { ranks: 16 });
    assert_ne!(dynqcd, base, "world kind");
    assert_eq!(
        RealLayout {
            world: base.world,
            ..dynqcd
        },
        base
    );
}
