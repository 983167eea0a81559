//! The ICON benchmark definition: R02B09 / R02B10 global forecasts with
//! their large input datasets.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use jubench_apps_common::{layout_per_gpu, outcome, real_world, AppModel, ModelTiming, Phase};
use jubench_cluster::{CommPattern, Machine, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};

use crate::shallow_water::ShallowWater;

/// The two sub-benchmarks (§IV-A1b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IconResolution {
    /// 5 km grid-point distance, 120 reference nodes, 1.8 TB input.
    R02B09,
    /// 2.5 km grid-point distance, 300 reference nodes, 4.5 TB input.
    R02B10,
}

impl IconResolution {
    /// Horizontal cells of the icosahedral RnBk grid: 20·n²·4^k.
    pub fn cells(self) -> u64 {
        match self {
            IconResolution::R02B09 => 20 * 4 * 4u64.pow(9),
            IconResolution::R02B10 => 20 * 4 * 4u64.pow(10),
        }
    }

    pub fn reference_nodes(self) -> u32 {
        match self {
            IconResolution::R02B09 => 120,
            IconResolution::R02B10 => 300,
        }
    }

    /// Input dataset size in bytes.
    pub fn input_bytes(self) -> u64 {
        match self {
            IconResolution::R02B09 => (1.8e12) as u64,
            IconResolution::R02B10 => (4.5e12) as u64,
        }
    }
}

/// Vertical levels of the atmosphere component.
pub const LEVELS: u32 = 90;
/// Modeled forecast steps.
const STEPS: u32 = 2_000;

/// Aggregate read bandwidth of the storage module as a function of the
/// reading node count: per-node striping up to the backend limit (a flash
/// module in the 1 TB/s class was procured; the preparation system's JUST
/// is smaller — 400 GB/s is used here).
pub fn storage_read_bw(nodes: u32) -> f64 {
    (nodes as f64 * 2.0e9).min(400.0e9)
}

pub struct Icon {
    pub resolution: IconResolution,
}

impl Icon {
    pub fn r02b09() -> Self {
        Icon {
            resolution: IconResolution::R02B09,
        }
    }

    pub fn r02b10() -> Self {
        Icon {
            resolution: IconResolution::R02B10,
        }
    }

    fn model(&self, machine: Machine) -> (AppModel, f64) {
        let cells = self.resolution.cells() as f64;
        let devices = machine.devices() as f64;
        let cols_per_gpu = cells / devices;
        let points_per_gpu = cols_per_gpu * LEVELS as f64;
        // Non-hydrostatic dynamics: ~200 FLOP and ~250 B per point per
        // step (heavily memory-bound, as stencil codes are).
        let work = Work::new(200.0 * points_per_gpu, 250.0 * points_per_gpu);
        // 2D halo of the column decomposition: boundary columns × levels.
        let halo_cols = cols_per_gpu.sqrt().max(1.0);
        let face_bytes = (halo_cols * LEVELS as f64 * 8.0) as u64;
        let rank_dims = jubench_cluster::balanced_dims3(machine.devices());
        let model = AppModel::new(machine, STEPS)
            .with_efficiencies(0.4, 0.8)
            .with_phase(Phase::compute("dynamical core", work))
            .with_phase(Phase::comm(
                "halo exchange",
                CommPattern::Halo3d {
                    rank_dims: [rank_dims[0] * rank_dims[2], rank_dims[1], 1],
                    bytes_per_face: [face_bytes, face_bytes, 0],
                },
            ))
            .with_overlap(0.4);
        // Input staging: 1.8/4.5 TB read through the storage model.
        let io_time = self.resolution.input_bytes() as f64 / storage_read_bw(machine.nodes);
        (model, io_time)
    }
}

impl Benchmark for Icon {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Icon.meta()
    }

    fn reference_nodes(&self) -> u32 {
        self.resolution.reference_nodes()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_per_gpu(cfg))
    }

    /// Stage a small binary input through the filesystem (the I/O path),
    /// then run the shallow-water core and verify the key metrics.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let staged = stage_input(layout.seed)?;
        let results = real_world(layout).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 24, 24);
            let m0 = sw.total_mass(comm).unwrap();
            let e0 = sw.total_energy(comm).unwrap();
            for _ in 0..40 {
                sw.step(comm).unwrap();
            }
            let m1 = sw.total_mass(comm).unwrap();
            let e1 = sw.total_energy(comm).unwrap();
            (m0, m1, e0, e1)
        });
        let (m0, m1, e0, e1) = results[0].value;
        Ok(RealTrack {
            verification: VerificationOutcome::key_metrics(
                vec![
                    ("total_mass".into(), m1, m0),
                    ("total_energy".into(), e1, e0),
                ],
                2e-2,
            ),
            metrics: vec![("staged_bytes".into(), staged as f64)],
        })
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let (model, io_time) = self.model(cfg.machine());
        let t = model.timing();
        let timing = ModelTiming {
            compute_s: t.compute_s,
            comm_s: t.comm_s + io_time,
            exposed_comm_s: t.exposed_comm_s + io_time,
            total_s: t.total_s + io_time,
        };
        let mut metrics = vec![
            ("cells".into(), self.resolution.cells() as f64),
            (
                "input_tb".into(),
                self.resolution.input_bytes() as f64 / 1e12,
            ),
            ("io_time_s".into(), io_time),
        ];
        metrics.extend(track.metrics.iter().cloned());
        outcome(timing, track.verification.clone(), metrics)
    }
}

/// Write and read back a small deterministic input file — the real-code
/// path of the input staging (the multi-terabyte dataset itself is
/// represented by the storage model). The file is private to the call:
/// runs with one seed overlap (test threads, shards executing the same
/// point), so the name carries the process id and a process-wide count.
fn stage_input(seed: u64) -> Result<u64, SuiteError> {
    static STAGED: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("jubench-icon");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "input-{seed}-{}-{}.bin",
        std::process::id(),
        STAGED.fetch_add(1, Ordering::Relaxed)
    ));
    let payload: Vec<u8> = (0..1 << 16)
        .map(|i| ((i as u64 ^ seed) % 251) as u8)
        .collect();
    let round_trip = || -> std::io::Result<Vec<u8>> {
        std::fs::File::create(&path)?.write_all(&payload)?;
        let mut back = Vec::new();
        std::fs::File::open(&path)?.read_to_end(&mut back)?;
        Ok(back)
    };
    let back = round_trip();
    std::fs::remove_file(&path).ok();
    if back? != payload {
        return Err(SuiteError::Io("staged input failed round-trip".into()));
    }
    Ok(payload.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes_follow_the_icosahedral_law() {
        // 20·n²·4^k with n = 2: R02B09 ≈ 21 M cells, R02B10 ≈ 84 M.
        assert_eq!(IconResolution::R02B09.cells(), 20_971_520);
        assert_eq!(IconResolution::R02B10.cells(), 83_886_080);
    }

    #[test]
    fn input_sizes_match_paper() {
        assert_eq!(IconResolution::R02B09.input_bytes(), 1_800_000_000_000);
        assert_eq!(IconResolution::R02B10.input_bytes(), 4_500_000_000_000);
    }

    #[test]
    fn reference_nodes_are_120_and_300() {
        assert_eq!(Icon::r02b09().reference_nodes(), 120);
        assert_eq!(Icon::r02b10().reference_nodes(), 300);
    }

    #[test]
    fn run_verifies_key_metrics() {
        let out = Icon::r02b09().run(&RunConfig::test(120)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(
            out.verification,
            VerificationOutcome::KeyMetrics { .. }
        ));
        assert!(out.metric("staged_bytes").unwrap() > 0.0);
    }

    #[test]
    fn concurrent_staging_of_one_seed_never_collides() {
        // Every round starts all eight calls together; a thread keeps
        // its failures until the end so the others never wait for it.
        let start = std::sync::Barrier::new(8);
        let failures: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..50)
                            .filter_map(|_| {
                                start.wait();
                                stage_input(7).err()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        assert_eq!(failures, vec![]);
    }

    #[test]
    fn io_time_shrinks_with_more_nodes_up_to_the_backend_limit() {
        let t60 = Icon::r02b09().run(&RunConfig::test(60)).unwrap();
        let t120 = Icon::r02b09().run(&RunConfig::test(120)).unwrap();
        let t600 = Icon::r02b09().run(&RunConfig::test(600)).unwrap();
        assert!(t60.metric("io_time_s") > t120.metric("io_time_s"));
        // Beyond 200 nodes the backend saturates: no further gain.
        assert_eq!(t600.metric("io_time_s"), Some(1.8e12 / 400.0e9));
    }

    #[test]
    fn strong_scaling_to_2x_nodes_is_reasonable() {
        // §IV-A1b: "reasonable scaling to 2× the node count (240 and 600
        // nodes) is possible".
        let t120 = Icon::r02b09().run(&RunConfig::test(120)).unwrap();
        let t240 = Icon::r02b09().run(&RunConfig::test(240)).unwrap();
        let speedup = t120.virtual_time_s / t240.virtual_time_s;
        assert!((1.2..2.05).contains(&speedup), "120→240 speedup {speedup}");
    }

    #[test]
    fn finer_resolution_is_heavier() {
        let a = Icon::r02b09().run(&RunConfig::test(300)).unwrap();
        let b = Icon::r02b10().run(&RunConfig::test(300)).unwrap();
        assert!(b.virtual_time_s > 2.0 * a.virtual_time_s);
    }

    #[test]
    fn meta_is_icon() {
        assert_eq!(Icon::r02b09().meta().id, BenchmarkId::Icon);
    }
}
