//! STREAM: the memory-bandwidth benchmark — copy, scale, add, triad.

use std::time::Instant;

use jubench_apps_common::layout_serial;
use jubench_cluster::{GpuSpec, Roofline, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::ClockStats;

/// Measured best rates of one STREAM pass (bytes/s per kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRates {
    pub copy: f64,
    pub scale: f64,
    pub add: f64,
    pub triad: f64,
}

impl StreamRates {
    pub fn best(&self) -> f64 {
        self.copy.max(self.scale).max(self.add).max(self.triad)
    }
}

/// Run the four STREAM kernels on arrays of `n` doubles, `reps` times,
/// returning the best rates and verifying the results exactly.
pub fn stream_kernels(n: usize, reps: usize) -> Result<StreamRates, String> {
    let scalar = 3.0;
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let mut best = StreamRates {
        copy: 0.0,
        scale: 0.0,
        add: 0.0,
        triad: 0.0,
    };
    for _ in 0..reps {
        // Copy: c = a.
        let t = Instant::now();
        c.copy_from_slice(&a);
        best.copy = best
            .copy
            .max(16.0 * n as f64 / t.elapsed().as_secs_f64().max(1e-9));
        // Scale: b = s·c.
        let t = Instant::now();
        for i in 0..n {
            b[i] = scalar * c[i];
        }
        best.scale = best
            .scale
            .max(16.0 * n as f64 / t.elapsed().as_secs_f64().max(1e-9));
        // Add: c = a + b.
        let t = Instant::now();
        for i in 0..n {
            c[i] = a[i] + b[i];
        }
        best.add = best
            .add
            .max(24.0 * n as f64 / t.elapsed().as_secs_f64().max(1e-9));
        // Triad: a = b + s·c.
        let t = Instant::now();
        for i in 0..n {
            a[i] = b[i] + scalar * c[i];
        }
        best.triad = best
            .triad
            .max(24.0 * n as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    // STREAM's built-in verification: after `reps` passes the arrays have
    // exactly predictable values.
    let mut ea = 1.0f64;
    let mut eb = 2.0f64;
    let mut ec = 0.0f64;
    for _ in 0..reps {
        ec = ea;
        eb = scalar * ec;
        ec = ea + eb;
        ea = eb + scalar * ec;
    }
    for (name, arr, expect) in [("a", &a, ea), ("b", &b, eb), ("c", &c, ec)] {
        for &v in arr.iter() {
            if (v - expect).abs() > 1e-8 * expect.abs() {
                return Err(format!("array {name}: {v} != expected {expect}"));
            }
        }
    }
    Ok(best)
}

pub struct Stream {
    /// Array length for the measured CPU run.
    pub n: usize,
}

impl Default for Stream {
    fn default() -> Self {
        Stream { n: 2_000_000 }
    }
}

impl Stream {
    /// The GPU variant's modeled triad bandwidth: the device's roofline
    /// bandwidth at STREAM efficiency.
    pub(crate) fn gpu_triad_model(gpu: GpuSpec) -> f64 {
        gpu.mem_bw * 0.85
    }
}

impl Benchmark for Stream {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Stream.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes != 1 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "STREAM",
                nodes,
                reason: "STREAM is a single-node benchmark".into(),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// The four kernels on the host (the arrays are constants: the seed
    /// is not an input). Every metric of the track is a kernel's rate.
    fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let rates = stream_kernels(self.n, 4).map_err(|detail| SuiteError::VerificationFailed {
            benchmark: "STREAM",
            detail,
        })?;
        Ok(RealTrack {
            verification: VerificationOutcome::Exact {
                checked_values: 3 * self.n,
            },
            metrics: vec![
                ("copy".into(), rates.copy),
                ("scale".into(), rates.scale),
                ("add".into(), rates.add),
                ("triad".into(), rates.triad),
            ],
        })
    }

    /// Virtual time of the GPU variant: four kernels over a 1 GiB working
    /// set at modeled bandwidth. The FOM is the best host rate.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let gpu = cfg.machine().node.gpu;
        let bytes = 4.0 * (1u64 << 30) as f64;
        let device = Roofline::new(gpu).with_efficiencies(0.5, 0.85);
        let virtual_time = device.time(Work::new(2.0 * (1u64 << 27) as f64, bytes));
        let clock = ClockStats {
            compute_s: virtual_time,
            comm_s: 0.0,
        };
        let best = track.metrics.iter().map(|&(_, rate)| rate);
        let mut metrics = track.metrics.clone();
        metrics.push(("gpu_triad_model".into(), Self::gpu_triad_model(gpu)));
        RunOutcome {
            fom: Fom::BytesPerSecond(best.fold(0.0, f64::max)),
            virtual_time_s: clock.total_s(),
            compute_time_s: clock.compute_s,
            comm_time_s: 0.0,
            verification: track.verification.clone(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_verify_exactly() {
        let rates = stream_kernels(10_000, 3).unwrap();
        assert!(rates.copy > 0.0 && rates.triad > 0.0);
        assert!(rates.best() >= rates.triad);
    }

    #[test]
    fn run_reports_all_four_kernels() {
        let out = Stream { n: 100_000 }.run(&RunConfig::test(1)).unwrap();
        assert!(out.verification.passed());
        for k in ["copy", "scale", "add", "triad"] {
            assert!(out.metric(k).unwrap() > 0.0, "{k} missing");
        }
        assert!(matches!(out.fom, Fom::BytesPerSecond(b) if b > 0.0));
    }

    /// The FOM is the best of the track's four host rates, whichever
    /// kernel reached it, and the model's metric comes after them.
    #[test]
    fn cost_reads_the_fom_off_the_best_rate_of_the_track() {
        let rates = [("copy", 1.0), ("scale", 2.0), ("add", 4.0), ("triad", 3.0)];
        let track = RealTrack {
            verification: VerificationOutcome::Exact { checked_values: 0 },
            metrics: rates.map(|(k, v)| (k.to_string(), v)).to_vec(),
        };
        let out = Stream::default().cost(&RunConfig::test(1), &track);
        assert_eq!(out.fom, Fom::BytesPerSecond(4.0));
        let names: Vec<&str> = out.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["copy", "scale", "add", "triad", "gpu_triad_model"]);
    }

    #[test]
    fn multi_node_is_rejected() {
        let err = Stream::default().run(&RunConfig::test(2)).unwrap_err();
        assert!(matches!(err, SuiteError::InvalidNodeCount { .. }));
    }

    #[test]
    fn gpu_model_is_near_hbm_bandwidth() {
        let bw = Stream::gpu_triad_model(GpuSpec::a100_40gb());
        assert!((1.2e12..1.6e12).contains(&bw), "modeled GPU triad {bw}");
    }
}
