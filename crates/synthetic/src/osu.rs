//! OSU micro-benchmarks: point-to-point latency and bandwidth sweeps over
//! message sizes, run through the simulated MPI layer (virtual time).

use crate::nothing_executed;
use jubench_apps_common::layout_serial;
use jubench_cluster::Machine;
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::{ClockStats, World};

/// One point of the OSU sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OsuPoint {
    pub bytes: u64,
    /// One-way latency in seconds (half the ping-pong round trip).
    pub latency_s: f64,
    /// Uni-directional bandwidth in bytes/s.
    pub bandwidth: f64,
}

/// Ping-pong between ranks 0 and `partner` over the virtual network.
pub(crate) fn pingpong_sweep(machine: Machine, partner: u32, sizes: &[u64]) -> Vec<OsuPoint> {
    let world = World::new(machine);
    assert!(partner > 0 && partner < world.ranks());
    let sizes = sizes.to_vec();
    let results = world.run(move |comm| {
        let mut points = Vec::new();
        if comm.rank() == 0 {
            for &bytes in &sizes {
                let payload = vec![0.0f64; (bytes / 8) as usize];
                let before = comm.now();
                comm.send_f64(partner, &payload).unwrap();
                let _ = comm.recv_f64(partner).unwrap();
                let rtt = comm.now() - before;
                points.push(OsuPoint {
                    bytes,
                    latency_s: rtt / 2.0,
                    bandwidth: bytes as f64 / (rtt / 2.0),
                });
            }
        } else if comm.rank() == partner {
            for &bytes in &sizes {
                let _ = bytes;
                let echo = comm.recv_f64(0).unwrap();
                comm.send_f64(0, &echo).unwrap();
            }
        }
        points
    });
    results.into_iter().find(|r| r.rank == 0).unwrap().value
}

pub struct Osu;

impl Osu {
    /// The partition the sweep spans. A single-device node has no
    /// intra-node pair; span two nodes of the backend so the sweep still
    /// has a rank pair to measure.
    fn partition(cfg: &RunConfig) -> Machine {
        let span = if cfg.backend.node.gpus_per_node >= 2 {
            cfg.nodes.min(2)
        } else {
            cfg.backend.nodes.min(2)
        };
        cfg.backend.partition(span)
    }
}

impl Benchmark for Osu {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Osu.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        let machine = Self::partition(cfg);
        if machine.node.gpus_per_node < 2 && machine.nodes < 2 {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "OSU",
                nodes: cfg.nodes,
                reason: "OSU needs a rank pair: several devices per node, or two nodes".into(),
            });
        }
        Ok(layout_serial(cfg))
    }

    /// Nothing: what OSU measures *is* the target machine's network, so
    /// the whole sweep is [`Benchmark::cost`].
    fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        Ok(nothing_executed())
    }

    fn cost(&self, cfg: &RunConfig, _track: &RealTrack) -> RunOutcome {
        let machine = Self::partition(cfg);
        // Intra-node pair (ranks 0-1) where the node hosts several
        // devices, and, with 2 nodes, inter-node pair (rank 0 to the
        // first rank of node 1 — rank layout is node-major).
        let devices_per_node = machine.node.gpus_per_node;
        let sizes = [8u64, 1 << 10, 1 << 16, 1 << 20, 4 << 20];
        let intra = if devices_per_node >= 2 {
            Some(pingpong_sweep(machine, 1, &sizes))
        } else {
            None
        };
        let inter = if machine.nodes >= 2 {
            Some(pingpong_sweep(machine, devices_per_node, &sizes))
        } else {
            None
        };
        let first = intra
            .as_ref()
            .or(inter.as_ref())
            .expect("layout refuses a partition without a rank pair");
        let small_latency = first[0].latency_s;
        let mut metrics = Vec::new();
        let mut verification_ok = first
            .windows(2)
            .all(|w| w[1].bandwidth >= w[0].bandwidth * 0.5);
        if let Some(ref intra) = intra {
            metrics.push(("intra_latency_8b".into(), intra[0].latency_s));
            metrics.push(("intra_bw_4mib".into(), intra.last().unwrap().bandwidth));
        }
        if let Some(ref inter) = inter {
            metrics.push(("inter_latency_8b".into(), inter[0].latency_s));
            metrics.push(("inter_bw_4mib".into(), inter.last().unwrap().bandwidth));
            if let Some(ref intra) = intra {
                // The physics the benchmark exists to check: inter-node
                // is slower than intra-node.
                verification_ok &= inter[0].latency_s > intra[0].latency_s;
                verification_ok &=
                    inter.last().unwrap().bandwidth < intra.last().unwrap().bandwidth;
            }
        }
        let verification = if verification_ok {
            VerificationOutcome::KeyMetrics {
                metrics: vec![("latency_ordering".into(), 1.0, 1.0)],
            }
        } else {
            VerificationOutcome::Failed {
                detail: "latency/bandwidth ordering violated".into(),
            }
        };
        let clock = ClockStats {
            compute_s: 0.0,
            comm_s: small_latency,
        };
        RunOutcome {
            fom: Fom::LatencySeconds(small_latency),
            virtual_time_s: clock.total_s(),
            compute_time_s: 0.0,
            comm_time_s: clock.comm_s,
            verification,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_bandwidth_dominates_large() {
        let points = pingpong_sweep(Machine::juwels_booster().partition(1), 1, &[8, 1 << 20]);
        assert!(points[0].latency_s < points[1].latency_s);
        assert!(points[1].bandwidth > points[0].bandwidth);
    }

    #[test]
    fn inter_node_slower_than_intra_node() {
        let m = Machine::juwels_booster().partition(2);
        let intra = pingpong_sweep(m, 1, &[1 << 20]);
        let inter = pingpong_sweep(m, 4, &[1 << 20]);
        assert!(inter[0].bandwidth < intra[0].bandwidth);
    }

    #[test]
    fn run_verifies_orderings() {
        let out = Osu.run(&RunConfig::test(2)).unwrap();
        assert!(out.verification.passed());
        assert!(out.metric("inter_latency_8b").unwrap() > out.metric("intra_latency_8b").unwrap());
        assert!(matches!(out.fom, Fom::LatencySeconds(l) if l > 0.0));
        assert!(!out.fom.higher_is_better());
    }

    #[test]
    fn single_node_run_skips_inter_metrics() {
        let out = Osu.run(&RunConfig::test(1)).unwrap();
        assert!(out.metric("inter_latency_8b").is_none());
        assert!(out.verification.passed());
    }
}
