//! LinkTest: point-to-point connection testing; the suite uses the
//! **bisection test** — processes split into two halves exchange 16 MiB
//! messages bidirectionally, and the FOM is the minimum bisection
//! bandwidth (§IV-B).

use crate::nothing_executed;
use jubench_apps_common::layout_serial;
use jubench_cluster::{Distance, Machine, NetModel, Placement, Topology};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::{ClockStats, World};

/// "To achieve optimal bandwidth, the message size is set to 16 MiB."
pub const MESSAGE_BYTES: u64 = 16 << 20;

pub struct LinkTest;

impl LinkTest {
    /// The modeled per-pair bisection bandwidth for a partition: each rank
    /// exchanges 16 MiB bidirectionally with its partner in the other
    /// half; returns (min pair bandwidth, aggregate bisection bandwidth).
    pub fn model(machine: Machine) -> (f64, f64) {
        let placement = Placement::per_gpu(machine);
        let net = NetModel::juwels_booster();
        let p = placement.ranks();
        let mut min_bw = f64::INFINITY;
        for r in 0..p / 2 {
            let partner = r + p / 2;
            let t = net.ptp_time(
                2 * MESSAGE_BYTES,
                placement.distance(r, partner),
                machine.nodes,
            );
            min_bw = min_bw.min(2.0 * MESSAGE_BYTES as f64 / t);
        }
        let aggregate = Topology::new(machine).bisection_bandwidth();
        (min_bw, aggregate)
    }
}

impl Benchmark for LinkTest {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::LinkTest.meta()
    }

    fn validate_nodes(&self, nodes: u32) -> Result<(), SuiteError> {
        if nodes < 2 || !nodes.is_multiple_of(2) {
            return Err(SuiteError::InvalidNodeCount {
                benchmark: "LinkTest",
                nodes,
                reason: "the bisection test needs an even number of ≥ 2 nodes".into(),
            });
        }
        Ok(())
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// Nothing: the exchange below times the target machine's own world,
    /// so it belongs to [`Benchmark::cost`].
    fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        Ok(nothing_executed())
    }

    fn cost(&self, cfg: &RunConfig, _track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let (min_pair_bw, aggregate) = Self::model(machine);

        // The actual bisection exchange through simmpi on a reduced
        // message size; verify payload integrity and measure the virtual
        // pair bandwidth.
        let world = jubench_apps_common::real_exec_world(machine);
        let bytes = 1 << 16;
        let results = world.run(move |comm| {
            let p = comm.size();
            let half = p / 2;
            let partner = if comm.rank() < half {
                comm.rank() + half
            } else {
                comm.rank() - half
            };
            let payload: Vec<f64> = (0..bytes / 8)
                .map(|i| (comm.rank() as f64) + i as f64)
                .collect();
            let before = comm.now();
            let got = comm.sendrecv_f64(partner, &payload).unwrap();
            let elapsed = comm.now() - before;
            let expect_head = partner as f64;
            let ok = got[0] == expect_head && got.len() == payload.len();
            (ok, 2.0 * bytes as f64 / elapsed)
        });
        let all_ok = results.iter().all(|r| r.value.0);
        let measured_min = results
            .iter()
            .map(|r| r.value.1)
            .fold(f64::INFINITY, f64::min);
        let verification = if all_ok {
            VerificationOutcome::Exact {
                checked_values: results.len(),
            }
        } else {
            VerificationOutcome::Failed {
                detail: "bisection payload mismatch".into(),
            }
        };
        let virtual_time = 2.0 * MESSAGE_BYTES as f64 / min_pair_bw;
        let clock = ClockStats {
            compute_s: 0.0,
            comm_s: virtual_time,
        };
        RunOutcome {
            fom: Fom::BytesPerSecond(min_pair_bw),
            virtual_time_s: clock.total_s(),
            compute_time_s: 0.0,
            comm_time_s: clock.comm_s,
            verification,
            metrics: vec![
                ("min_pair_bw".into(), min_pair_bw),
                ("aggregate_bisection_bw".into(), aggregate),
                ("real_exec_min_pair_bw".into(), measured_min),
            ],
        }
    }
}

/// LinkTest's *serial* mode (the paper: "designed to test point-to-point
/// connections between processes in serial or parallel mode [...] used
/// mostly internally by system administrators for acceptance testing,
/// maintenance, and troubleshooting"): rank 0 ping-pongs every other rank
/// one at a time and reports the per-link bandwidth, exposing degraded
/// links.
pub fn serial_scan(world: &World, bytes: usize) -> Vec<(u32, f64)> {
    let results = world.run(move |comm| {
        let p = comm.size();
        let mut bws = Vec::new();
        if comm.rank() == 0 {
            for peer in 1..p {
                let payload = vec![0.0f64; bytes / 8];
                let before = comm.now();
                comm.send_f64(peer, &payload).unwrap();
                let _ = comm.recv_f64(peer).unwrap();
                let rtt = comm.now() - before;
                bws.push((peer, 2.0 * bytes as f64 / rtt));
            }
        } else {
            let echo = comm.recv_f64(0).unwrap();
            comm.send_f64(0, &echo).unwrap();
        }
        bws
    });
    results.into_iter().next().unwrap().value
}

/// LinkTest's exhaustive *parallel* mode: ping-pong every unordered rank
/// pair on a deterministic schedule (pair `(a, b)` is probed by rank `a`).
/// A barrier levels all virtual clocks before each probe — without it, a
/// slow probe leaves its participants' clocks ahead, and later probes
/// against them would measure causality waits instead of link speed.
/// Returns the per-pair bandwidth, ordered lexicographically by pair.
pub fn all_pairs_scan(world: &World, bytes: usize) -> Vec<((u32, u32), f64)> {
    let results = world.run(move |comm| {
        let p = comm.size();
        let me = comm.rank();
        let mut bws = Vec::new();
        for a in 0..p {
            for b in (a + 1)..p {
                comm.barrier();
                if me == a {
                    let payload = vec![0.0f64; bytes / 8];
                    let before = comm.now();
                    comm.send_f64(b, &payload).unwrap();
                    let _ = comm.recv_f64(b).unwrap();
                    let rtt = comm.now() - before;
                    bws.push(((a, b), 2.0 * bytes as f64 / rtt));
                } else if me == b {
                    let echo = comm.recv_f64(a).unwrap();
                    comm.send_f64(a, &echo).unwrap();
                }
            }
        }
        bws
    });
    results.into_iter().flat_map(|r| r.value).collect()
}

/// Localize degraded links in an [`all_pairs_scan`]: flag every pair
/// whose bandwidth falls below `fraction` of the **median of its own
/// topology distance class**. Comparing within a class is what keeps a
/// healthy inter-node link from being flagged merely because intra-node
/// links are faster. Returns the flagged pairs, sorted — directly
/// comparable to `FaultPlan::degraded_pairs()`.
pub fn detect_degraded_links(
    world: &World,
    scan: &[((u32, u32), f64)],
    fraction: f64,
) -> Vec<(u32, u32)> {
    let map = world.rank_map();
    let class = |a: u32, b: u32| -> usize {
        match map.distance(a, b) {
            Distance::SameDevice => 0,
            Distance::IntraNode => 1,
            Distance::IntraCell => 2,
            Distance::InterCell => 3,
            Distance::InterModule => 4,
        }
    };
    let mut per_class: [Vec<f64>; 5] = Default::default();
    for &((a, b), bw) in scan {
        per_class[class(a, b)].push(bw);
    }
    let medians: Vec<Option<f64>> = per_class
        .iter_mut()
        .map(|v| {
            if v.is_empty() {
                None
            } else {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                Some(v[v.len() / 2])
            }
        })
        .collect();
    let mut flagged: Vec<(u32, u32)> = scan
        .iter()
        .filter(|&&((a, b), bw)| medians[class(a, b)].is_some_and(|m| bw < fraction * m))
        .map(|&(pair, _)| pair)
        .collect();
    flagged.sort_unstable();
    flagged
}

/// Flag links whose bandwidth falls below `fraction` of the median of
/// their scan.
pub fn slow_links(scan: &[(u32, f64)], fraction: f64) -> Vec<u32> {
    let mut sorted: Vec<f64> = scan.iter().map(|&(_, bw)| bw).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];
    scan.iter()
        .filter(|&&(_, bw)| bw < fraction * median)
        .map(|&(peer, _)| peer)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_runs_and_verifies() {
        let out = LinkTest.run(&RunConfig::test(4)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(out.fom, Fom::BytesPerSecond(b) if b > 0.0));
    }

    #[test]
    fn odd_node_counts_rejected() {
        assert!(LinkTest.run(&RunConfig::test(5)).is_err());
        assert!(LinkTest.run(&RunConfig::test(1)).is_err());
    }

    #[test]
    fn cross_cell_bisection_is_slower() {
        let (single_cell, _) = LinkTest::model(Machine::juwels_booster().partition(48));
        let (multi_cell, _) = LinkTest::model(Machine::juwels_booster().partition(936));
        assert!(multi_cell < single_cell, "{multi_cell} !< {single_cell}");
    }

    #[test]
    fn serial_scan_reports_every_link() {
        let world = World::new(Machine::juwels_booster().partition(2));
        let scan = serial_scan(&world, 1 << 16);
        assert_eq!(scan.len(), 7, "rank 0 probes the 7 peers");
        // Intra-node peers (1-3) are faster than inter-node peers (4-7).
        let intra = scan[0].1;
        let inter = scan.last().unwrap().1;
        assert!(intra > inter);
        assert!(slow_links(&scan, 0.05).is_empty(), "healthy system");
    }

    #[test]
    fn degraded_link_is_localized() {
        // A failing cable between rank 0 and rank 5: the serial scan must
        // single out exactly that peer.
        let plan = jubench_faults::FaultPlan::new(0).with_degraded_link(0, 5, 20.0);
        let world = World::new(Machine::juwels_booster().partition(2)).with_fault_plan(plan);
        let scan = serial_scan(&world, 1 << 16);
        let flagged = slow_links(&scan, 0.2);
        assert_eq!(flagged, vec![5], "scan: {scan:?}");
    }

    #[test]
    fn all_pairs_scan_detects_every_injected_link() {
        use jubench_faults::FaultPlan;
        // Three bad cables at once — one intra-node, two inter-node. The
        // exhaustive scan must recover exactly the injected set, no more.
        let plan = FaultPlan::new(3)
            .with_degraded_link(0, 5, 20.0)
            .with_degraded_link(1, 3, 20.0)
            .with_degraded_link(2, 6, 20.0);
        let world = World::new(Machine::juwels_booster().partition(2)).with_fault_plan(plan);
        let scan = all_pairs_scan(&world, 1 << 16);
        assert_eq!(scan.len(), 8 * 7 / 2, "every unordered pair probed");
        let detected = detect_degraded_links(&world, &scan, 0.2);
        let injected = world.fault_plan().unwrap().degraded_pairs();
        assert_eq!(detected, injected, "scan: {scan:?}");
    }

    #[test]
    fn all_pairs_scan_is_clean_on_a_healthy_world() {
        let world = World::new(Machine::juwels_booster().partition(2));
        let scan = all_pairs_scan(&world, 1 << 16);
        assert!(detect_degraded_links(&world, &scan, 0.2).is_empty());
    }

    #[test]
    fn aggregate_grows_with_machine() {
        let (_, small) = LinkTest::model(Machine::juwels_booster().partition(96));
        let (_, large) = LinkTest::model(Machine::juwels_booster());
        assert!(large > small);
    }
}
