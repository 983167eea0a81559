//! The traffic study: where the bytes go as a job grows.
//!
//! Runs a trace-probed halo-exchange + allreduce workload — the
//! communication skeleton shared by most of the suite — on increasing
//! Booster partitions and buckets every transferred byte by topology
//! regime (intra-node NVLink, intra-cell InfiniBand, inter-cell optical
//! links). The resulting table shows the mechanism behind the scaling
//! curves: growing jobs push a growing share of their traffic onto the
//! slower regimes.

use std::sync::Arc;

use jubench_cluster::Machine;
use jubench_simmpi::World;
use jubench_trace::{Recorder, Regime, RunReport};

/// One node count's traffic breakdown.
#[derive(Debug, Clone)]
pub struct TrafficPoint {
    pub nodes: u32,
    pub report: RunReport,
}

impl TrafficPoint {
    /// Share of the total sent bytes in `regime` (0 when nothing moved).
    pub(crate) fn regime_share(&self, regime: Regime) -> f64 {
        let total = self.report.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.report.regime_bytes(regime) as f64 / total as f64
        }
    }
}

/// The regime-breakdown table over a node sweep.
#[derive(Debug, Clone)]
pub struct TrafficTable {
    pub points: Vec<TrafficPoint>,
}

impl TrafficTable {
    /// Render as a markdown table: one row per node count, one column
    /// per regime plus the makespan communication fraction.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| nodes |   total bytes | intra-node | intra-cell | inter-cell | comm % |\n",
        );
        out.push_str("|-------|---------------|------------|------------|------------|--------|\n");
        for p in &self.points {
            out.push_str(&format!(
                "| {:>5} | {:>13} | {:>8.1} % | {:>8.1} % | {:>8.1} % | {:>4.1} % |\n",
                p.nodes,
                p.report.total_bytes(),
                100.0 * p.regime_share(Regime::IntraNode),
                100.0 * p.regime_share(Regime::IntraCell),
                100.0 * p.regime_share(Regime::InterCell),
                100.0 * p.report.makespan.comm_fraction(),
            ));
        }
        out
    }
}

/// The probe workload: per rank, `steps` iterations of a 1D halo
/// exchange with both neighbours (`halo_elems` f64 each way) followed by
/// a 16-element ring allreduce — the skeleton of the stencil and CG
/// codes that dominate the suite.
fn probe(world: &World, halo_elems: usize, steps: usize) -> RunReport {
    let rec = Arc::new(Recorder::new());
    let traced = world.clone().with_recorder(rec.clone());
    traced.run(|comm| {
        let p = comm.size();
        let halo = vec![comm.rank() as f64; halo_elems];
        for _ in 0..steps {
            comm.advance_compute(1e-3);
            if p > 1 {
                let right = (comm.rank() + 1) % p;
                let left = (comm.rank() + p - 1) % p;
                comm.send_f64(right, &halo).unwrap();
                comm.send_f64(left, &halo).unwrap();
                comm.recv_f64(left).unwrap();
                comm.recv_f64(right).unwrap();
            }
            let mut acc = [comm.rank() as f64; 16];
            comm.allreduce_f64(&mut acc, jubench_simmpi::ReduceOp::Sum)
                .unwrap();
        }
    });
    RunReport::from_events(&rec.take_events())
}

/// Build the traffic table over `node_counts` Booster partitions. The
/// per-partition probes are independent (each records into its own
/// [`Recorder`]) and fan across the shared pool; the indexed map keeps
/// the rows in `node_counts` order.
pub fn traffic_table(node_counts: &[u32]) -> TrafficTable {
    let points = jubench_pool::par_map_over(node_counts, |&n| {
        let world = World::new(Machine::juwels_booster().partition(n));
        TrafficPoint {
            nodes: n,
            report: probe(&world, 4096, 4),
        }
    });
    TrafficTable { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_traffic_is_all_intra_node() {
        let t = traffic_table(&[1]);
        let p = &t.points[0];
        assert!(p.report.total_bytes() > 0);
        assert!((p.regime_share(Regime::IntraNode) - 1.0).abs() < 1e-12);
        assert_eq!(p.regime_share(Regime::InterCell), 0.0);
    }

    #[test]
    fn growing_jobs_shift_traffic_off_the_node() {
        let t = traffic_table(&[1, 4]);
        let small = t.points[0].regime_share(Regime::IntraNode);
        let large = t.points[1].regime_share(Regime::IntraNode);
        assert!(
            large < small,
            "intra-node share should shrink: {small} -> {large}"
        );
        assert!(t.points[1].regime_share(Regime::IntraCell) > 0.0);
    }

    #[test]
    fn regime_shares_sum_to_one() {
        for p in traffic_table(&[2]).points {
            let sum: f64 = Regime::ALL.iter().map(|&r| p.regime_share(r)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        }
    }

    #[test]
    fn render_has_one_row_per_node_count() {
        let t = traffic_table(&[1, 2]);
        let s = t.render();
        assert_eq!(s.lines().count(), 4, "header + separator + 2 rows");
        assert!(s.contains("intra-node"));
    }
}
