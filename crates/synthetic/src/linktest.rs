//! LinkTest: point-to-point connection testing; the suite uses the
//! **bisection test** — processes split into two halves exchange 16 MiB
//! messages bidirectionally, and the FOM is the minimum bisection
//! bandwidth (§IV-B).

use crate::nothing_executed;
use jubench_apps_common::layout_serial;
use jubench_cluster::{Machine, NetModel, Placement, Topology};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_simmpi::ClockStats;

/// "To achieve optimal bandwidth, the message size is set to 16 MiB."
pub(crate) const MESSAGE_BYTES: u64 = 16 << 20;

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
    fn aggregate_grows_with_machine() {
        let (_, small) = LinkTest::model(Machine::juwels_booster().partition(96));
        let (_, large) = LinkTest::model(Machine::juwels_booster());
        assert!(large > small);
    }
}
