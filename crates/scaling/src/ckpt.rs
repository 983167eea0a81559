//! The checkpoint-interval study: what checkpointing buys a campaign
//! under recurring node failures.
//!
//! Runs a fixed synthetic campaign on a Booster partition under
//! [`FaultPlan::periodic_drains`] plans of decreasing MTBF, sweeping the
//! checkpoint interval from "none" through aggressive to lazy. The
//! classic tradeoff appears as data: no checkpoints lose whole attempts
//! to every preemption, a tiny interval drowns in write cost, and the
//! sweet spot sits near the Young/Daly optimum `sqrt(2 C M)` — the
//! table carries both predictions per MTBF so the measured minimum can
//! be read against them.

use jubench_ckpt::{daly_interval, young_interval};
use jubench_cluster::{Machine, NetModel};
use jubench_faults::{FaultPlan, RetryPolicy};
use jubench_sched::{Job, PlacementPolicy, QueuePolicy, Scheduler, SchedulerConfig};
use jubench_trace::RunReport;

/// Compute slowdown of a drained node (the scheduler preempts on the
/// window regardless; the factor only matters to co-simulated MPI runs).
const DRAIN_FACTOR: f64 = 8.0;

/// How long each drained node stays out of service.
const DRAIN_S: f64 = 0.5;

/// One (MTBF, interval) cell of the sweep.
#[derive(Debug, Clone)]
pub struct CkptPoint {
    /// Mean time between node failures of the fault plan.
    pub mtbf_s: f64,
    /// Checkpoint interval; `None` ran without checkpointing.
    pub interval_s: Option<f64>,
    /// Campaign makespan under the plan, seconds.
    pub makespan_s: f64,
    /// `makespan_s` over the fault-free, checkpoint-free baseline.
    pub inflation: f64,
    /// Checkpoint writes across the campaign.
    pub writes: u64,
    /// Restores from banked progress across the campaign.
    pub restores: u64,
    /// Work discarded at preemptions of checkpointing jobs, seconds.
    pub lost_work_s: f64,
    /// Checkpoint write time over the campaign makespan.
    pub overhead: f64,
    /// Jobs that ran to completion.
    pub finished: usize,
}

/// The checkpoint interval × failure rate sweep over one campaign.
#[derive(Debug, Clone)]
pub struct CkptTable {
    pub nodes: u32,
    /// Wall time of one checkpoint write.
    pub cost_s: f64,
    /// Fault-free, checkpoint-free makespan (every inflation's
    /// denominator).
    pub baseline_s: f64,
    /// Rows in `mtbfs`-major, `intervals`-minor order.
    pub points: Vec<CkptPoint>,
}

impl CkptTable {
    /// Render as a markdown table, one row per (MTBF, interval) cell,
    /// with the Young/Daly optimal-interval predictions per MTBF.
    pub fn render(&self) -> String {
        let mut out = format!(
            "baseline: {:.6} s on {} nodes (write cost {} s)\n",
            self.baseline_s, self.nodes, self.cost_s
        );
        let mut mtbfs: Vec<f64> = self.points.iter().map(|p| p.mtbf_s).collect();
        mtbfs.dedup();
        for m in &mtbfs {
            out.push_str(&format!(
                "mtbf {m} s: young {:.3} s, daly {:.3} s\n",
                young_interval(self.cost_s, *m),
                daly_interval(self.cost_s, *m),
            ));
        }
        out.push('\n');
        out.push_str(
            "| mtbf[s] | interval[s] | makespan[s] | inflation | writes | restores | lost[s]  | overhead |\n",
        );
        out.push_str(
            "|---------|-------------|-------------|-----------|--------|----------|----------|----------|\n",
        );
        for p in &self.points {
            let interval = match p.interval_s {
                Some(i) => format!("{i:>11.3}"),
                None => format!("{:>11}", "-"),
            };
            out.push_str(&format!(
                "| {:>7.1} | {interval} | {:>11.6} | {:>7.3} x | {:>6} | {:>8} | {:>8.4} | {:>7.3}% |\n",
                p.mtbf_s,
                p.makespan_s,
                p.inflation,
                p.writes,
                p.restores,
                p.lost_work_s,
                100.0 * p.overhead,
            ));
        }
        out
    }
}

/// The study campaign: enough jobs to keep the partition busy, generous
/// retry budgets so preemptions thrash instead of failing — exactly the
/// regime where checkpointing earns its keep.
fn study_jobs(nodes: u32, ckpt: Option<(f64, f64)>) -> Vec<Job> {
    let per_job = (nodes / 4).max(1);
    (0..6u32)
        .map(|i| {
            let mut j = Job::new(i, &format!("ckpt-probe-{i}"), per_job, 4.0 + 0.5 * i as f64)
                .with_comm_fraction(0.3)
                .with_submit(0.1 * i as f64)
                .with_retry(RetryPolicy::new(64, 0.01).with_multiplier(1.0));
            if let Some((interval_s, cost_s)) = ckpt {
                j = j.with_checkpointing(interval_s, cost_s);
            }
            j
        })
        .collect()
}

fn campaign_makespan(nodes: u32, jobs: &[Job], plan: &FaultPlan, seed: u64) -> (f64, RunReport) {
    let sched = Scheduler::new(
        Machine::juwels_booster().partition(nodes),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            seed,
        ),
    );
    let schedule = sched.run(jobs, plan);
    let report = RunReport::from_events(&schedule.events());
    (schedule.makespan_s, report)
}

/// Sweep `intervals` (with `None` as the no-checkpoint control) under
/// [`FaultPlan::periodic_drains`] plans at each MTBF in `mtbfs`, all on
/// a `nodes`-node Booster partition with write cost `cost_s`. Fault
/// generation covers 25 × the fault-free baseline, far past any
/// measured makespan. Identical arguments reproduce identical tables.
pub fn ckpt_table(
    nodes: u32,
    cost_s: f64,
    intervals: &[Option<f64>],
    mtbfs: &[f64],
    seed: u64,
) -> CkptTable {
    assert!(cost_s > 0.0, "a free checkpoint makes the tradeoff vacuous");
    let (baseline_s, _) =
        campaign_makespan(nodes, &study_jobs(nodes, None), &FaultPlan::new(seed), seed);
    let horizon_s = baseline_s * 25.0;
    let cells: Vec<(f64, Option<f64>)> = mtbfs
        .iter()
        .flat_map(|&m| intervals.iter().map(move |&i| (m, i)))
        .collect();
    let points = jubench_pool::par_map_over(&cells, |&(mtbf_s, interval_s)| {
        let plan =
            FaultPlan::periodic_drains(seed, nodes, mtbf_s, DRAIN_S, horizon_s, DRAIN_FACTOR);
        let jobs = study_jobs(nodes, interval_s.map(|i| (i, cost_s)));
        let (makespan_s, report) = campaign_makespan(nodes, &jobs, &plan, seed);
        CkptPoint {
            mtbf_s,
            interval_s,
            makespan_s,
            inflation: makespan_s / baseline_s,
            writes: report.ckpt.writes,
            restores: report.ckpt.restores,
            lost_work_s: report.ckpt.lost_work_s,
            overhead: report.ckpt.overhead_fraction(report.total_makespan_s()),
            finished: report.sched.finished as usize,
        }
    });
    CkptTable {
        nodes,
        cost_s,
        baseline_s,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_control_reproduces_the_baseline() {
        // An MTBF past the horizon yields an empty plan: the no-ckpt row
        // is the baseline bit-for-bit, and checkpointing only adds its
        // write overhead.
        let t = ckpt_table(8, 0.05, &[None, Some(1.0)], &[1e6], 3);
        assert_eq!(t.points[0].makespan_s, t.baseline_s);
        assert_eq!(t.points[0].inflation, 1.0);
        assert_eq!(t.points[0].writes, 0);
        assert!(t.points[1].makespan_s > t.baseline_s);
        assert!(t.points[1].writes > 0);
        assert_eq!(
            t.points[1].restores, 0,
            "nothing preempted, nothing resumed"
        );
        assert_eq!(t.points[1].lost_work_s, 0.0);
    }

    #[test]
    fn near_optimal_interval_beats_both_extremes() {
        let cost = 0.05;
        let mtbf = 6.0;
        let young = young_interval(cost, mtbf);
        let t = ckpt_table(8, cost, &[None, Some(cost), Some(young)], &[mtbf], 3);
        let by = |i: Option<f64>| {
            t.points
                .iter()
                .find(|p| p.interval_s == i)
                .unwrap_or_else(|| panic!("missing row {i:?}"))
        };
        let none = by(None);
        let tiny = by(Some(cost));
        let best = by(Some(young));
        assert!(none.inflation > 1.0, "drains must hurt: {}", none.inflation);
        assert!(
            best.makespan_s < none.makespan_s,
            "young {} !< none {}",
            best.makespan_s,
            none.makespan_s
        );
        assert!(
            best.makespan_s < tiny.makespan_s,
            "young {} !< tiny {}",
            best.makespan_s,
            tiny.makespan_s
        );
        assert!(best.restores > 0, "banked progress must get used");
        assert!(
            tiny.overhead > best.overhead,
            "interval = cost doubles the write tax"
        );
        let fastest = t
            .points
            .iter()
            .filter(|p| p.mtbf_s == mtbf)
            .min_by(|a, b| a.makespan_s.total_cmp(&b.makespan_s))
            .unwrap();
        assert_eq!(fastest.interval_s, Some(young));
    }

    #[test]
    fn every_cell_finishes_the_campaign() {
        let t = ckpt_table(8, 0.05, &[None, Some(0.8)], &[6.0, 12.0], 3);
        assert_eq!(t.points.len(), 4);
        for p in &t.points {
            assert_eq!(
                p.finished, 6,
                "mtbf={} interval={:?}",
                p.mtbf_s, p.interval_s
            );
        }
    }

    #[test]
    fn sweep_is_reproducible() {
        let a = ckpt_table(8, 0.05, &[Some(0.8)], &[6.0], 9);
        let b = ckpt_table(8, 0.05, &[Some(0.8)], &[6.0], 9);
        assert_eq!(a.baseline_s, b.baseline_s);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.makespan_s, y.makespan_s);
            assert_eq!(x.writes, y.writes);
            assert_eq!(x.lost_work_s, y.lost_work_s);
        }
    }

    #[test]
    fn render_has_one_row_per_cell_and_the_optima() {
        let t = ckpt_table(8, 0.05, &[None, Some(0.8)], &[6.0], 3);
        let s = t.render();
        assert!(s.contains("young"));
        assert!(s.contains("daly"));
        assert!(s.contains("overhead"));
        // Header block (baseline + 1 MTBF line + blank + 2 table header
        // lines) plus one row per point.
        assert_eq!(s.lines().count(), 5 + t.points.len());
    }
}
