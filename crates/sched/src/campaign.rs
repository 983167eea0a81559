//! The campaign runner: the full suite as a batch of jobs.
//!
//! The paper's reference numbers came from running the 23 benchmarks as
//! campaigns of SLURM jobs on JUWELS Booster (§II-C). This module turns
//! the suite [`Registry`] into a job set — one job per benchmark at its
//! reference node count, cost taken from an actual virtual-time run —
//! and schedules the whole acceptance-style campaign on a machine.
//! Priorities mirror the suite's structure: High-Scaling candidates
//! outrank Base benchmarks, which outrank the synthetics.

use jubench_cluster::{Machine, NetModel};
use jubench_core::{Category, Registry, RunConfig};
use jubench_faults::FaultPlan;

use crate::job::Job;
use crate::scheduler::{Schedule, Scheduler, SchedulerConfig};

/// Queue priority of a benchmark category in a campaign.
pub fn category_priority(category: Category) -> i32 {
    match category {
        Category::HighScaling => 2,
        Category::Base => 1,
        Category::Synthetic => 0,
    }
}

/// The campaign job of measured run `i`: `virtual_time_s` of service on
/// `nodes` nodes (floored at a nanosecond — a job must take time),
/// submitted `i * spacing_s` into the campaign. The arrival is multiplied
/// per index, never accumulated.
pub fn measured_job(
    i: usize,
    name: &str,
    nodes: u32,
    virtual_time_s: f64,
    comm_fraction: f64,
    priority: i32,
    spacing_s: f64,
) -> Job {
    Job::new(i as u32, name, nodes, virtual_time_s.max(1e-9))
        .with_comm_fraction(comm_fraction)
        .with_priority(priority)
        .with_submit(i as f64 * spacing_s)
}

/// Derive one job per registry benchmark: node count from
/// `reference_nodes()`, service time and communication fraction from a
/// test-scale virtual-time run, submissions `spacing_s` apart in
/// registry (id) order. Deterministic: same registry ⇒ same job set.
pub fn registry_jobs(registry: &Registry, spacing_s: f64) -> Vec<Job> {
    // The probe runs are independent virtual-time executions, so they fan
    // across the shared pool; the indexed map keeps the jobs in registry
    // (id) order, which fixes job ids and submit times.
    let benches: Vec<&dyn jubench_core::Benchmark> = registry.iter().collect();
    jubench_pool::par_map_indexed(benches.len(), |i| {
        let bench = benches[i];
        let meta = bench.meta();
        let nodes = bench.reference_nodes();
        let outcome = bench
            .run(&RunConfig::test(nodes))
            .unwrap_or_else(|e| panic!("campaign probe of {} failed: {e:?}", meta.id.name()));
        measured_job(
            i,
            meta.id.name(),
            nodes,
            outcome.virtual_time_s,
            outcome.comm_fraction(),
            category_priority(meta.category),
            spacing_s,
        )
    })
}

/// Schedule `jobs` on `machine` under `plan`.
pub fn run_campaign(
    machine: Machine,
    net: NetModel,
    config: SchedulerConfig,
    jobs: &[Job],
    plan: &FaultPlan,
) -> Schedule {
    Scheduler::new(machine, net, config).run(jobs, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;
    use crate::scheduler::QueuePolicy;
    use jubench_core::{
        Benchmark, BenchmarkId, BenchmarkMeta, RealLayout, RealTrack, RealWorld, RunOutcome,
        SuiteError,
    };

    struct Fake(BenchmarkId, f64);

    impl Benchmark for Fake {
        fn meta(&self) -> BenchmarkMeta {
            self.0.meta()
        }
        fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
            Ok(RealLayout::new(cfg, RealWorld::Serial))
        }
        fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
            Ok(RealTrack {
                verification: jubench_core::VerificationOutcome::Exact { checked_values: 0 },
                metrics: vec![],
            })
        }
        fn cost(&self, _cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
            RunOutcome {
                fom: jubench_core::Fom::RuntimeSeconds(self.1),
                virtual_time_s: self.1,
                compute_time_s: self.1 * 0.7,
                comm_time_s: self.1 * 0.3,
                verification: track.verification.clone(),
                metrics: vec![],
            }
        }
    }

    fn small_registry() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(Fake(BenchmarkId::Amber, 2.0)));
        r.register(Box::new(Fake(BenchmarkId::Juqcs, 1.0)));
        r.register(Box::new(Fake(BenchmarkId::Hpl, 0.5)));
        r
    }

    #[test]
    fn category_priorities_are_ordered() {
        assert!(category_priority(Category::HighScaling) > category_priority(Category::Base));
        assert!(category_priority(Category::Base) > category_priority(Category::Synthetic));
    }

    #[test]
    fn registry_jobs_carry_cost_and_priority() {
        let jobs = registry_jobs(&small_registry(), 0.5);
        assert_eq!(jobs.len(), 3);
        // Registry iterates in id order; ids index the jobs.
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u32);
            assert_eq!(j.submit_s, i as f64 * 0.5);
            assert!(j.service_s > 0.0);
            assert!((0.0..=1.0).contains(&j.comm_fraction));
            assert!((j.comm_fraction - 0.3).abs() < 1e-9);
        }
        // Juqcs is High-Scaling, Amber is Base, HPL is synthetic.
        let by_name = |n: &str| jobs.iter().find(|j| j.name == n).unwrap();
        assert_eq!(by_name("JUQCS").priority, 2);
        assert_eq!(by_name("Amber").priority, 1);
        assert_eq!(by_name("HPL").priority, 0);
    }

    #[test]
    fn campaign_schedules_every_job() {
        let jobs = registry_jobs(&small_registry(), 0.1);
        let schedule = run_campaign(
            Machine::juwels_booster().partition(96),
            NetModel::juwels_booster(),
            SchedulerConfig::new(
                QueuePolicy::ConservativeBackfill,
                PlacementPolicy::Contiguous,
                11,
            ),
            &jobs,
            &FaultPlan::new(0),
        );
        assert_eq!(schedule.finished(), 3);
        assert!(schedule.makespan_s > 0.0);
        assert!(schedule.utilization() > 0.0);
    }

    #[test]
    fn registry_jobs_are_deterministic() {
        let a = registry_jobs(&small_registry(), 0.5);
        let b = registry_jobs(&small_registry(), 0.5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.service_s, y.service_s);
            assert_eq!(x.comm_fraction, y.comm_fraction);
        }
    }
}
