//! Platform definitions — the `platform.xml` mechanism of §III-B: "By
//! inheriting from system-specific definition files, platform.xml, batch
//! submission templates are populated and independence of the underlying
//! system is achieved."
//!
//! A [`Platform`] is a named parameter set carrying the system-specific
//! defaults (devices per node, batch submission template, module setup); a
//! workflow inherits it, and benchmark-specific definitions override the
//! platform's where they collide.

use crate::params::ParameterSet;
use crate::workflow::Workflow;

/// A system-specific definition file.
#[derive(Debug, Clone)]
pub struct Platform {
    pub name: &'static str,
    pub params: ParameterSet,
}

impl Platform {
    /// JUWELS Booster: 4 GPUs per node, Slurm submission, one task per GPU.
    pub fn juwels_booster() -> Self {
        let mut params = ParameterSet::new();
        params.set("system", "juwels-booster");
        params.set("gpus_per_node", "4");
        params.set("tasks_per_node", "4");
        params.set("partition", "booster");
        params.set("modules", "Stages/2024 GCC CUDA");
        params.set(
            "submit_cmd",
            "sbatch --partition=${partition} --nodes=${nodes} \
             --ntasks-per-node=${tasks_per_node} --gres=gpu:${gpus_per_node} ${script}",
        );
        Platform {
            name: "juwels-booster",
            params,
        }
    }

    /// JUWELS Cluster: CPU nodes, one task per node with OpenMP threads.
    pub fn juwels_cluster() -> Self {
        let mut params = ParameterSet::new();
        params.set("system", "juwels-cluster");
        params.set("gpus_per_node", "0");
        params.set("tasks_per_node", "1");
        params.set("threads_per_task", "48");
        params.set("partition", "batch");
        params.set("modules", "Stages/2024 GCC ParaStationMPI");
        params.set(
            "submit_cmd",
            "sbatch --partition=${partition} --nodes=${nodes} \
             --ntasks-per-node=${tasks_per_node} --cpus-per-task=${threads_per_task} ${script}",
        );
        Platform {
            name: "juwels-cluster",
            params,
        }
    }
}

impl Workflow {
    /// Build a workflow inheriting from a platform: the platform's
    /// definitions come first, so any benchmark-specific definition of the
    /// same parameter overrides them (JUBE's inheritance order).
    pub fn on_platform(platform: &Platform) -> Workflow {
        Workflow::with_params(platform.params.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{output1, Step};

    #[test]
    fn batch_template_is_populated() {
        let mut wf = Workflow::on_platform(&Platform::juwels_booster());
        wf.params.set("nodes", "8");
        wf.params.set("script", "bench.job");
        wf.add_step(Step::new("submit", |ctx| {
            Ok(output1("cmd", ctx.param("submit_cmd").unwrap()))
        }));
        let results = wf.execute(&[]).unwrap();
        assert_eq!(
            results[0].value("cmd"),
            Some(
                "sbatch --partition=booster --nodes=8 --ntasks-per-node=4 \
                 --gres=gpu:4 bench.job"
            )
        );
    }

    #[test]
    fn benchmark_overrides_platform_defaults() {
        // A CPU benchmark on the Booster platform overriding the task
        // layout, as the suite's CPU codes do.
        let mut wf = Workflow::on_platform(&Platform::juwels_booster());
        wf.params.set("tasks_per_node", "1"); // later definition wins
        wf.params.set("nodes", "2");
        wf.params.set("script", "x");
        wf.add_step(Step::new("probe", |ctx| {
            Ok(output1("tpn", ctx.param("tasks_per_node").unwrap()))
        }));
        let results = wf.execute(&[]).unwrap();
        assert_eq!(results[0].value("tpn"), Some("1"));
    }

    #[test]
    fn same_workflow_runs_on_both_modules() {
        // "Independence of the underlying system": identical benchmark
        // parameters, different platforms.
        for (platform, expected_partition) in [
            (Platform::juwels_booster(), "booster"),
            (Platform::juwels_cluster(), "batch"),
        ] {
            let mut wf = Workflow::on_platform(&platform);
            wf.params.set("nodes", "4");
            wf.params.set("script", "bench.job");
            wf.add_step(Step::new("submit", |ctx| {
                Ok(output1("partition", ctx.param("partition").unwrap()))
            }));
            let results = wf.execute(&[]).unwrap();
            assert_eq!(results[0].value("partition"), Some(expected_partition));
        }
    }
}
