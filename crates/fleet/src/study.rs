//! The fleet study runner: the full benchmark registry executed across
//! every catalog backend, normalized into procurement-grade tables.
//!
//! For each backend the study builds one campaign (every registry
//! benchmark at its reference node count, Test scale, one shared seed),
//! submits it to a [`jubench_serve::Server`], and drives all campaigns
//! with the dedicated-thread parallel drain — so the fleet study
//! exercises the same pool / scheduler / serve machinery as any tenant,
//! and inherits the serve determinism contract: identical tables at any
//! `JUBENCH_POOL_THREADS`, warm or cold cache.
//!
//! The raw per-benchmark virtual runtimes are then condensed into:
//!
//! - a **FOM table** of runtimes and speedups over the reference
//!   backend (catalog entry 0),
//! - a HEPScore-style **composite score** per backend (weighted
//!   geometric mean of the speedups — see
//!   [`jubench_procurement::CompositeScore`]),
//! - a **value table**: TCO of the full backend, energy-to-solution of
//!   one suite pass, and the §II value-for-money metric (suite passes
//!   per million EUR of TCO, throughput-normalized by node-seconds),
//! - the **1 EFLOP/s extrapolation**: how many of the backend's nodes a
//!   JUPITER-style High-Scaling sub-partition needs, whether the
//!   backend is big enough, and what that sub-partition draws.

use std::collections::BTreeMap;

use jubench_cluster::Machine;
use jubench_core::Registry;
use jubench_metrics::counter_add;
use jubench_procurement::{
    energy_to_solution_j, exascale_partition_nodes, CompositeScore, ScoreItem, TcoModel,
};
use jubench_serve::{CampaignSpec, Frame, RunPoint, Server};

use crate::catalog::MachineModel;

/// One benchmark execution inside a fleet study.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Benchmark name.
    pub bench: String,
    /// Partition size the point ran on.
    pub nodes: u32,
    /// Deterministic modeled runtime, seconds.
    pub runtime_s: f64,
    /// Energy-to-solution of the point on this backend, joules.
    pub energy_j: f64,
}

/// Everything the study learned about one backend.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// The catalog entry.
    pub model: MachineModel,
    /// Shard the backend's campaign routed to.
    pub shard: u32,
    /// Per-benchmark runs, in registry (suite table) order.
    pub runs: Vec<BenchRun>,
    /// HEPScore-style composite: weighted geometric mean of speedups
    /// over the reference backend (reference scores exactly 1.0).
    pub composite: CompositeScore,
    /// Full-machine TCO over the backend's own horizon, EUR.
    pub tco_eur: f64,
    /// Energy of one suite pass (sum over benchmarks), joules.
    pub suite_energy_j: f64,
    /// Node-seconds one suite pass consumes on this backend.
    pub suite_node_seconds: f64,
    /// Value-for-money: suite passes per million EUR of TCO, assuming
    /// the machine runs reference-sized partitions back to back.
    pub passes_per_million_eur: f64,
    /// Nodes of this backend needed for a 1 EFLOP/s(th) sub-partition.
    pub exascale_nodes: u32,
    /// Whether the backend has that many nodes at all.
    pub exascale_fits: bool,
    /// IT power of the 1 EFLOP/s sub-partition, megawatts.
    pub exascale_power_mw: f64,
}

/// The rendered-and-raw outcome of a fleet study.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One report per catalog entry, in catalog order; entry 0 is the
    /// reference backend.
    pub backends: Vec<BackendReport>,
}

/// The fleet study: a catalog plus the serve-layer knobs.
#[derive(Debug, Clone)]
pub struct FleetStudy {
    /// Backends to evaluate. Entry 0 is the normalization reference.
    pub catalog: Vec<MachineModel>,
    /// Shared workload seed for every run point.
    pub seed: u64,
    /// Worker shards of the embedded campaign service.
    pub n_shards: usize,
    /// Result-cache capacity per shard.
    pub cache_capacity: usize,
}

impl FleetStudy {
    /// The standard study: the four-backend catalog on a 4-shard
    /// service with a roomy cache.
    pub fn standard() -> Self {
        FleetStudy {
            catalog: crate::catalog::standard_catalog(),
            seed: 2024,
            n_shards: 4,
            cache_capacity: 1024,
        }
    }

    /// Execute the study over `registry` on a fresh campaign service.
    /// Returns the report or the first rejection/verification failure.
    pub fn run(&self, registry: &Registry) -> Result<FleetReport, String> {
        let mut server = Server::new(self.n_shards, self.cache_capacity);
        self.run_on(&mut server, registry)
    }

    /// Execute the study on an existing [`Server`] — re-running a study
    /// on the same service answers unchanged points from the warm
    /// result cache without changing a byte of the report.
    pub fn run_on(&self, server: &mut Server, registry: &Registry) -> Result<FleetReport, String> {
        if self.catalog.is_empty() {
            return Err("fleet study needs at least one backend".into());
        }
        // Every campaign spans a partition big enough for the largest
        // reference point, on every backend — same points everywhere.
        let spec_nodes = registry
            .iter()
            .map(|b| b.reference_nodes())
            .max()
            .ok_or("fleet study needs a non-empty registry")?;

        let mut campaign_backend: BTreeMap<u64, usize> = BTreeMap::new();
        let mut shards = Vec::with_capacity(self.catalog.len());
        for (i, model) in self.catalog.iter().enumerate() {
            if model.machine.nodes < spec_nodes {
                return Err(format!(
                    "backend `{}` has {} nodes, fewer than the {}-node reference partition",
                    model.key, model.machine.nodes, spec_nodes
                ));
            }
            let mut spec = CampaignSpec::new("fleet", model.key, spec_nodes, self.seed)
                .with_backend(model.machine);
            for bench in registry.iter() {
                spec = spec.with_point(RunPoint::test(
                    bench.meta().id.name(),
                    bench.reference_nodes(),
                    self.seed,
                ));
            }
            let (campaign, shard) = server
                .submit(i as u64, spec, registry)
                .map_err(|r| r.to_string())?;
            campaign_backend.insert(campaign, i);
            shards.push(shard);
            counter_add("fleet/campaigns_submitted", 1);
        }
        counter_add("fleet/backends_evaluated", self.catalog.len() as u64);

        // Drive every shard on its own dedicated pool rank — the same
        // parallel drain any serve deployment uses.
        let emits = server.drain_parallel(registry).map_err(|e| e.to_string())?;

        // index → run, per backend; the scheduler may finish points out
        // of order, the BTreeMap restores suite order.
        let mut rows: Vec<BTreeMap<u32, BenchRun>> = vec![BTreeMap::new(); self.catalog.len()];
        for emit in &emits {
            if let Frame::Row {
                campaign,
                index,
                cells,
            } = &emit.frame
            {
                let backend = campaign_backend[campaign];
                if cells[7] != "pass" {
                    return Err(format!(
                        "backend `{}`: benchmark {} failed verification",
                        self.catalog[backend].key, cells[0]
                    ));
                }
                let nodes: u32 = cells[1].parse().map_err(|_| "bad nodes cell")?;
                let runtime_s: f64 = cells[5].parse().map_err(|_| "bad runtime cell")?;
                let partition = self.catalog[backend].machine.partition(nodes);
                rows[backend].insert(
                    *index,
                    BenchRun {
                        bench: cells[0].clone(),
                        nodes,
                        runtime_s,
                        energy_j: energy_to_solution_j(&partition, runtime_s),
                    },
                );
            }
        }

        let reference: Vec<BenchRun> = rows[0].values().cloned().collect();
        if reference.len() != registry.len() {
            return Err(format!(
                "reference backend produced {} rows for {} benchmarks",
                reference.len(),
                registry.len()
            ));
        }
        counter_add(
            "fleet/points_total",
            (registry.len() * self.catalog.len()) as u64,
        );

        let mut backends = Vec::with_capacity(self.catalog.len());
        for (i, model) in self.catalog.iter().enumerate() {
            let runs: Vec<BenchRun> = rows[i].values().cloned().collect();
            if runs.len() != reference.len() {
                return Err(format!(
                    "backend `{}` produced {} rows for {} benchmarks",
                    model.key,
                    runs.len(),
                    reference.len()
                ));
            }
            let items: Vec<ScoreItem> = runs
                .iter()
                .zip(&reference)
                .map(|(run, base)| ScoreItem {
                    name: run.bench.clone(),
                    speedup: base.runtime_s / run.runtime_s,
                    weight: 1.0,
                })
                .collect();
            let composite = CompositeScore::build(items)
                .ok_or_else(|| format!("backend `{}`: degenerate speedups", model.key))?;

            let tco = TcoModel::for_machine(&model.machine).evaluate(&model.machine);
            let suite_node_seconds: f64 = runs.iter().map(|r| r.runtime_s * r.nodes as f64).sum();
            // Throughput-normalize: the machine runs reference-sized
            // partitions back to back, so one pass effectively costs
            // node-seconds / nodes wall seconds of the whole machine.
            let seconds_per_pass = suite_node_seconds / model.machine.nodes as f64;
            let passes_per_million_eur = tco.workloads_per_million_eur(seconds_per_pass);

            let exascale_nodes = exascale_partition_nodes(&model.machine);
            backends.push(BackendReport {
                model: model.clone(),
                shard: shards[i],
                runs,
                composite,
                tco_eur: tco.total_eur,
                suite_energy_j: rows[i].values().map(|r| r.energy_j).sum(),
                suite_node_seconds,
                passes_per_million_eur,
                exascale_nodes,
                exascale_fits: exascale_nodes <= model.machine.nodes,
                exascale_power_mw: exascale_nodes as f64 * model.machine.node.power_w / 1.0e6,
            });
        }
        Ok(FleetReport { backends })
    }
}

impl FleetReport {
    /// The reference backend (catalog entry 0).
    pub fn reference(&self) -> &BackendReport {
        &self.backends[0]
    }

    /// Backend keys ranked by composite score, best first; ties break
    /// by catalog order (stable sort).
    pub fn ranking(&self) -> Vec<&str> {
        let mut order: Vec<&BackendReport> = self.backends.iter().collect();
        order.sort_by(|a, b| {
            b.composite
                .score
                .partial_cmp(&a.composite.score)
                .expect("composite scores are finite")
        });
        order.iter().map(|b| b.model.key).collect()
    }

    /// Per-benchmark runtimes and speedups over the reference backend.
    pub(crate) fn fom_table(&self) -> String {
        let mut out = String::new();
        out.push_str("benchmark            ");
        for b in &self.backends {
            out.push_str(&format!("| {:>21} ", b.model.key));
        }
        out.push('\n');
        let reference = &self.backends[0].runs;
        for (row, base) in reference.iter().enumerate() {
            out.push_str(&format!("{:<21}", base.bench));
            for b in &self.backends {
                let run = &b.runs[row];
                out.push_str(&format!(
                    "| {:>10.3}s {:>7.3}x ",
                    run.runtime_s,
                    base.runtime_s / run.runtime_s
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Economics per backend: TCO, suite energy, value-for-money, and
    /// the 1 EFLOP/s sub-partition extrapolation.
    pub(crate) fn value_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "backend    nodes     TCO[M EUR]  pass[kWh]  passes/M-EUR  exa-nodes  exa-MW  fits\n",
        );
        for b in &self.backends {
            out.push_str(&format!(
                "{:<10} {:>6} {:>13.2} {:>10.3} {:>13.1} {:>10} {:>7.2}  {}\n",
                b.model.key,
                b.model.machine.nodes,
                b.tco_eur / 1.0e6,
                b.suite_energy_j / 3.6e6,
                b.passes_per_million_eur,
                b.exascale_nodes,
                b.exascale_power_mw,
                if b.exascale_fits { "yes" } else { "no" },
            ));
        }
        out
    }

    /// Composite scores, best backend first.
    pub(crate) fn composite_table(&self) -> String {
        let mut order: Vec<&BackendReport> = self.backends.iter().collect();
        order.sort_by(|a, b| {
            b.composite
                .score
                .partial_cmp(&a.composite.score)
                .expect("composite scores are finite")
        });
        let mut out = String::new();
        out.push_str("rank  backend    composite  benchmarks\n");
        for (rank, b) in order.iter().enumerate() {
            out.push_str(&format!(
                "{:>4}  {:<10} {:>9.4} {:>11}\n",
                rank + 1,
                b.model.key,
                b.composite.score,
                b.composite.items.len(),
            ));
        }
        out
    }

    /// The full deterministic report: FOM, composite, and value tables.
    pub fn render(&self) -> String {
        format!(
            "== fleet study: {} backends, {} benchmarks, reference `{}` ==\n\n\
             -- per-benchmark FOMs (runtime, speedup over reference) --\n{}\n\
             -- composite score (weighted geometric mean of speedups) --\n{}\n\
             -- value for money and 1 EFLOP/s extrapolation --\n{}",
            self.backends.len(),
            self.backends[0].runs.len(),
            self.backends[0].model.key,
            self.fom_table(),
            self.composite_table(),
            self.value_table(),
        )
    }
}

/// Convenience: partition economics of an arbitrary machine, used by
/// the example to show sub-partition pricing.
pub fn partition_tco_eur(machine: &Machine, nodes: u32) -> f64 {
    let partition = machine.partition(nodes);
    TcoModel::for_machine(&partition)
        .evaluate(&partition)
        .total_eur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::standard_catalog;
    use jubench_scaling::full_registry;

    fn small_study() -> FleetStudy {
        FleetStudy {
            catalog: standard_catalog(),
            seed: 7,
            n_shards: 3,
            cache_capacity: 512,
        }
    }

    #[test]
    fn study_runs_the_full_registry_on_every_backend() {
        let registry = full_registry();
        let report = small_study().run(&registry).unwrap();
        assert_eq!(report.backends.len(), 4);
        for b in &report.backends {
            assert_eq!(b.runs.len(), registry.len());
            assert!(b.runs.iter().all(|r| r.runtime_s > 0.0 && r.energy_j > 0.0));
            assert!(b.tco_eur > 0.0);
            assert!(b.passes_per_million_eur > 0.0);
            assert!(b.exascale_nodes > 0);
        }
    }

    #[test]
    fn reference_backend_scores_exactly_one() {
        let registry = full_registry();
        let report = small_study().run(&registry).unwrap();
        let score = report.reference().composite.score;
        assert!((score - 1.0).abs() < 1e-12, "reference composite {score}");
        for item in &report.reference().composite.items {
            assert_eq!(item.speedup, 1.0, "{}", item.name);
        }
    }

    #[test]
    fn nextgen_outranks_the_baseline_and_cpu_trails() {
        let registry = full_registry();
        let report = small_study().run(&registry).unwrap();
        let ranking = report.ranking();
        let pos = |k: &str| ranking.iter().position(|&r| r == k).unwrap();
        assert!(pos("nextgen") < pos("booster"), "ranking {ranking:?}");
        assert_eq!(ranking.last(), Some(&"cpu"), "ranking {ranking:?}");
    }

    #[test]
    fn report_is_identical_across_repeat_runs_and_shard_counts() {
        let registry = full_registry();
        let a = small_study().run(&registry).unwrap().render();
        let b = small_study().run(&registry).unwrap().render();
        assert_eq!(a, b);
        let mut wide = small_study();
        wide.n_shards = 1;
        let c = wide.run(&registry).unwrap().render();
        assert_eq!(a, c, "shard count leaked into the report");
    }

    #[test]
    fn render_mentions_every_backend_and_benchmark() {
        let registry = full_registry();
        let report = small_study().run(&registry).unwrap();
        let text = report.render();
        for key in ["booster", "cpu", "nextgen", "cloud"] {
            assert!(text.contains(key), "missing {key}");
        }
        for bench in registry.iter() {
            assert!(
                text.contains(bench.meta().id.name()),
                "missing {}",
                bench.meta().id.name()
            );
        }
    }

    #[test]
    fn partition_tco_scales_with_nodes() {
        let m = standard_catalog()[0].machine;
        let small = partition_tco_eur(&m, 10);
        let large = partition_tco_eur(&m, 100);
        assert!((large / small - 10.0).abs() < 1e-9);
    }
}
