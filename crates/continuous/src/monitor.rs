//! The monitoring loop: measure, compare against baselines, classify.
//!
//! What is compared are the benchmarks' *virtual* runtimes, and the
//! classification is this module's own [`CheckStatus`] band. The suite's
//! wall-clock speed is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use std::collections::{BTreeMap, BTreeSet};

use jubench_core::{Benchmark, BenchmarkId, Registry, RunConfig};
use jubench_faults::FaultPlan;

use crate::baseline::BaselineStore;

/// Classification of one benchmark in a continuous-benchmarking pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than baseline × (1 + tolerance) — the degradation the
    /// monitoring exists to catch.
    Regressed,
    /// Faster than baseline × (1 − tolerance) — also worth flagging (the
    /// system changed, or the baseline is stale).
    Improved,
    /// No baseline recorded for this benchmark.
    MissingBaseline,
    /// The benchmark failed to run or verify.
    Failed,
    /// Slower than tolerance allows, but the run was under an active fault
    /// plan that touches this benchmark — an outlier to attribute to the
    /// injected fault, not a regression to page anyone about.
    FaultSuspect,
}

/// Where a compared number came from: the metric and the run
/// configuration that produced it. Regression triage starts with
/// reproducing the measurement; this is the recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricProvenance {
    /// The [`jubench_core::RunOutcome`] field compared.
    pub metric: &'static str,
    /// Seed of the monitoring run.
    pub seed: u64,
    /// Node count of the monitoring run (`None` when the comparison was
    /// made from a bare measurement map without registry access).
    pub nodes: Option<u32>,
}

impl MetricProvenance {
    /// Compact render for report tables, e.g. `seed 193 @ 8n`.
    pub fn label(&self) -> String {
        match self.nodes {
            Some(n) => format!("seed {} @ {}n", self.seed, n),
            None => format!("seed {}", self.seed),
        }
    }
}

/// One row of a [`RegressionReport`].
#[derive(Debug, Clone)]
pub struct CheckEntry {
    pub id: BenchmarkId,
    pub baseline_s: Option<f64>,
    pub measured_s: Option<f64>,
    pub status: CheckStatus,
    /// How the measured value was obtained.
    pub provenance: MetricProvenance,
}

/// The outcome of one monitoring pass.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    pub entries: Vec<CheckEntry>,
}

impl RegressionReport {
    /// True when no benchmark regressed or failed.
    pub fn healthy(&self) -> bool {
        !self
            .entries
            .iter()
            .any(|e| matches!(e.status, CheckStatus::Regressed | CheckStatus::Failed))
    }

    pub fn regressions(&self) -> Vec<BenchmarkId> {
        self.entries
            .iter()
            .filter(|e| e.status == CheckStatus::Regressed)
            .map(|e| e.id)
            .collect()
    }

    /// Benchmarks that ran slow under an active fault plan — outliers
    /// attributed to injected faults rather than regressions.
    pub fn fault_suspects(&self) -> Vec<BenchmarkId> {
        self.entries
            .iter()
            .filter(|e| e.status == CheckStatus::FaultSuspect)
            .map(|e| e.id)
            .collect()
    }

    /// Render the concise status table the operators would read.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| benchmark        | baseline[s] | measured[s] | status    | run            |\n\
             |------------------|-------------|-------------|-----------|----------------|\n",
        );
        for e in &self.entries {
            let fmt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "| {:<16} | {:>11} | {:>11} | {:<9} | {:<14} |\n",
                e.id.name(),
                fmt(e.baseline_s),
                fmt(e.measured_s),
                match e.status {
                    CheckStatus::Ok => "ok",
                    CheckStatus::Regressed => "REGRESSED",
                    CheckStatus::Improved => "improved",
                    CheckStatus::MissingBaseline => "no-base",
                    CheckStatus::Failed => "FAILED",
                    CheckStatus::FaultSuspect => "fault?",
                },
                e.provenance.label()
            ));
        }
        out
    }
}

/// The continuous-benchmarking driver.
#[derive(Debug, Clone, Copy)]
pub struct Monitor {
    /// Relative deviation from the baseline that still counts as OK
    /// (runtimes on real systems jitter; the virtual times here are
    /// deterministic, so any deviation indicates a model/system change).
    pub tolerance: f64,
    /// Seed of the monitoring runs.
    pub seed: u64,
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor {
            tolerance: 0.05,
            seed: 0xC1,
        }
    }
}

/// The benchmarks a fault plan can touch: every monitored id when the
/// plan carries any fault (the whole simulated runtime shares its links
/// and nodes), none under an empty plan. Feed the result to
/// [`Monitor::compare_with_faults`].
pub fn fault_affected(plan: &FaultPlan, ids: &[BenchmarkId]) -> BTreeSet<BenchmarkId> {
    if plan.is_empty() {
        BTreeSet::new()
    } else {
        ids.iter().copied().collect()
    }
}

/// A valid small node count for monitoring runs of `bench`.
fn monitor_nodes(bench: &dyn Benchmark) -> Option<u32> {
    let preferred = match bench.meta().id {
        BenchmarkId::Ior => 65,
        BenchmarkId::Stream | BenchmarkId::Amber => 1,
        _ => bench.reference_nodes().min(16),
    };
    bench.closest_valid_nodes(preferred)
}

impl Monitor {
    /// Measure the given benchmarks (virtual runtimes); failures yield no
    /// entry in the map.
    pub fn measure(
        &self,
        registry: &Registry,
        ids: &[BenchmarkId],
    ) -> BTreeMap<BenchmarkId, Option<f64>> {
        let mut out = BTreeMap::new();
        for &id in ids {
            let measured = registry.get(id).and_then(|bench| {
                let nodes = monitor_nodes(bench)?;
                let cfg = RunConfig {
                    seed: self.seed,
                    ..RunConfig::test(nodes)
                };
                match bench.run(&cfg) {
                    Ok(res) if res.verification.passed() => Some(res.virtual_time_s),
                    _ => None,
                }
            });
            out.insert(id, measured);
        }
        out
    }

    /// Record fresh baselines for the given benchmarks.
    pub fn record_baselines(&self, registry: &Registry, ids: &[BenchmarkId]) -> BaselineStore {
        let mut store = BaselineStore::new();
        for (id, measured) in self.measure(registry, ids) {
            if let Some(v) = measured {
                store.set(id, v);
            }
        }
        store
    }

    /// The one tolerance band. A measurement stays [`CheckStatus::Ok`]
    /// up to and including `baseline · (1 ± tolerance)`: the edge is the
    /// product, which a caller can compute exactly, not a rounded
    /// quotient. A missing measurement is [`CheckStatus::Failed`] whether
    /// or not there was a baseline: nothing was measured.
    fn status(&self, baseline: Option<f64>, measured: Option<f64>) -> CheckStatus {
        match (baseline, measured) {
            (_, None) => CheckStatus::Failed,
            (None, Some(_)) => CheckStatus::MissingBaseline,
            (Some(b), Some(m)) if m > b * (1.0 + self.tolerance) => CheckStatus::Regressed,
            (Some(b), Some(m)) if m < b * (1.0 - self.tolerance) => CheckStatus::Improved,
            (Some(_), Some(_)) => CheckStatus::Ok,
        }
    }

    /// Compare fresh measurements against the baselines.
    pub fn compare(
        &self,
        baselines: &BaselineStore,
        measurements: &BTreeMap<BenchmarkId, Option<f64>>,
    ) -> RegressionReport {
        let mut entries = Vec::new();
        for (&id, &measured) in measurements {
            let baseline = baselines.get(id);
            let status = self.status(baseline, measured);
            entries.push(CheckEntry {
                id,
                baseline_s: baseline,
                measured_s: measured,
                status,
                provenance: MetricProvenance {
                    metric: "virtual_time_s",
                    seed: self.seed,
                    nodes: None,
                },
            });
        }
        RegressionReport { entries }
    }

    /// Like [`Monitor::compare`], but when the monitoring pass ran under an
    /// active fault plan, entries that would be flagged `Regressed` and
    /// belong to `fault_affected` are classified
    /// [`CheckStatus::FaultSuspect`] instead: the slowdown is an outlier
    /// attributed to the injected fault, not a system regression, and
    /// [`RegressionReport::healthy`] stays true for it.
    pub fn compare_with_faults(
        &self,
        baselines: &BaselineStore,
        measurements: &BTreeMap<BenchmarkId, Option<f64>>,
        fault_affected: &BTreeSet<BenchmarkId>,
    ) -> RegressionReport {
        let mut report = self.compare(baselines, measurements);
        for e in &mut report.entries {
            if e.status == CheckStatus::Regressed && fault_affected.contains(&e.id) {
                e.status = CheckStatus::FaultSuspect;
            }
        }
        report
    }

    /// The full pass: measure the benchmarks present in the baseline store
    /// and compare. With registry access the entries carry full
    /// provenance, including the node count of each monitoring run.
    pub fn check(&self, registry: &Registry, baselines: &BaselineStore) -> RegressionReport {
        let ids: Vec<BenchmarkId> = baselines.iter().map(|(id, _)| id).collect();
        let measurements = self.measure(registry, &ids);
        let mut report = self.compare(baselines, &measurements);
        for e in &mut report.entries {
            e.provenance.nodes = registry.get(e.id).and_then(monitor_nodes);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::BenchmarkId as B;

    #[test]
    fn classification_logic() {
        let monitor = Monitor {
            tolerance: 0.10,
            seed: 1,
        };
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 100.0);
        baselines.set(B::Hpl, 50.0);
        baselines.set(B::NekRs, 20.0);
        let mut measurements = BTreeMap::new();
        measurements.insert(B::Arbor, Some(125.0)); // +25 % → regressed
        measurements.insert(B::Hpl, Some(52.0)); // +4 % → ok
        measurements.insert(B::NekRs, Some(15.0)); // −25 % → improved
        measurements.insert(B::Stream, Some(1.0)); // no baseline
        measurements.insert(B::Juqcs, None); // failed
        let report = monitor.compare(&baselines, &measurements);
        let status = |id: B| report.entries.iter().find(|e| e.id == id).unwrap().status;
        assert_eq!(status(B::Arbor), CheckStatus::Regressed);
        assert_eq!(status(B::Hpl), CheckStatus::Ok);
        assert_eq!(status(B::NekRs), CheckStatus::Improved);
        assert_eq!(status(B::Stream), CheckStatus::MissingBaseline);
        assert_eq!(status(B::Juqcs), CheckStatus::Failed);
        assert!(!report.healthy());
        assert_eq!(report.regressions(), vec![B::Arbor]);
        let rendered = report.render();
        assert!(rendered.contains("REGRESSED") && rendered.contains("no-base"));
        assert!(rendered.contains("seed 1"), "provenance column present");
    }

    /// A measurement of exactly `baseline · (1 ± tolerance)` is still
    /// inside the band.
    #[test]
    fn the_edge_of_the_band_is_ok() {
        let monitor = Monitor {
            tolerance: 0.1,
            seed: 1,
        };
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 1000.0);
        for (measured, expected) in [
            (1100.0, CheckStatus::Ok),
            (900.0, CheckStatus::Ok),
            (1101.0, CheckStatus::Regressed),
            (899.0, CheckStatus::Improved),
        ] {
            let measurements = BTreeMap::from([(B::Arbor, Some(measured))]);
            let report = monitor.compare(&baselines, &measurements);
            assert_eq!(report.entries[0].status, expected, "{measured}");
        }
    }

    #[test]
    fn compare_stamps_metric_provenance() {
        let monitor = Monitor {
            tolerance: 0.05,
            seed: 7,
        };
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 10.0);
        let mut measurements = BTreeMap::new();
        measurements.insert(B::Arbor, Some(10.0));
        let report = monitor.compare(&baselines, &measurements);
        let p = report.entries[0].provenance;
        assert_eq!(p.metric, "virtual_time_s");
        assert_eq!(p.seed, 7);
        assert_eq!(p.nodes, None);
        assert_eq!(p.label(), "seed 7");
        let full = MetricProvenance {
            nodes: Some(8),
            ..p
        };
        assert_eq!(full.label(), "seed 7 @ 8n");
    }

    #[test]
    fn fault_plan_demotes_regressions_to_suspects() {
        let monitor = Monitor {
            tolerance: 0.10,
            seed: 1,
        };
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 100.0);
        baselines.set(B::Hpl, 50.0);
        let mut measurements = BTreeMap::new();
        measurements.insert(B::Arbor, Some(150.0)); // slow, fault-affected
        measurements.insert(B::Hpl, Some(75.0)); // slow, NOT fault-affected
        let plan = FaultPlan::new(9).with_slow_node(0, 4.0);
        let affected = fault_affected(&plan, &[B::Arbor]);
        let report = monitor.compare_with_faults(&baselines, &measurements, &affected);
        let status = |id: B| report.entries.iter().find(|e| e.id == id).unwrap().status;
        assert_eq!(status(B::Arbor), CheckStatus::FaultSuspect);
        assert_eq!(
            status(B::Hpl),
            CheckStatus::Regressed,
            "real regression kept"
        );
        assert_eq!(report.fault_suspects(), vec![B::Arbor]);
        assert_eq!(report.regressions(), vec![B::Hpl]);
        assert!(
            !report.healthy(),
            "the genuine regression still fails the pass"
        );
        assert!(report.render().contains("fault?"));
    }

    #[test]
    fn fault_suspects_alone_keep_the_pass_healthy() {
        let monitor = Monitor::default();
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 100.0);
        let mut measurements = BTreeMap::new();
        measurements.insert(B::Arbor, Some(400.0));
        let plan = FaultPlan::new(9).with_degraded_link(0, 5, 20.0);
        let affected = fault_affected(&plan, &[B::Arbor]);
        let report = monitor.compare_with_faults(&baselines, &measurements, &affected);
        assert!(report.healthy());
        assert!(report.regressions().is_empty());
        assert_eq!(report.fault_suspects(), vec![B::Arbor]);
    }

    #[test]
    fn empty_plan_affects_nothing() {
        let affected = fault_affected(&FaultPlan::new(0), &[B::Arbor, B::Hpl]);
        assert!(affected.is_empty(), "empty plan cannot excuse a regression");
    }

    #[test]
    fn healthy_when_everything_matches() {
        let monitor = Monitor::default();
        let mut baselines = BaselineStore::new();
        baselines.set(B::Arbor, 100.0);
        let mut measurements = BTreeMap::new();
        measurements.insert(B::Arbor, Some(100.0));
        assert!(monitor.compare(&baselines, &measurements).healthy());
    }
}
