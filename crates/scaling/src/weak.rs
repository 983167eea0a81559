//! The Fig. 3 study: "Weak scaling efficiency of the five High-Scaling
//! benchmarks over a wide range of JUWELS Booster node numbers. For JUQCS,
//! two lines are drawn; one for the computation and one for the
//! communication."

use jubench_core::{Benchmark, BenchmarkId, MemoryVariant, RunConfig};

/// The weak-scaling efficiency line of one application.
#[derive(Debug, Clone)]
pub struct Fig3Series {
    pub name: String,
    /// (nodes, efficiency) pairs; efficiency = per-rank time at the
    /// smallest scale divided by per-rank time at this scale.
    pub points: Vec<(u32, f64)>,
    /// (nodes, comm fraction) pairs for the same sweep: the share of the
    /// virtual makespan spent communicating at each scale. Empty for
    /// series without an underlying timed run.
    pub comm_fractions: Vec<(u32, f64)>,
}

impl Fig3Series {
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.name);
        for (i, (n, e)) in self.points.iter().enumerate() {
            out.push_str(&format!("  {n:>5} nodes  efficiency {e:>6.3}"));
            if let Some((_, f)) = self.comm_fractions.get(i) {
                out.push_str(&format!("  comm {:>5.1} %", 100.0 * f));
            }
            out.push('\n');
        }
        out
    }
}

/// The two JUQCS lines of Fig. 3.
pub(crate) const JUQCS_SPLIT_SERIES: [&str; 2] = ["JUQCS (computation)", "JUQCS (communication)"];

/// Node counts of the sweep (powers of two up to the 512-node partition
/// plus the full-partition points used by the non-power-of-two apps).
pub(crate) fn sweep_nodes(bench: &dyn Benchmark) -> Vec<u32> {
    let candidates = [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512, 640, 642];
    candidates
        .into_iter()
        .filter(|&n| bench.validate_nodes(n).is_ok())
        .filter(|&n| {
            bench
                .meta()
                .high_scale
                .map(|h| n <= h.nodes.max(512))
                .unwrap_or(true)
        })
        .collect()
}

/// Build the weak-scaling series of one High-Scaling benchmark. Each
/// point runs the benchmark's memory variant (`variant`) at the node
/// count: the workload fills the partition, so perfect weak scaling means
/// constant runtime.
pub(crate) fn weak_scaling_series(
    bench: &dyn Benchmark,
    variant: MemoryVariant,
    seed: u64,
) -> Fig3Series {
    let nodes = sweep_nodes(bench);
    // Sweep points are independent; the indexed map keeps node order.
    let outcomes = jubench_pool::par_map_over(&nodes, |&n| {
        let cfg = RunConfig {
            seed,
            ..RunConfig::test(n)
        }
        .with_variant(variant);
        bench.run(&cfg).ok().map(|out| (n, out))
    });
    let mut runtimes: Vec<(u32, f64)> = Vec::new();
    let mut comm_fractions: Vec<(u32, f64)> = Vec::new();
    for (n, out) in outcomes.into_iter().flatten() {
        runtimes.push((n, out.virtual_time_s));
        comm_fractions.push((n, out.comm_fraction()));
    }
    let t0 = runtimes.first().map(|&(_, t)| t).unwrap_or(f64::NAN);
    Fig3Series {
        name: bench.meta().id.name().to_string(),
        points: runtimes.into_iter().map(|(n, t)| (n, t0 / t)).collect(),
        comm_fractions,
    }
}

/// Build the two JUQCS lines: the computation efficiency (per-gate local
/// update time) and the communication efficiency (state-exchange time),
/// each normalized to the smallest scale.
pub(crate) fn juqcs_split_series(seed: u64) -> [Fig3Series; 2] {
    let bench = jubench_apps_quantum::Juqcs;
    let nodes = sweep_nodes(&bench);
    let outcomes = jubench_pool::par_map_over(&nodes, |&n| {
        let cfg = RunConfig {
            seed,
            ..RunConfig::test(n)
        }
        .with_variant(MemoryVariant::Small);
        bench.run(&cfg).ok().map(|out| (n, out))
    });
    let mut comp: Vec<(u32, f64)> = Vec::new();
    let mut comm: Vec<(u32, f64)> = Vec::new();
    let mut comm_fractions: Vec<(u32, f64)> = Vec::new();
    for (n, out) in outcomes.into_iter().flatten() {
        comp.push((n, out.compute_time_s));
        comm.push((n, out.comm_time_s));
        let total = out.compute_time_s + out.comm_time_s;
        comm_fractions.push((
            n,
            if total > 0.0 {
                out.comm_time_s / total
            } else {
                0.0
            },
        ));
    }
    let norm = |series: Vec<(u32, f64)>| -> Vec<(u32, f64)> {
        let t0 = series.first().map(|&(_, t)| t).unwrap_or(f64::NAN);
        series.into_iter().map(|(n, t)| (n, t0 / t)).collect()
    };
    [
        Fig3Series {
            name: JUQCS_SPLIT_SERIES[0].into(),
            points: norm(comp),
            comm_fractions: comm_fractions.clone(),
        },
        Fig3Series {
            name: JUQCS_SPLIT_SERIES[1].into(),
            points: norm(comm),
            comm_fractions,
        },
    ]
}

/// All Fig. 3 series: the five applications plus the JUQCS split.
pub fn fig3_all_series(seed: u64) -> Vec<Fig3Series> {
    let r = crate::registry::full_registry();
    let ids = [
        BenchmarkId::Arbor,
        BenchmarkId::ChromaQcd,
        BenchmarkId::NekRs,
        BenchmarkId::PIConGpu,
    ];
    // One application after another, each fanning its node sweep out: a
    // map over the applications would run each sweep sequentially inside
    // its task, since maps do not nest.
    let mut series: Vec<Fig3Series> = ids
        .iter()
        .map(|&id| {
            let bench = r.get(id).unwrap();
            // Use each benchmark's smallest offered variant so every sweep
            // point fits in memory.
            let variant = bench.meta().high_scale.unwrap().variants[0];
            weak_scaling_series(bench, variant, seed)
        })
        .collect();
    series.extend(juqcs_split_series(seed));
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::full_registry;

    #[test]
    fn juqcs_communication_shows_both_paper_drops() {
        // §IV-A2c: "a drop in performance from intra-node to inter-node
        // GPU communication (from 1 to 2 nodes) and another drop when
        // communication enters the large-scale regime at 256 nodes".
        let [comp, comm] = juqcs_split_series(1);
        let eff = |series: &Fig3Series, n: u32| {
            series
                .points
                .iter()
                .find(|&&(m, _)| m == n)
                .map(|&(_, e)| e)
                .unwrap()
        };
        // Computation weak-scales perfectly.
        for &(_, e) in &comp.points {
            assert!(e > 0.95, "computation efficiency {e}");
        }
        // Communication: sharp 1→2 node drop…
        assert!(eff(&comm, 1) == 1.0);
        assert!(
            eff(&comm, 2) < 0.35,
            "first drop missing: {}",
            eff(&comm, 2)
        );
        // …then roughly flat…
        let mid = eff(&comm, 128);
        assert!((eff(&comm, 4) - mid).abs() < 0.2 * eff(&comm, 4).max(mid));
        // …then the large-scale congestion drop at 256+.
        assert!(
            eff(&comm, 512) < 0.75 * mid,
            "second drop missing: {} vs {mid}",
            eff(&comm, 512)
        );
    }

    #[test]
    fn arbor_stays_near_perfect() {
        let r = full_registry();
        let s = weak_scaling_series(r.get(BenchmarkId::Arbor).unwrap(), MemoryVariant::Tiny, 1);
        for &(n, e) in &s.points {
            assert!(e > 0.9, "Arbor efficiency {e} at {n} nodes");
        }
    }

    #[test]
    fn all_five_apps_produce_series() {
        let series = fig3_all_series(1);
        assert_eq!(series.len(), 6, "4 apps + 2 JUQCS lines");
        for s in &series {
            assert!(s.points.len() >= 5, "{} has too few points", s.name);
            assert!(
                (s.points[0].1 - 1.0).abs() < 1e-9,
                "{} not normalized",
                s.name
            );
            assert!(!s.render().is_empty());
        }
    }

    #[test]
    fn efficiencies_stay_physical() {
        for s in fig3_all_series(2) {
            for &(n, e) in &s.points {
                assert!(
                    e > 0.01 && e < 1.2,
                    "{}: efficiency {e} at {n} nodes out of range",
                    s.name
                );
            }
        }
    }
}
