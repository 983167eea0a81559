//! The Fig. 2 study: strong scaling of the Base applications around their
//! reference node counts.
//!
//! "Shown at (1,1) is the execution on the reference number of nodes with
//! the reference runtime [...] Beyond the reference execution,
//! strong-scaled relative runtimes (with respect to the reference runtime)
//! on the surrounding number of nodes are given (usually 0.5×, 0.75×,
//! 1.5×, and 2× the reference; some benchmarks deviate)."

use jubench_core::{benchmark::strong_scaling_points, Benchmark, RunConfig};

/// One point of a Fig. 2 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    pub nodes: u32,
    /// nodes / reference_nodes.
    pub relative_nodes: f64,
    pub runtime_s: f64,
    /// runtime / reference_runtime.
    pub relative_runtime: f64,
    /// Fraction of the virtual makespan spent communicating — the
    /// quantity that explains why the curve bends away from ideal.
    pub comm_fraction: f64,
}

/// One Base application's strong-scaling series.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    pub name: &'static str,
    pub reference_nodes: u32,
    pub reference_runtime_s: f64,
    pub points: Vec<Fig2Point>,
}

impl Fig2Series {
    /// Render as the rows the figure plots.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} (reference: {} nodes, {:.1} s)\n",
            self.name, self.reference_nodes, self.reference_runtime_s
        );
        for p in &self.points {
            out.push_str(&format!(
                "  {:>5} nodes  ({:>4.2}x)  {:>10.1} s  ({:>4.2}x)  comm {:>5.1} %\n",
                p.nodes,
                p.relative_nodes,
                p.runtime_s,
                p.relative_runtime,
                100.0 * p.comm_fraction
            ));
        }
        out
    }
}

/// Produce the strong-scaling series of one benchmark, using its
/// reference node count and the surrounding multipliers.
pub fn strong_scaling_series(bench: &dyn Benchmark, seed: u64) -> Fig2Series {
    let reference_nodes = bench.reference_nodes();
    let mut nodes: Vec<u32> = strong_scaling_points(reference_nodes)
        .into_iter()
        .filter_map(|n| bench.closest_valid_nodes(n))
        .collect();
    nodes.dedup();
    // Fan the independent node counts across the pool; the indexed map
    // returns outcomes in sweep order, so the series (and its render) is
    // byte-identical to the sequential loop.
    let outcomes: Vec<(u32, f64, f64)> = jubench_pool::par_map_over(&nodes, |&n| {
        let out = bench
            .run(&RunConfig {
                seed,
                ..RunConfig::test(n)
            })
            .ok()?;
        Some((n, out.virtual_time_s, out.comm_fraction()))
    })
    .into_iter()
    .flatten()
    .collect();
    // The 1× multiplier is one of the swept counts: its outcome is the
    // reference, and without one every relative runtime is NaN.
    let reference_runtime_s = outcomes
        .iter()
        .find(|&&(n, _, _)| n == reference_nodes)
        .map_or(f64::NAN, |&(_, runtime_s, _)| runtime_s);
    let points = outcomes
        .into_iter()
        .map(|(n, runtime_s, comm_fraction)| Fig2Point {
            nodes: n,
            relative_nodes: n as f64 / reference_nodes as f64,
            runtime_s,
            relative_runtime: runtime_s / reference_runtime_s,
            comm_fraction,
        })
        .collect();
    Fig2Series {
        name: bench.meta().id.name(),
        reference_nodes,
        reference_runtime_s,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::full_registry;
    use jubench_core::{BenchmarkId, Category};

    #[test]
    fn series_contains_the_reference_point_at_1_1() {
        let r = full_registry();
        let arbor = r.get(BenchmarkId::Arbor).unwrap();
        let s = strong_scaling_series(arbor, 1);
        let ref_point = s
            .points
            .iter()
            .find(|p| p.nodes == s.reference_nodes)
            .expect("reference point present");
        assert!((ref_point.relative_nodes - 1.0).abs() < 1e-12);
        assert!((ref_point.relative_runtime - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_of_two_benchmarks_snap_to_valid_counts() {
        let r = full_registry();
        let juqcs = r.get(BenchmarkId::Juqcs).unwrap();
        let s = strong_scaling_series(juqcs, 1);
        for p in &s.points {
            assert!(p.nodes.is_power_of_two(), "{} nodes", p.nodes);
        }
    }

    #[test]
    fn more_nodes_means_lower_relative_runtime_for_most_apps() {
        // Use GROMACS test case C (28 M atoms, 128 reference nodes): the
        // compute-heavy configuration where strong scaling is healthy.
        // (Test case A on 3 nodes is latency-bound and nearly flat — also
        // true of the real code.)
        let gromacs = jubench_apps_md::Gromacs::case_c();
        let s = strong_scaling_series(&gromacs, 1);
        assert!(s.points.len() >= 4);
        let first = s.points.first().unwrap();
        let last = s.points.last().unwrap();
        assert!(first.relative_nodes < 1.0 && last.relative_nodes > 1.0);
        assert!(first.relative_runtime > 1.0, "fewer nodes → slower");
        assert!(last.relative_runtime < 1.0, "more nodes → faster");
    }

    #[test]
    fn every_base_application_yields_a_series() {
        // The Fig. 2 sweep must work for all 16 Base applications.
        let r = full_registry();
        for bench in r.by_category(Category::Base) {
            let s = strong_scaling_series(bench, 1);
            assert!(
                !s.points.is_empty(),
                "{} produced no strong-scaling points",
                s.name
            );
            assert!(s.reference_runtime_s.is_finite(), "{}", s.name);
            let rendered = s.render();
            assert!(rendered.contains("nodes"));
        }
    }
}
