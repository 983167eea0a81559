//! Graph500: breadth-first search on a Kronecker (R-MAT) graph, FOM in
//! traversed edges per second (TEPS).

use std::time::Instant;

use crate::host_rate;
use jubench_apps_common::{layout_serial, outcome, AppModel, Phase};
use jubench_cluster::{CommPattern, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::rank_rng;

/// The Graph500 R-MAT parameters (A, B, C; D = 1 − A − B − C).
const RMAT: [f64; 3] = [0.57, 0.19, 0.19];
/// The quadrant thresholds A, A + B, A + B + C.
const RMAT_CUTS: [f64; 3] = [RMAT[0], RMAT[0] + RMAT[1], RMAT[0] + RMAT[1] + RMAT[2]];
/// Edge factor: edges = 16 × vertices.
pub(crate) const EDGE_FACTOR: usize = 16;

/// The R-MAT quadrant `(du, dv)` a draw `r` picks: (0, 0) below A, (0, 1)
/// below A + B, (1, 0) below A + B + C, else (1, 1). The three comparisons
/// are counted, not branched on — a random `r` defeats the predictor.
#[inline]
fn quadrant(r: f64) -> (u32, u32) {
    let [below_a, below_ab, below_abc] = RMAT_CUTS.map(|cut| (r < cut) as u32);
    // The quadrant q = 3 − Σ below counts the cuts at or below r:
    // du = (q ≥ 2), dv = (q odd).
    (below_ab ^ 1, below_a ^ below_ab ^ below_abc ^ 1)
}

/// Generate a Kronecker graph of 2^scale vertices as an edge list.
pub(crate) fn kronecker_edges(scale: u32, seed: u64) -> Vec<(u32, u32)> {
    let vertices = 1u32 << scale;
    let edges = vertices as usize * EDGE_FACTOR;
    let mut rng = rank_rng(seed, 0);
    let mut list = Vec::with_capacity(edges);
    for _ in 0..edges {
        let mut u = 0u32;
        let mut v = 0u32;
        for bit in (0..scale).rev() {
            let (du, dv) = quadrant(rng.gen());
            u |= du << bit;
            v |= dv << bit;
        }
        list.push((u, v));
    }
    list
}

/// Compressed adjacency built from an edge list (undirected).
pub(crate) struct Csr {
    pub offsets: Vec<usize>,
    pub targets: Vec<u32>,
    pub vertices: u32,
}

impl Csr {
    pub(crate) fn from_edges(vertices: u32, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; vertices as usize];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; vertices as usize + 1];
        for i in 0..vertices as usize {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut targets = vec![0u32; offsets[vertices as usize]];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Csr {
            offsets,
            targets,
            vertices,
        }
    }

    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }
}

/// Level-synchronized BFS; returns the parent array (u32::MAX =
/// unreached, root is its own parent) and the number of traversed edges.
pub(crate) fn bfs(csr: &Csr, root: u32) -> (Vec<u32>, u64) {
    let mut parent = vec![u32::MAX; csr.vertices as usize];
    parent[root as usize] = root;
    let mut frontier = vec![root];
    let mut traversed = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in csr.neighbours(u) {
                traversed += 1;
                if parent[v as usize] == u32::MAX {
                    parent[v as usize] = u;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    (parent, traversed)
}

/// Graph500 result validation of a parent array (`u32::MAX` = unreached):
/// - the root is its own parent;
/// - every tree edge is a graph edge;
/// - every tree edge joins levels that differ by exactly 1: a vertex's
///   level is its parent's plus one, so every reached vertex must walk up
///   to the root without a cycle;
/// - every graph edge has both ends reached or both unreached, so the
///   tree spans the root's component;
/// - the levels of every graph edge's ends differ by at most 1, so the
///   tree is a breadth-first one.
pub(crate) fn validate_bfs(csr: &Csr, root: u32, parent: &[u32]) -> Result<(), String> {
    const UNREACHED: u32 = u32::MAX;
    if parent[root as usize] != root {
        return Err("root is not its own parent".into());
    }
    let mut level = vec![UNREACHED; csr.vertices as usize];
    level[root as usize] = 0;
    let mut path = Vec::new();
    for v in 0..csr.vertices {
        let p = parent[v as usize];
        if p == UNREACHED || v == root {
            continue;
        }
        if !csr.neighbours(v).contains(&p) {
            return Err(format!("tree edge {v} → {p} is not a graph edge"));
        }
        // Walk up to the first vertex with a level, with a bound (no
        // cycles), then number the path down from it.
        path.clear();
        let mut cur = v;
        while level[cur as usize] == UNREACHED {
            if path.len() > csr.vertices as usize {
                return Err(format!("cycle in the parent tree at {v}"));
            }
            path.push(cur);
            cur = parent[cur as usize];
            if cur == UNREACHED {
                return Err(format!("vertex {v} does not reach the root"));
            }
        }
        for (&u, l) in path.iter().rev().zip(level[cur as usize] + 1..) {
            level[u as usize] = l;
        }
    }
    for u in 0..csr.vertices {
        let lu = level[u as usize];
        for &w in csr.neighbours(u) {
            let lw = level[w as usize];
            // One test for both rules: UNREACHED lies far above every level.
            if lu.abs_diff(lw) > 1 {
                return Err(if lu == UNREACHED || lw == UNREACHED {
                    format!("graph edge {u} – {w} joins a reached and an unreached vertex")
                } else {
                    format!("graph edge {u} – {w} spans levels {lu} and {lw}")
                });
            }
        }
    }
    Ok(())
}

pub struct Graph500 {
    pub scale: u32,
}

impl Default for Graph500 {
    fn default() -> Self {
        Graph500 { scale: 10 }
    }
}

impl Benchmark for Graph500 {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Graph500.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// Generate, BFS, validate, measure TEPS.
    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let edges = kronecker_edges(self.scale, layout.seed);
        let csr = Csr::from_edges(1 << self.scale, &edges);
        let mut rng = rank_rng(layout.seed ^ 0xBF5, 0);
        let mut total_traversed = 0u64;
        let start = Instant::now();
        let mut validation = Ok(());
        for _ in 0..4 {
            let root = rng.gen_range(0..csr.vertices);
            let (parent, traversed) = bfs(&csr, root);
            total_traversed += traversed;
            if let Err(e) = validate_bfs(&csr, root, &parent) {
                validation = Err(e);
            }
        }
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        let teps = total_traversed as f64 / elapsed;
        let verification = match validation {
            Ok(()) => VerificationOutcome::Exact {
                checked_values: csr.vertices as usize,
            },
            Err(e) => VerificationOutcome::Failed { detail: e },
        };
        Ok(RealTrack {
            verification,
            metrics: vec![
                ("measured_teps".into(), teps),
                ("traversed_edges".into(), total_traversed as f64),
            ],
        })
    }

    /// Analytic model: at full scale, every BFS level is an all-to-all
    /// of frontier vertices with heavy irregular memory access.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let scale_full = 38u32; // full-machine Graph500 class
        let verts = 2f64.powi(scale_full as i32);
        let devices = machine.devices() as f64;
        let timing = AppModel::new(machine, 64)
            .with_efficiencies(0.05, 0.3)
            .with_phase(Phase::compute(
                "frontier expansion",
                Work::new(
                    8.0 * verts * EDGE_FACTOR as f64 / devices / 64.0,
                    64.0 * verts / devices,
                ),
            ))
            .with_phase(Phase::comm(
                "frontier exchange",
                CommPattern::AllToAll {
                    bytes_per_pair: (verts * 4.0 / devices / devices).max(64.0) as u64,
                },
            ))
            .timing();
        let mut out = outcome(timing, track.verification.clone(), track.metrics.clone());
        out.fom = Fom::Teps(host_rate(track, "measured_teps"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_sizes() {
        let edges = kronecker_edges(8, 1);
        assert_eq!(edges.len(), 256 * EDGE_FACTOR);
        assert!(edges.iter().all(|&(u, v)| u < 256 && v < 256));
    }

    #[test]
    fn kronecker_is_skewed() {
        // R-MAT graphs have a heavy-tailed degree distribution: the top
        // vertex has far more than the mean degree.
        let edges = kronecker_edges(10, 2);
        let csr = Csr::from_edges(1 << 10, &edges);
        let max_deg = (0..1u32 << 10)
            .map(|v| csr.neighbours(v).len())
            .max()
            .unwrap();
        let mean = 2.0 * edges.len() as f64 / 1024.0;
        assert!(
            max_deg as f64 > 4.0 * mean,
            "max degree {max_deg}, mean {mean}"
        );
    }

    #[test]
    fn bfs_parents_validate() {
        let edges = kronecker_edges(9, 3);
        let csr = Csr::from_edges(1 << 9, &edges);
        let (parent, traversed) = bfs(&csr, 0);
        assert!(traversed > 0);
        validate_bfs(&csr, 0, &parent).unwrap();
    }

    #[test]
    fn bfs_on_a_path_graph() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let csr = Csr::from_edges(4, &edges);
        let (parent, traversed) = bfs(&csr, 0);
        assert_eq!(parent, vec![0, 0, 1, 2]);
        assert_eq!(traversed, 6); // each undirected edge seen twice
    }

    #[test]
    fn validation_catches_fake_parents() {
        let edges = vec![(0, 1), (1, 2)];
        let csr = Csr::from_edges(3, &edges);
        // 2's parent claimed to be 0 — not a graph edge.
        let bogus = vec![0, 0, 0];
        assert!(validate_bfs(&csr, 0, &bogus).is_err());
    }

    #[test]
    fn validation_catches_a_truncated_tree() {
        // Every tree edge is real and reaches the root, but the tree
        // stops at the root of the connected path 0-1-2-3.
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let root_only = vec![0, u32::MAX, u32::MAX, u32::MAX];
        let err = validate_bfs(&csr, 0, &root_only).unwrap_err();
        assert!(err.contains("reached and an unreached"), "{err}");
    }

    #[test]
    fn validation_catches_a_non_bfs_tree() {
        // A depth-first spanning tree of the cycle 0-1-2-3-0: 3 sits at
        // level 3 although the edge 0-3 puts it at level 1.
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let depth_first = vec![0, 0, 1, 2];
        let err = validate_bfs(&csr, 0, &depth_first).unwrap_err();
        assert!(err.contains("spans levels"), "{err}");
        let (parent, _) = bfs(&csr, 0);
        validate_bfs(&csr, 0, &parent).unwrap();
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let edges = vec![(0, 1)];
        let csr = Csr::from_edges(3, &edges);
        let (parent, _) = bfs(&csr, 0);
        assert_eq!(parent[2], u32::MAX);
        validate_bfs(&csr, 0, &parent).unwrap();
    }

    #[test]
    fn benchmark_run_produces_teps() {
        let out = Graph500 { scale: 8 }.run(&RunConfig::test(4)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(out.fom, Fom::Teps(t) if t > 0.0));
        assert!(out.fom.higher_is_better());
    }
}

/// The branching generator [`kronecker_edges`] replaced, kept verbatim as
/// the oracle.
#[cfg(test)]
mod reference {
    use super::{EDGE_FACTOR, RMAT};
    use jubench_kernels::rank_rng;

    pub(crate) fn quadrant(r: f64) -> (u32, u32) {
        if r < RMAT[0] {
            (0, 0)
        } else if r < RMAT[0] + RMAT[1] {
            (0, 1)
        } else if r < RMAT[0] + RMAT[1] + RMAT[2] {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    pub(crate) fn kronecker_edges(scale: u32, seed: u64) -> Vec<(u32, u32)> {
        let vertices = 1u32 << scale;
        let edges = vertices as usize * EDGE_FACTOR;
        let mut rng = rank_rng(seed, 0);
        let mut list = Vec::with_capacity(edges);
        for _ in 0..edges {
            let mut u = 0u32;
            let mut v = 0u32;
            for bit in (0..scale).rev() {
                let r: f64 = rng.gen();
                let (du, dv) = quadrant(r);
                u |= du << bit;
                v |= dv << bit;
            }
            list.push((u, v));
        }
        list
    }
}

/// Equality with [`reference`]: a `<=` for a `<` or two swapped quadrants
/// fail these.
#[cfg(test)]
mod oracle {
    use super::*;

    #[test]
    fn quadrant_matches_the_reference_at_every_threshold() {
        let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for cut in RMAT_CUTS {
            let bits = cut.to_bits();
            probes.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        for r in probes {
            assert_eq!(quadrant(r), reference::quadrant(r), "r = {r:e}");
        }
    }

    #[test]
    fn edge_lists_match_the_reference() {
        for scale in 1..=12 {
            for seed in 0..64 {
                assert!(
                    kronecker_edges(scale, seed) == reference::kronecker_edges(scale, seed),
                    "scale {scale}, seed {seed}"
                );
            }
        }
    }
}
