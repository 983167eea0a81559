//! Topology-aware placement: which nodes a job gets, and what the choice
//! costs.
//!
//! The paper's High-Scaling numbers were taken on a DragonFly+ machine
//! where SLURM's node assignment decides how much of a job's traffic
//! crosses cell-boundary global links (§II-C). The two policies here are
//! the extremes of that spectrum: [`PlacementPolicy::Contiguous`] packs a
//! job into as few 48-node cells as possible, [`PlacementPolicy::Scatter`]
//! round-robins it across every cell. The cost shows up through
//! [`Allocation::slowdown`]: the inter-cell share of the job's traffic
//! runs at the netmodel's congested inter-cell bandwidth, so placement
//! measurably changes job runtimes and campaign makespans.

use std::collections::BTreeSet;

use jubench_cluster::{Machine, NetModel};

/// How the scheduler assigns nodes to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlacementPolicy {
    /// Pack into the fewest cells: a single best-fit cell when one has
    /// enough free nodes, otherwise the fullest cells first.
    Contiguous,
    /// Round-robin one node at a time across all cells — the worst case
    /// for inter-cell traffic, useful as the congestion upper bound.
    Scatter,
}

impl PlacementPolicy {
    pub const ALL: [PlacementPolicy; 2] = [PlacementPolicy::Contiguous, PlacementPolicy::Scatter];

    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::Contiguous => "contiguous",
            PlacementPolicy::Scatter => "scatter",
        }
    }

    /// Choose `count` nodes from `free` on `machine`, or `None` when not
    /// enough nodes are free. Deterministic: the result depends only on
    /// the free set. Whenever `free.len() >= count` an allocation exists —
    /// the policies decide *which* nodes, never whether.
    pub fn place(self, machine: &Machine, free: &BTreeSet<u32>, count: u32) -> Option<Allocation> {
        if (free.len() as u32) < count {
            return None;
        }
        // Free nodes grouped by cell, ascending node index within a cell.
        let mut per_cell: Vec<Vec<u32>> = vec![Vec::new(); machine.cells() as usize];
        for &n in free {
            per_cell[machine.cell_of_node(n) as usize].push(n);
        }
        let mut picked: Vec<u32> = Vec::with_capacity(count as usize);
        match self {
            PlacementPolicy::Contiguous => {
                // Best fit: the cell with the fewest free nodes that still
                // holds the whole job (ties: lowest cell index).
                let best = per_cell
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.len() >= count as usize)
                    .min_by_key(|(c, v)| (v.len(), *c));
                if let Some((_, cell)) = best {
                    picked.extend(cell.iter().take(count as usize));
                } else {
                    // No single cell fits: fullest cells first (ties:
                    // lowest index) to keep the cell count minimal.
                    let mut order: Vec<usize> = (0..per_cell.len()).collect();
                    order.sort_by_key(|&c| (usize::MAX - per_cell[c].len(), c));
                    for c in order {
                        for &n in &per_cell[c] {
                            if picked.len() == count as usize {
                                break;
                            }
                            picked.push(n);
                        }
                    }
                }
            }
            PlacementPolicy::Scatter => {
                // One node per cell per round, cells in ascending index.
                let mut cursors = vec![0usize; per_cell.len()];
                while picked.len() < count as usize {
                    for c in 0..per_cell.len() {
                        if picked.len() == count as usize {
                            break;
                        }
                        if cursors[c] < per_cell[c].len() {
                            picked.push(per_cell[c][cursors[c]]);
                            cursors[c] += 1;
                        }
                    }
                }
            }
        }
        picked.sort_unstable();
        Some(Allocation { nodes: picked })
    }
}

/// The node set granted to one job, sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    pub nodes: Vec<u32>,
}

impl Allocation {
    /// Node-index footprint `max − min + 1`: the width of the machine
    /// slice the job's traffic spreads over. This is what feeds the
    /// netmodel congestion factor — a scattered job congests like a job
    /// of its footprint, not of its size.
    pub fn span(&self) -> u32 {
        match (self.nodes.first(), self.nodes.last()) {
            (Some(&lo), Some(&hi)) => hi - lo + 1,
            _ => 0,
        }
    }

    /// Number of distinct cells the allocation touches.
    pub(crate) fn cell_count(&self, machine: &Machine) -> u32 {
        let mut cells: Vec<u32> = self
            .nodes
            .iter()
            .map(|&n| machine.cell_of_node(n))
            .collect();
        cells.dedup();
        cells.len() as u32
    }

    /// The cell hosting the allocation's first node (the job's home track
    /// in the Chrome export). Zero for an empty allocation.
    pub(crate) fn primary_cell(&self, machine: &Machine) -> u32 {
        self.nodes.first().map_or(0, |&n| machine.cell_of_node(n))
    }

    /// Fraction of node pairs that straddle a cell boundary — the share
    /// of all-to-all-ish traffic that rides inter-cell global links.
    pub(crate) fn cross_cell_fraction(&self, machine: &Machine) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 0.0;
        }
        let mut counts: Vec<u64> = vec![0; machine.cells() as usize];
        for &node in &self.nodes {
            counts[machine.cell_of_node(node) as usize] += 1;
        }
        let same: u64 = counts.iter().map(|&k| k * k.saturating_sub(1)).sum();
        let total = (n as u64) * (n as u64 - 1);
        1.0 - same as f64 / total as f64
    }

    /// Communication slowdown of this allocation relative to an ideal
    /// single-cell one: the cross-cell share of the traffic runs at the
    /// inter-cell bandwidth after congestion (evaluated on the
    /// allocation's [`span`](Self::span)), the rest at intra-cell speed.
    /// Always ≥ 1; exactly 1 for a single-cell allocation.
    pub fn slowdown(&self, machine: &Machine, net: &NetModel) -> f64 {
        let x = self.cross_cell_fraction(machine);
        if x == 0.0 {
            return 1.0;
        }
        let congestion = net.congestion_factor(self.span());
        let penalty = (net.intra_cell.bandwidth / (net.inter_cell.bandwidth * congestion)).max(1.0);
        (1.0 - x) + x * penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cells() -> Machine {
        Machine::juwels_booster().partition(96)
    }

    fn free_all(machine: &Machine) -> BTreeSet<u32> {
        (0..machine.nodes).collect()
    }

    /// A netmodel whose congestion regime starts small enough for a
    /// two-cell test machine to feel it.
    fn sensitive_net() -> NetModel {
        NetModel {
            congestion_onset_nodes: 16,
            ..NetModel::juwels_booster()
        }
    }

    #[test]
    fn contiguous_prefers_one_cell() {
        let m = two_cells();
        let a = PlacementPolicy::Contiguous
            .place(&m, &free_all(&m), 48)
            .unwrap();
        assert_eq!(a.cell_count(&m), 1);
        assert_eq!(a.span(), 48);
        assert_eq!(a.cross_cell_fraction(&m), 0.0);
        assert_eq!(a.slowdown(&m, &sensitive_net()), 1.0);
    }

    #[test]
    fn contiguous_best_fit_picks_the_tightest_cell() {
        let m = two_cells();
        // Cell 0 has 8 free nodes, cell 1 has 48: a 6-node job should
        // squeeze into cell 0, preserving cell 1 for bigger jobs.
        let free: BTreeSet<u32> = (0..8).chain(48..96).collect();
        let a = PlacementPolicy::Contiguous.place(&m, &free, 6).unwrap();
        assert_eq!(a.nodes, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn scatter_spreads_across_cells() {
        let m = two_cells();
        let a = PlacementPolicy::Scatter
            .place(&m, &free_all(&m), 48)
            .unwrap();
        assert_eq!(a.cell_count(&m), 2);
        assert!(a.span() > 48, "span {}", a.span());
        let x = a.cross_cell_fraction(&m);
        assert!(x > 0.4, "24+24 split has ≈ 0.51 cross-cell pairs, got {x}");
        assert!(a.slowdown(&m, &sensitive_net()) > 1.0);
    }

    #[test]
    fn scatter_is_never_faster_than_contiguous() {
        let m = two_cells();
        let net = sensitive_net();
        for count in [2u32, 8, 17, 48, 96] {
            let c = PlacementPolicy::Contiguous
                .place(&m, &free_all(&m), count)
                .unwrap();
            let s = PlacementPolicy::Scatter
                .place(&m, &free_all(&m), count)
                .unwrap();
            assert!(
                c.slowdown(&m, &net) <= s.slowdown(&m, &net) + 1e-12,
                "count {count}"
            );
        }
    }

    #[test]
    fn placement_fails_only_when_short_of_nodes() {
        let m = two_cells();
        let free: BTreeSet<u32> = (0..10).collect();
        for policy in PlacementPolicy::ALL {
            assert!(policy.place(&m, &free, 11).is_none());
            let a = policy.place(&m, &free, 10).unwrap();
            assert_eq!(a.nodes.len(), 10);
        }
    }

    #[test]
    fn allocations_draw_only_free_nodes_without_duplicates() {
        let m = two_cells();
        let free: BTreeSet<u32> = (0..96).filter(|n| n % 3 != 0).collect();
        for policy in PlacementPolicy::ALL {
            let a = policy.place(&m, &free, 40).unwrap();
            assert_eq!(a.nodes.len(), 40);
            for w in a.nodes.windows(2) {
                assert!(w[0] < w[1], "sorted and duplicate-free");
            }
            assert!(a.nodes.iter().all(|n| free.contains(n)));
        }
    }

    #[test]
    fn single_node_jobs_never_slow_down() {
        let m = two_cells();
        let a = PlacementPolicy::Scatter
            .place(&m, &free_all(&m), 1)
            .unwrap();
        assert_eq!(a.span(), 1);
        assert_eq!(a.slowdown(&m, &sensitive_net()), 1.0);
    }
}
