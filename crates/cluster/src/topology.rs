//! Rank placement and the DragonFly+ topology of the interconnect.

use crate::machine::Machine;

/// Distance class between two ranks, determining which link model applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distance {
    /// Same device (no transfer).
    SameDevice,
    /// Same node: NVLink / NVSwitch.
    IntraNode,
    /// Different nodes within the same DragonFly+ cell (2 racks, 48 nodes):
    /// minimal route through the cell's switch group.
    IntraCell,
    /// Across cells: global optical links.
    InterCell,
    /// Across modules of the Modular Supercomputing Architecture (between
    /// the Cluster and the Booster), through the federation gateway.
    InterModule,
}

/// Block placement of MPI ranks onto devices: rank `r` lives on device
/// `r % gpus_per_node` of node `r / gpus_per_node`, matching the usual
/// `--ntasks-per-node=4` launch on JUWELS Booster.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub machine: Machine,
    /// Ranks per node (usually one per GPU; CPU codes use 1 rank/node here
    /// since intra-node parallelism is threads).
    pub ranks_per_node: u32,
}

impl Placement {
    /// One rank per GPU.
    pub fn per_gpu(machine: Machine) -> Self {
        Placement {
            ranks_per_node: machine.node.gpus_per_node,
            machine,
        }
    }

    /// One rank per node (CPU-style codes: NAStJA, DynQCD).
    pub fn per_node(machine: Machine) -> Self {
        Placement {
            machine,
            ranks_per_node: 1,
        }
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> u32 {
        self.machine.nodes * self.ranks_per_node
    }

    /// The node index hosting `rank`.
    pub fn node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node
    }

    /// The DragonFly+ cell index hosting `rank`.
    pub(crate) fn cell_of(&self, rank: u32) -> u32 {
        self.node_of(rank) / self.machine.cell_nodes
    }

    /// Distance class between two ranks.
    pub fn distance(&self, a: u32, b: u32) -> Distance {
        if a == b {
            Distance::SameDevice
        } else if self.node_of(a) == self.node_of(b) {
            Distance::IntraNode
        } else if self.cell_of(a) == self.cell_of(b) {
            Distance::IntraCell
        } else {
            Distance::InterCell
        }
    }
}

/// Topology queries over a machine, at node granularity.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    pub machine: Machine,
}

impl Topology {
    pub fn new(machine: Machine) -> Self {
        Topology { machine }
    }

    /// Number of node pairs whose traffic crosses the bisection when the
    /// machine is split into two halves of consecutive nodes.
    pub(crate) fn bisection_pairs(&self) -> u32 {
        self.machine.nodes / 2
    }

    /// Aggregate bisection bandwidth in bytes/s: each node in the smaller
    /// half injects through its NICs; global links are taperable, modeled
    /// with a DragonFly+ global taper factor.
    pub fn bisection_bandwidth(&self) -> f64 {
        let per_node = self.machine.node.nic_bw * self.machine.node.nics_per_node as f64;
        // DragonFly+ on JUWELS Booster is ≈ 50 % tapered on global links.
        let taper = if self.machine.cells() > 1 { 0.5 } else { 1.0 };
        per_node * self.bisection_pairs() as f64 * taper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booster() -> Machine {
        Machine::juwels_booster()
    }

    #[test]
    fn per_gpu_placement_has_4_ranks_per_node() {
        let p = Placement::per_gpu(booster().partition(8));
        assert_eq!(p.ranks(), 32);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
    }

    #[test]
    fn distance_classes() {
        let p = Placement::per_gpu(booster().partition(100));
        assert_eq!(p.distance(5, 5), Distance::SameDevice);
        assert_eq!(p.distance(0, 3), Distance::IntraNode);
        assert_eq!(p.distance(0, 4), Distance::IntraCell);
        // node 0 (cell 0) vs node 50 (cell 1): rank 200 is on node 50.
        assert_eq!(p.distance(0, 200), Distance::InterCell);
    }

    #[test]
    fn per_node_placement() {
        let p = Placement::per_node(booster().partition(8));
        assert_eq!(p.ranks(), 8);
        assert_eq!(p.distance(0, 1), Distance::IntraCell);
    }

    #[test]
    fn distance_is_symmetric() {
        let p = Placement::per_gpu(booster().partition(200));
        for (a, b) in [(0u32, 3u32), (0, 4), (0, 400), (7, 190)] {
            assert_eq!(p.distance(a, b), p.distance(b, a));
        }
    }

    #[test]
    fn bisection_bandwidth_scales_with_nodes() {
        let small = Topology::new(booster().partition(48));
        let large = Topology::new(booster());
        assert!(large.bisection_bandwidth() > small.bisection_bandwidth());
        // Single cell is not tapered: 24 pairs × 4 NIC × 25 GB/s = 2.4 TB/s.
        assert!((small.bisection_bandwidth() - 24.0 * 4.0 * 25.0e9).abs() < 1e6);
    }
}
