//! Ring networks of cable cells with spike exchange.
//!
//! "Cells are organized into rings propagating a single spike. Rings are
//! interconnected to place load on the network without altering dynamics,
//! yielding a deterministic, scalable workload" (§IV-A2a).
//!
//! Cells are distributed round-robin over the ranks; each ring holds one
//! travelling spike. A spike of cell `c` reaches its ring successor
//! `c+1 (mod ring)` after the network min-delay, driving a suprathreshold
//! synaptic current there. Spikes are exchanged between ranks with an
//! allgather once per min-delay epoch, concurrently with time evolution.

use jubench_simmpi::{Comm, SimError};

use crate::cell::CableCell;

/// Static description of the ring workload.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Total number of cells (must be divisible by `ring_size`).
    pub cells: u32,
    /// Cells per ring.
    pub ring_size: u32,
    /// Compartments per cell.
    pub compartments: usize,
    /// Time step (ms).
    pub dt: f64,
    /// Steps per exchange epoch (the network min-delay in steps).
    pub min_delay_steps: u32,
    /// Synaptic current driven into a cell that received a spike.
    pub syn_current: f64,
    /// How many steps the synaptic current stays on.
    pub syn_duration_steps: u32,
}

impl RingConfig {
    pub(crate) fn test_scale() -> Self {
        RingConfig {
            cells: 16,
            ring_size: 4,
            compartments: 8,
            dt: 0.025,
            min_delay_steps: 100,
            syn_current: 80.0,
            syn_duration_steps: 40,
        }
    }

    pub fn rings(&self) -> u32 {
        self.cells / self.ring_size
    }
}

/// The per-rank state of the distributed ring network.
pub(crate) struct RingNetwork {
    pub cfg: RingConfig,
    /// Global ids of the cells this rank owns (round-robin).
    pub local_ids: Vec<u32>,
    cells: Vec<CableCell>,
    /// Remaining steps of synaptic drive per local cell.
    drive: Vec<u32>,
    /// Total spikes this rank's cells generated.
    pub local_spikes: u64,
}

impl RingNetwork {
    /// Build the rank-local part; ring leaders (cell id ≡ 0 mod ring_size)
    /// start with a synaptic stimulus, injecting one spike per ring.
    pub fn build(comm: &Comm, cfg: RingConfig) -> Self {
        assert_eq!(cfg.cells % cfg.ring_size, 0, "cells must fill whole rings");
        let local_ids: Vec<u32> = (0..cfg.cells)
            .filter(|c| c % comm.size() == comm.rank())
            .collect();
        let cells = local_ids
            .iter()
            .map(|_| CableCell::new(cfg.compartments))
            .collect();
        let drive = local_ids
            .iter()
            .map(|&c| {
                if c % cfg.ring_size == 0 {
                    cfg.syn_duration_steps
                } else {
                    0
                }
            })
            .collect();
        RingNetwork {
            cfg,
            local_ids,
            cells,
            drive,
            local_spikes: 0,
        }
    }

    /// The ring successor of a global cell id.
    pub fn successor(cfg: &RingConfig, cell: u32) -> u32 {
        let ring = cell / cfg.ring_size;
        let pos = cell % cfg.ring_size;
        ring * cfg.ring_size + (pos + 1) % cfg.ring_size
    }

    /// Advance one min-delay epoch: integrate all local cells, collect
    /// spikes, exchange them, and schedule the synaptic drive on the
    /// successors. Returns the number of spikes exchanged globally.
    pub(crate) fn epoch(&mut self, comm: &mut Comm) -> Result<u64, SimError> {
        let mut spikes: Vec<f64> = Vec::new();
        for _ in 0..self.cfg.min_delay_steps {
            for (idx, cell) in self.cells.iter_mut().enumerate() {
                cell.soma_current = if self.drive[idx] > 0 {
                    self.drive[idx] -= 1;
                    self.cfg.syn_current
                } else {
                    0.0
                };
                if cell.step(self.cfg.dt) {
                    self.local_spikes += 1;
                    spikes.push(self.local_ids[idx] as f64);
                }
            }
        }
        // Fixed-size spike exchange: each rank contributes a count plus a
        // bounded list of source ids (the paper's allgather of spikes).
        let max_spikes = self.local_ids.len().max(1);
        let mut contribution = vec![-1.0; max_spikes + 1];
        contribution[0] = spikes.len() as f64;
        for (i, s) in spikes.iter().take(max_spikes).enumerate() {
            contribution[i + 1] = *s;
        }
        let all = comm.allgather_f64(&contribution)?;
        let mut total = 0u64;
        let stride = max_spikes + 1;
        for r in 0..comm.size() as usize {
            let count = all[r * stride] as usize;
            total += count as u64;
            for s in 0..count.min(max_spikes) {
                let src = all[r * stride + 1 + s] as u32;
                let dst = Self::successor(&self.cfg, src);
                if let Some(idx) = self.local_ids.iter().position(|&c| c == dst) {
                    self.drive[idx] = self.cfg.syn_duration_steps;
                }
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_simmpi::World;

    fn world() -> World {
        World::new(Machine::juwels_booster().partition(1)) // 4 ranks
    }

    #[test]
    fn successor_wraps_within_ring() {
        let cfg = RingConfig::test_scale(); // ring_size 4
        assert_eq!(RingNetwork::successor(&cfg, 0), 1);
        assert_eq!(RingNetwork::successor(&cfg, 3), 0);
        assert_eq!(RingNetwork::successor(&cfg, 4), 5);
        assert_eq!(RingNetwork::successor(&cfg, 7), 4);
    }

    #[test]
    fn cells_are_distributed_round_robin() {
        let results = world().run(|comm| {
            let net = RingNetwork::build(comm, RingConfig::test_scale());
            net.local_ids.clone()
        });
        let mut all: Vec<u32> = results.iter().flat_map(|r| r.value.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn one_spike_per_ring_per_epoch() {
        // Each of the 4 rings carries exactly one travelling spike: after
        // E epochs, exactly rings × E spikes have been generated — the
        // paper's deterministic validation quantity.
        let results = world().run(|comm| {
            let cfg = RingConfig::test_scale();
            let mut net = RingNetwork::build(comm, cfg);
            let mut totals = Vec::new();
            for _ in 0..3 {
                totals.push(net.epoch(comm).unwrap());
            }
            totals
        });
        for r in &results {
            assert_eq!(r.value, vec![4, 4, 4], "rank {}: {:?}", r.rank, r.value);
        }
    }

    #[test]
    fn spike_travels_around_the_ring() {
        // Track which cells spike over ring_size epochs: the spike must
        // visit each ring position exactly once.
        let results = world().run(|comm| {
            let cfg = RingConfig::test_scale();
            let mut net = RingNetwork::build(comm, cfg);
            let mut spikes_by_epoch = Vec::new();
            for _ in 0..4 {
                net.epoch(comm).unwrap();
                spikes_by_epoch.push(net.local_spikes);
            }
            (net.local_ids.len() as u64, spikes_by_epoch)
        });
        // Every rank owns 4 cells (one per ring) and each epoch exactly one
        // of the 4 ranks' cells per ring spikes; after 4 epochs every cell
        // spiked exactly once: local_spikes == local cell count.
        for r in &results {
            let (cells, by_epoch) = &r.value;
            assert_eq!(*by_epoch.last().unwrap(), *cells);
        }
    }
}
