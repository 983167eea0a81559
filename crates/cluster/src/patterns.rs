//! Costing of the communication patterns the application benchmarks use.
//!
//! Each application proxy either performs its communication through the
//! simulated MPI runtime (which costs individual messages with
//! [`NetModel::ptp_time`]) or — for scaling studies far beyond the number of
//! ranks a development machine can host as threads — describes one
//! time-step/iteration of its communication as a [`CommPattern`] costed
//! analytically here. Both paths use the same link model, so they agree.

use crate::netmodel::NetModel;
use crate::topology::{Distance, Placement};

/// One iteration's worth of communication of an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommPattern {
    /// Nearest-neighbour halo exchange on a 3D rank grid: each rank
    /// exchanges two faces per dimension (GROMACS short-range, ICON,
    /// ParFlow, NAStJA, PIConGPU fields).
    Halo3d {
        rank_dims: [u32; 3],
        bytes_per_face: [u64; 3],
    },
    /// Halo exchange on a 4D rank grid (lattice QCD).
    Halo4d {
        rank_dims: [u32; 4],
        bytes_per_face: u64,
    },
    /// Tree/ring allreduce of `bytes` per rank (CG dot products, gradient
    /// reductions).
    AllReduce { bytes: u64 },
    /// Ring allreduce of large gradient buffers (data-parallel training:
    /// each rank cycles 2·(P−1)/P·bytes through its slowest link).
    RingAllReduce { bytes: u64 },
    /// Personalized all-to-all with `bytes_per_pair` between every rank
    /// pair (distributed 3D-FFT transpose: GROMACS PME, Quantum ESPRESSO).
    AllToAll { bytes_per_pair: u64 },
    /// Allgather of `bytes_per_rank` from every rank (Arbor spike exchange,
    /// MMoCLIP embedding gather).
    AllGather { bytes_per_rank: u64 },
    /// Butterfly-style pairwise exchange over `stages` stages with stride
    /// doubling, moving `bytes_per_rank` each stage (JUQCS non-local
    /// gates: stage k pairs ranks differing in bit k).
    Butterfly { bytes_per_rank: u64, stages: u32 },
    /// Every rank in one half exchanges `bytes` with a partner in the other
    /// half, bidirectionally (LinkTest bisection test).
    PairwiseBisection { bytes: u64 },
    /// Point-to-point pipeline transfer of `bytes` between adjacent ranks
    /// (Megatron-LM pipeline parallelism).
    Pipeline { bytes: u64 },
}

/// Distance between a representative pair of ranks `stride` apart.
fn stride_distance(placement: &Placement, stride: u32) -> Distance {
    let p = placement.ranks();
    if p <= 1 || stride == 0 {
        return Distance::SameDevice;
    }
    // Use a node-aligned rank so that strides smaller than the
    // ranks-per-node count stay intra-node, as they do for the typical rank
    // of a block placement — near the middle, but low enough that the
    // partner `a + stride` still exists.
    let rpn = placement.ranks_per_node.max(1);
    let stride = stride.min(p - 1);
    let max_base = ((p - 1 - stride) / rpn) * rpn;
    let a = (((p / 2) / rpn) * rpn).min(max_base);
    let b = a + stride;
    placement.distance(a, b)
}

/// Cost (seconds per iteration) of `pattern` on `placement` under `net`.
pub fn pattern_time(pattern: CommPattern, placement: &Placement, net: &NetModel) -> f64 {
    let p = placement.ranks().max(1);
    let job_nodes = placement.machine.nodes;
    match pattern {
        CommPattern::Halo3d {
            rank_dims,
            bytes_per_face,
        } => halo_time(&rank_dims, &bytes_per_face, placement, net),
        CommPattern::Halo4d {
            rank_dims,
            bytes_per_face,
        } => {
            let faces = [bytes_per_face; 4];
            halo_time_nd(&rank_dims, &faces, placement, net)
        }
        CommPattern::AllReduce { bytes } => {
            if p == 1 {
                return 0.0;
            }
            // Recursive doubling: log2(P) stages over the worst link.
            let stages = (p as f64).log2().ceil();
            let worst = worst_distance(placement);
            stages * net.ptp_time(bytes, worst, job_nodes)
        }
        CommPattern::RingAllReduce { bytes } => {
            if p == 1 {
                return 0.0;
            }
            let worst = worst_distance(placement);
            let chunk = (bytes as f64 / p as f64).ceil() as u64;
            // 2·(P−1) steps of one chunk each.
            2.0 * (p - 1) as f64 * net.ptp_time(chunk, worst, job_nodes)
        }
        CommPattern::AllToAll { bytes_per_pair } => {
            if p == 1 {
                return 0.0;
            }
            // Linear (pairwise) algorithm: each rank serializes (P−1)
            // sends through its NIC; the off-node portion at network
            // bandwidth, the on-node portion at NVLink bandwidth.
            let rpn = placement.ranks_per_node as u64;
            let off_node = (p as u64).saturating_sub(rpn);
            let on_node = (rpn - 1).min(p as u64 - 1);
            let linear = off_node as f64
                * net.ptp_time(bytes_per_pair, off_node_distance(placement), job_nodes)
                + on_node as f64 * net.ptp_time(bytes_per_pair, Distance::IntraNode, job_nodes);
            // Bruck combining algorithm: ⌈log₂P⌉ rounds moving P/2
            // personalized payloads each — what MPI libraries switch to
            // for small messages to avoid P latencies.
            let rounds = (p as f64).log2().ceil();
            let bruck = rounds
                * net.ptp_time(
                    bytes_per_pair * (p as u64 / 2),
                    off_node_distance(placement),
                    job_nodes,
                );
            linear.min(bruck)
        }
        CommPattern::AllGather { bytes_per_rank } => {
            if p == 1 {
                return 0.0;
            }
            // Ring allgather: (P−1) steps of one rank's contribution.
            let worst = worst_distance(placement);
            (p - 1) as f64 * net.ptp_time(bytes_per_rank, worst, job_nodes)
        }
        CommPattern::Butterfly {
            bytes_per_rank,
            stages,
        } => {
            // Stage k exchanges with the partner 2^k ranks away.
            (0..stages)
                .map(|k| {
                    let stride = 1u32 << k.min(30);
                    let dist = stride_distance(placement, stride);
                    net.ptp_time(bytes_per_rank, dist, job_nodes)
                })
                .sum()
        }
        CommPattern::PairwiseBisection { bytes } => {
            // All pairs exchange simultaneously; rank r partners with
            // r + P/2, so every pair crosses the bisection (on a single
            // node this is still NVLink). Bidirectional exchange doubles
            // the volume per adapter.
            let dist = stride_distance(placement, p / 2);
            net.ptp_time(2 * bytes, dist, job_nodes)
        }
        CommPattern::Pipeline { bytes } => {
            let dist = stride_distance(placement, placement.ranks_per_node.max(1));
            net.ptp_time(bytes, dist, job_nodes)
        }
    }
}

/// Worst link class present inside this placement.
fn worst_distance(placement: &Placement) -> Distance {
    if placement.machine.cells() > 1 {
        Distance::InterCell
    } else if placement.machine.nodes > 1 {
        Distance::IntraCell
    } else if placement.ranks() > 1 {
        Distance::IntraNode
    } else {
        Distance::SameDevice
    }
}

/// Link class of a typical off-node partner.
fn off_node_distance(placement: &Placement) -> Distance {
    if placement.machine.cells() > 1 {
        Distance::InterCell
    } else {
        Distance::IntraCell
    }
}

fn halo_time(
    rank_dims: &[u32; 3],
    bytes_per_face: &[u64; 3],
    placement: &Placement,
    net: &NetModel,
) -> f64 {
    let dims4 = [rank_dims[0], rank_dims[1], rank_dims[2], 1];
    let faces4 = [bytes_per_face[0], bytes_per_face[1], bytes_per_face[2], 0];
    halo_time_nd(&dims4, &faces4, placement, net)
}

/// N-dimensional halo: along each decomposed dimension the rank exchanges
/// two faces with neighbours at a stride equal to the product of the faster
/// dimensions (row-major rank ordering).
fn halo_time_nd(
    rank_dims: &[u32; 4],
    bytes_per_face: &[u64; 4],
    placement: &Placement,
    net: &NetModel,
) -> f64 {
    let job_nodes = placement.machine.nodes;
    let mut stride: u32 = 1;
    let mut total = 0.0;
    for (d, &extent) in rank_dims.iter().enumerate() {
        if extent > 1 && bytes_per_face[d] > 0 {
            let dist = stride_distance(placement, stride);
            // Two faces (send+recv overlap assumed; cost one round trip of
            // both faces serialized through the adapter).
            total += 2.0 * net.ptp_time(bytes_per_face[d], dist, job_nodes);
        }
        stride = stride.saturating_mul(extent.max(1));
    }
    total
}

/// Balanced 3D factorization of `n` ranks (used by apps to build rank
/// grids) — factors as close to cubic as possible, preferring more ranks in
/// the leading (fast, intra-node) dimension.
pub fn balanced_dims3(n: u32) -> [u32; 3] {
    let mut best = [n, 1, 1];
    let mut best_score = u64::MAX;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let rest = n / a;
        for b in 1..=rest {
            if !rest.is_multiple_of(b) {
                continue;
            }
            let c = rest / b;
            // Surface-minimizing score for a unit-volume-per-rank cube.
            let score = (a * b + b * c + a * c) as u64;
            if score < best_score {
                best_score = score;
                best = [a, b, c];
            }
        }
    }
    best.sort_unstable_by(|x, y| y.cmp(x));
    // Row-major rank order: fastest-varying dimension first so neighbours
    // in dim 0 tend to share a node.
    best.reverse();
    best
}

/// Balanced 4D factorization (lattice QCD decomposition).
pub fn balanced_dims4(n: u32) -> [u32; 4] {
    let mut best = [n, 1, 1, 1];
    let mut best_score = u64::MAX;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        for b in 1..=(n / a) {
            if !(n / a).is_multiple_of(b) {
                continue;
            }
            let rest = n / a / b;
            for c in 1..=rest {
                if !rest.is_multiple_of(c) {
                    continue;
                }
                let d = rest / c;
                let dims = [a, b, c, d];
                let max = *dims.iter().max().unwrap() as u64;
                let min = *dims.iter().min().unwrap() as u64;
                let score = max * 1000 / min.max(1);
                if score < best_score {
                    best_score = score;
                    best = dims;
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn placement(nodes: u32) -> Placement {
        Placement::per_gpu(Machine::juwels_booster().partition(nodes))
    }

    #[test]
    fn single_rank_patterns_cost_nothing() {
        let p = Placement {
            machine: Machine::juwels_booster().partition(1),
            ranks_per_node: 1,
        };
        let net = NetModel::juwels_booster();
        assert_eq!(
            pattern_time(CommPattern::AllReduce { bytes: 1 << 20 }, &p, &net),
            0.0
        );
        assert_eq!(
            pattern_time(
                CommPattern::AllGather {
                    bytes_per_rank: 1024
                },
                &p,
                &net
            ),
            0.0
        );
        assert_eq!(
            pattern_time(CommPattern::RingAllReduce { bytes: 1024 }, &p, &net),
            0.0
        );
    }

    #[test]
    fn allreduce_grows_with_scale() {
        let net = NetModel::juwels_booster();
        let t8 = pattern_time(
            CommPattern::AllReduce { bytes: 1 << 20 },
            &placement(8),
            &net,
        );
        let t512 = pattern_time(
            CommPattern::AllReduce { bytes: 1 << 20 },
            &placement(512),
            &net,
        );
        assert!(t512 > t8);
    }

    #[test]
    fn butterfly_early_stages_are_intra_node() {
        // With 4 ranks per node, stages 0 and 1 stay on NVLink.
        let p = placement(64);
        let net = NetModel::juwels_booster();
        let local = pattern_time(
            CommPattern::Butterfly {
                bytes_per_rank: 1 << 26,
                stages: 2,
            },
            &p,
            &net,
        );
        let global = pattern_time(
            CommPattern::Butterfly {
                bytes_per_rank: 1 << 26,
                stages: 8,
            },
            &p,
            &net,
        );
        // The 6 non-local stages dominate heavily.
        assert!(global > local * 10.0);
    }

    #[test]
    fn halo_exchange_scales_mildly() {
        let net = NetModel::juwels_booster();
        let t = |nodes: u32| {
            let p = placement(nodes);
            let dims = balanced_dims3(p.ranks());
            pattern_time(
                CommPattern::Halo3d {
                    rank_dims: dims,
                    bytes_per_face: [1 << 20; 3],
                },
                &p,
                &net,
            )
        };
        // Weak-scaling halo time grows far slower than alltoall.
        assert!(t(512) < t(8) * 4.0);
    }

    #[test]
    fn alltoall_is_expensive_at_scale() {
        let net = NetModel::juwels_booster();
        let t8 = pattern_time(
            CommPattern::AllToAll {
                bytes_per_pair: 1 << 14,
            },
            &placement(8),
            &net,
        );
        let t128 = pattern_time(
            CommPattern::AllToAll {
                bytes_per_pair: 1 << 14,
            },
            &placement(128),
            &net,
        );
        assert!(t128 > 8.0 * t8);
    }

    #[test]
    fn balanced_dims3_factorizes() {
        for n in [1u32, 2, 4, 8, 12, 32, 64, 100, 2048, 2560] {
            let d = balanced_dims3(n);
            assert_eq!(d[0] * d[1] * d[2], n, "n={n} d={d:?}");
        }
        assert_eq!(balanced_dims3(64), [4, 4, 4]);
    }

    #[test]
    fn balanced_dims4_factorizes() {
        for n in [1u32, 2, 16, 64, 2048] {
            let d = balanced_dims4(n);
            assert_eq!(d.iter().product::<u32>(), n);
        }
        assert_eq!(balanced_dims4(16), [2, 2, 2, 2]);
    }

    #[test]
    fn bisection_pairs_slower_across_cells() {
        let net = NetModel::juwels_booster();
        let single_cell = pattern_time(
            CommPattern::PairwiseBisection { bytes: 16 << 20 },
            &placement(48),
            &net,
        );
        let multi_cell = pattern_time(
            CommPattern::PairwiseBisection { bytes: 16 << 20 },
            &placement(936),
            &net,
        );
        assert!(multi_cell > single_cell);
    }

    #[test]
    fn pipeline_cost_is_one_message() {
        let net = NetModel::juwels_booster();
        let p = placement(8);
        let t = pattern_time(CommPattern::Pipeline { bytes: 1 << 20 }, &p, &net);
        assert!(t > 0.0 && t < 1e-3);
    }
}
