//! The seeded campaign population `P(seed, generation)`.
//!
//! `--seed` is the only source of variation: everything the program
//! under test receives is a `CampaignSpec` built here. The *mix* of
//! (benchmark, node count) points is the same multiset for every seed
//! and for every closed-loop batch of eight campaigns — only the order
//! within a batch, the tenant/partition assignment and the point seeds
//! change — so every batch, every round and every seed cost the same
//! and the spread that is left measures the machine, not the draw.

use jubench::kernels::rank_rng;
use jubench::serve::{CampaignSpec, RunPoint};

/// Campaigns in one population.
pub const CAMPAIGNS: usize = 200;
/// Run points per campaign.
pub const POINTS_PER_CAMPAIGN: usize = 4;
/// Partition sizes cycled over campaigns; they route to both shards of a
/// 2-shard server.
pub const PARTITIONS: [u32; 4] = [8, 16, 24, 48];
/// Tenants cycled over campaigns.
pub const TENANTS: usize = 5;
/// Scheduler slice width (virtual seconds) of every campaign.
pub const SLICE_S: f64 = 10.0;

/// Benchmarks and the node counts at which each verifies `pass` at test
/// scale for every seed (LinkTest pairs nodes up, so it takes even
/// counts only). STREAM is left to `fleet_study`: one point costs
/// ~50 ms, which would drown the serve layers. 32 combinations: the
/// points of one closed-loop batch of eight campaigns.
const MENU: [(&str, &[u32]); 6] = [
    ("NAStJA", &[1, 2, 3, 4, 5, 6, 7, 8]),
    ("OSU", &[2]),
    ("LinkTest", &[2, 4, 6, 8]),
    ("HPL", &[1, 2, 3, 4, 5, 6, 7, 8]),
    ("Graph500", &[1, 2, 4]),
    ("HPCG", &[1, 2, 3, 4, 5, 6, 7, 8]),
];

/// Every (benchmark, nodes) combination of the menu, in menu order.
fn combos() -> Vec<(&'static str, u32)> {
    MENU.iter()
        .flat_map(|(bench, nodes)| nodes.iter().map(move |n| (*bench, *n)))
        .collect()
}

/// `P(seed, generation)`: 200 campaigns of 4 test-scale points. Point
/// seeds are `base(seed, generation) + running index`, so they are
/// unique within a population and a new generation has never been seen
/// by a cache warmed on an earlier one.
pub fn population(seed: u64, generation: u64) -> Vec<CampaignSpec> {
    let combos = combos();
    let total = CAMPAIGNS * POINTS_PER_CAMPAIGN;
    // The menu repeated to length, each repeat (the 32 points of one
    // batch of eight campaigns) shuffled by a seeded Fisher-Yates.
    let mut points: Vec<(&str, u32)> = (0..total).map(|i| combos[i % combos.len()]).collect();
    let mut rng = rank_rng(seed, 0x9091);
    for block in points.chunks_mut(combos.len()) {
        for i in (1..block.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
    }
    let base = rank_rng(seed, 0x5EED).next_u64() ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..CAMPAIGNS)
        .map(|c| {
            let mut spec = CampaignSpec::new(
                &format!("tenant-{}", c % TENANTS),
                &format!("g{generation}-c{c}"),
                PARTITIONS[c % PARTITIONS.len()],
                base.wrapping_add(c as u64),
            );
            spec.slice_s = SLICE_S;
            for p in 0..POINTS_PER_CAMPAIGN {
                let k = c * POINTS_PER_CAMPAIGN + p;
                let (bench, nodes) = points[k];
                spec = spec.with_point(RunPoint::test(bench, nodes, base.wrapping_add(k as u64)));
            }
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn keys(pop: &[CampaignSpec]) -> BTreeSet<u128> {
        pop.iter()
            .flat_map(|s| (0..s.points.len()).map(move |i| s.point_key(i)))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let a: Vec<Vec<u8>> = population(7, 0).iter().map(|s| s.encode()).collect();
        let b: Vec<Vec<u8>> = population(7, 0).iter().map(|s| s.encode()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn point_keys_are_unique_within_a_population() {
        let pop = population(7, 0);
        assert_eq!(pop.len(), CAMPAIGNS);
        assert_eq!(keys(&pop).len(), CAMPAIGNS * POINTS_PER_CAMPAIGN);
    }

    #[test]
    fn different_seeds_and_generations_share_no_point_key() {
        let a = keys(&population(7, 0));
        assert!(a.is_disjoint(&keys(&population(8, 0))));
        assert!(a.is_disjoint(&keys(&population(7, 1))));
    }

    #[test]
    fn every_batch_of_every_seed_has_the_same_point_mix() {
        let mixes = |seed| -> Vec<Vec<(String, u32)>> {
            population(seed, 0)
                .chunks(crate::workloads::BATCH)
                .map(|batch| {
                    let mut m: Vec<(String, u32)> = batch
                        .iter()
                        .flat_map(|s| s.points.iter().map(|p| (p.bench.clone(), p.nodes)))
                        .collect();
                    m.sort();
                    m
                })
                .collect()
        };
        assert_eq!(
            combos().len(),
            crate::workloads::BATCH * POINTS_PER_CAMPAIGN,
            "one batch holds the menu once"
        );
        let (a, b) = (mixes(1), mixes(2));
        assert!(a.iter().chain(&b).all(|m| *m == a[0]));
        let order = |seed| -> Vec<u32> {
            population(seed, 0)
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.nodes))
                .collect()
        };
        assert_ne!(order(1), order(2), "the seed still moves the order");
    }

    #[test]
    fn every_spec_validates() {
        let registry = jubench::scaling::full_registry();
        for spec in population(3, 2) {
            spec.validate(&registry).expect("generated spec is valid");
        }
    }
}
