//! The machine-model catalog: declarative descriptions of heterogeneous
//! backends, each constructible as a [`Machine`] partition of any size.
//!
//! The paper evaluates one machine (JUWELS Booster) and extrapolates to
//! one proposal (JUPITER). ROADMAP item 4 asks for the generalization:
//! many machine models — different node architectures, fabrics, and
//! economics — evaluated by the same suite so procurement can compare
//! *backends*, not just proposals. Each catalog entry bundles a full
//! [`Machine`] (node architecture, interconnect topology parameters
//! feeding `cluster::netmodel`, power envelope) with a cost model
//! (capex-amortized on-prem or cloud per-node-hour) and a short
//! description of what the backend represents.

use jubench_cluster::{CostModel, GpuSpec, Machine, NetModel, NodeSpec};

/// One catalog entry: a machine backend plus its catalog identity.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Short stable slug used in tables and campaign names.
    pub key: &'static str,
    /// What the backend represents.
    pub description: &'static str,
    /// The full machine model; partition it to any size with
    /// [`Machine::partition`].
    pub machine: Machine,
}

impl MachineModel {
    /// The JUWELS-Booster-like baseline — the reference backend every
    /// other catalog entry is normalized against.
    pub fn booster_baseline() -> Self {
        MachineModel {
            key: "booster",
            description: "JUWELS-Booster-like baseline: 4x A100-40GB per node, \
                          4x HDR200, DragonFly+ cells of 48, owned",
            machine: Machine::juwels_booster(),
        }
    }

    /// A CPU-only cluster: one dual-EPYC node "device" per node, an
    /// EDR100-class fat-tree, cheap nodes, modest power.
    pub fn cpu_cluster() -> Self {
        MachineModel {
            key: "cpu",
            description: "CPU-only cluster: 2x EPYC Rome per node, EDR100-class \
                          fabric, owned",
            machine: Machine {
                name: "CPU cluster",
                nodes: 1280,
                node: NodeSpec {
                    gpu: GpuSpec::epyc_rome_node(),
                    gpus_per_node: 1,
                    nics_per_node: 2,
                    nic_bw: 12.5e9,
                    power_w: 700.0,
                },
                cell_nodes: 48,
                net: NetModel::cpu_cluster(),
                cost: CostModel::on_prem(25_000.0),
            },
        }
    }

    /// A next-generation GPU node: fatter accelerators (H100/GH200
    /// class), an NDR200-class fabric, higher per-node price and power.
    pub fn nextgen_gpu() -> Self {
        MachineModel {
            key: "nextgen",
            description: "Next-gen GPU cluster: 4x NextGen-96GB per node, \
                          NDR200-class fabric, owned",
            machine: Machine {
                name: "NextGen GPU cluster",
                nodes: 3672,
                node: NodeSpec {
                    gpu: GpuSpec::next_gen_96gb(),
                    gpus_per_node: 4,
                    nics_per_node: 4,
                    nic_bw: 50.0e9,
                    power_w: 2800.0,
                },
                cell_nodes: 48,
                net: NetModel::next_gen_fabric(),
                cost: CostModel::on_prem(136_000.0),
            },
        }
    }

    /// A cloud 8-GPU instance type, priced per node-hour (zero capex):
    /// NVLink inside the instance, oversubscribed Ethernet between
    /// instances — the Mohammadi & Bazhirov continuous-evaluation
    /// setting.
    pub fn cloud_instance() -> Self {
        MachineModel {
            key: "cloud",
            description: "Cloud 8-GPU instance type: 8x A100-80GB, 400G \
                          Ethernet spine, rented per node-hour",
            machine: Machine {
                name: "Cloud HGX instance",
                nodes: 512,
                node: NodeSpec {
                    gpu: GpuSpec::a100_80gb_cloud(),
                    gpus_per_node: 8,
                    nics_per_node: 1,
                    nic_bw: 50.0e9,
                    power_w: 6500.0,
                },
                cell_nodes: 64,
                net: NetModel::cloud_ethernet(),
                cost: CostModel::cloud(28.0),
            },
        }
    }
}

/// The standard four-backend catalog, reference (Booster baseline)
/// first. Order is part of the deterministic contract: fleet tables
/// list backends in catalog order unless explicitly ranked.
pub fn standard_catalog() -> Vec<MachineModel> {
    vec![
        MachineModel::booster_baseline(),
        MachineModel::cpu_cluster(),
        MachineModel::nextgen_gpu(),
        MachineModel::cloud_instance(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_four_distinct_backends() {
        let catalog = standard_catalog();
        assert_eq!(catalog.len(), 4);
        for (i, a) in catalog.iter().enumerate() {
            for b in catalog.iter().skip(i + 1) {
                assert_ne!(a.key, b.key);
                assert_ne!(
                    a.machine.fingerprint_bytes(),
                    b.machine.fingerprint_bytes(),
                    "{} and {} must never share a fingerprint",
                    a.key,
                    b.key
                );
            }
        }
    }

    #[test]
    fn backends_never_share_a_cache_key_at_any_partition_size() {
        // The regression the serve cache depends on: equal-sized
        // partitions of different backends stay distinguishable.
        let catalog = standard_catalog();
        for nodes in [1, 8, 96] {
            let prints: Vec<_> = catalog
                .iter()
                .map(|m| m.machine.partition(nodes).fingerprint_bytes())
                .collect();
            for (i, a) in prints.iter().enumerate() {
                for b in prints.iter().skip(i + 1) {
                    assert_ne!(a, b, "collision at {nodes} nodes");
                }
            }
        }
    }

    #[test]
    fn every_backend_partitions_to_small_sizes() {
        for model in standard_catalog() {
            assert_eq!(model.machine.check(), Ok(()), "{}", model.key);
            let p = model.machine.partition(8);
            assert_eq!(p.nodes, 8);
            assert!(p.peak_flops() > 0.0);
            assert!(p.node.power_w > 0.0);
        }
    }

    #[test]
    fn economics_split_on_prem_vs_cloud() {
        for model in standard_catalog() {
            let c = model.machine.cost;
            if model.key == "cloud" {
                assert_eq!(c.capex_per_node_eur, 0.0);
                assert!(c.rental_eur_per_node_hour > 0.0);
            } else {
                assert!(c.capex_per_node_eur > 0.0);
                assert_eq!(c.rental_eur_per_node_hour, 0.0);
            }
        }
    }

    #[test]
    fn fabric_parameters_differ_from_the_baseline() {
        let base = MachineModel::booster_baseline().machine.net;
        assert_ne!(MachineModel::cpu_cluster().machine.net, base);
        assert_ne!(MachineModel::nextgen_gpu().machine.net, base);
        assert_ne!(MachineModel::cloud_instance().machine.net, base);
    }
}
