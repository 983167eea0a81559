//! Node and machine specifications.

use crate::cost::CostModel;
use crate::netmodel::NetModel;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Distinct names [`intern_name`] will ever leak. Decoded backends name
/// their machine and device, and those bytes come off the wire: without
/// a bound a session could send a million names that never come back.
const MAX_INTERNED_NAMES: usize = 1024;

/// Intern a machine or device name, returning a `&'static str` for it.
///
/// Machine models keep their names as `&'static str` so [`Machine`]
/// stays `Copy` and fingerprinting stays allocation-free on the preset
/// path (the presets and catalogs carry literals and never come here).
/// Backends decoded from snapshots or frames arrive with owned strings;
/// interning leaks each *distinct* name once (deduplicated through a
/// global set), the first `MAX_INTERNED_NAMES` (1 024) of them. After
/// that a name already interned is still found and a new one is refused
/// (`None`).
pub fn intern_name(name: &str) -> Option<&'static str> {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().expect("name intern table poisoned");
    if let Some(existing) = set.get(name) {
        return Some(existing);
    }
    if set.len() >= MAX_INTERNED_NAMES {
        return None;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    Some(leaked)
}

/// An accelerator device. The preparation system uses NVIDIA A100-40GB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    pub name: &'static str,
    /// Peak FP64 throughput in FLOP/s.
    pub fp64_flops: f64,
    /// Device (HBM) memory capacity in bytes.
    pub memory_bytes: u64,
    /// Device memory bandwidth in bytes/s.
    pub mem_bw: f64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-40GB as installed in JUWELS Booster: 9.7 TFLOP/s
    /// FP64 (19.5 with tensor cores), 40 GB HBM2e at 1555 GB/s.
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-40GB",
            fp64_flops: 9.7e12,
            memory_bytes: 40 * (1 << 30),
            mem_bw: 1.555e12,
        }
    }

    /// The CPU side of a JUWELS Booster node treated as one "device" for
    /// the per-node placement of the CPU-only codes (NAStJA, DynQCD):
    /// 2 × AMD EPYC Rome 7402 (48 cores) with 512 GB DDR4.
    pub fn epyc_rome_node() -> Self {
        GpuSpec {
            name: "2x EPYC Rome 7402",
            fp64_flops: 2.0e12,
            memory_bytes: 512 * (1 << 30),
            mem_bw: 0.38e12,
        }
    }

    /// A next-generation accelerator for proposal modeling: the paper notes
    /// "the trend of growing imbalance between the advancement of compute
    /// power and memory" — compute grows faster (×3.5) than memory capacity
    /// (×2.4) and bandwidth (×2.6), roughly an H100/GH200-class device.
    pub fn next_gen_96gb() -> Self {
        GpuSpec {
            name: "NextGen-96GB",
            fp64_flops: 34.0e12,
            memory_bytes: 96 * (1 << 30),
            mem_bw: 4.0e12,
        }
    }

    /// An A100-80GB as rented in 8-GPU cloud instances: same FP64 peak as
    /// the 40 GB part, doubled capacity, slightly higher HBM bandwidth.
    pub fn a100_80gb_cloud() -> Self {
        GpuSpec {
            name: "A100-80GB (cloud)",
            fp64_flops: 9.7e12,
            memory_bytes: 80 * (1 << 30),
            mem_bw: 2.0e12,
        }
    }
}

/// A compute node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    pub gpu: GpuSpec,
    /// GPUs per node (4 on JUWELS Booster, one NIC per GPU).
    pub gpus_per_node: u32,
    /// High-speed network adapters per node.
    pub nics_per_node: u32,
    /// Injection bandwidth per NIC in bytes/s (HDR200 ≈ 25 GB/s).
    pub nic_bw: f64,
    /// Node power draw under load, in watts (used by the TCO model).
    pub power_w: f64,
}

impl NodeSpec {
    /// A JUWELS Booster node: 4 × A100, 4 × InfiniBand HDR200, 2 × AMD EPYC
    /// Rome 7402, ≈ 2.5 kW under load.
    pub fn juwels_booster() -> Self {
        NodeSpec {
            gpu: GpuSpec::a100_40gb(),
            gpus_per_node: 4,
            nics_per_node: 4,
            nic_bw: 25.0e9,
            power_w: 2500.0,
        }
    }

    /// Peak FP64 node performance in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.gpu.fp64_flops * self.gpus_per_node as f64
    }

    /// Total device memory per node in bytes.
    pub fn gpu_memory_bytes(&self) -> u64 {
        self.gpu.memory_bytes * self.gpus_per_node as u64
    }
}

/// A (partition of a) machine: `nodes` identical nodes arranged in
/// DragonFly+ cells of `cell_nodes` nodes (2 racks = 48 nodes per cell on
/// JUWELS Booster), with the interconnect model and cost model of the
/// backend it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    pub name: &'static str,
    pub nodes: u32,
    pub node: NodeSpec,
    pub cell_nodes: u32,
    /// Interconnect performance model of this backend's fabric.
    pub net: NetModel,
    /// Cost model of this backend (capex-amortized or per-node-hour).
    pub cost: CostModel,
}

impl Machine {
    /// The full preparation system: JUWELS Booster, 936 GPU nodes in 39
    /// racks, 2 racks (48 nodes) per DragonFly+ cell, 73 PFLOP/s(th).
    /// Capex ≈ 73 M EUR for 936 nodes ≈ 78 k EUR per node.
    pub fn juwels_booster() -> Self {
        Machine {
            name: "JUWELS Booster",
            nodes: 936,
            node: NodeSpec::juwels_booster(),
            cell_nodes: 48,
            net: NetModel::juwels_booster(),
            cost: CostModel::on_prem(78_000.0),
        }
    }

    /// The 50 PFLOP/s(th) High-Scaling sub-partition of the preparation
    /// system: "about 640 nodes" (§II-C; 642 × 4 × 9.7 TF ≈ 25 PF FP64,
    /// which the paper counts as 50 PF(th) including tensor-core peak).
    pub fn high_scaling_partition() -> Self {
        Machine {
            name: "JUWELS Booster 50 PF partition",
            nodes: 642,
            ..Self::juwels_booster()
        }
    }

    /// An envisioned JUPITER-class proposal: a partition with 20× the
    /// theoretical peak of the 50 PFLOP/s(th) sub-partition, built from
    /// next-generation devices. With ≈ 3.5× faster devices, ≈ 20/3.5 × 642
    /// ≈ 3670 nodes.
    pub fn jupiter_proposal() -> Self {
        let node = NodeSpec {
            gpu: GpuSpec::next_gen_96gb(),
            nic_bw: 50.0e9, // NDR200-class
            power_w: 2800.0,
            ..NodeSpec::juwels_booster()
        };
        let reference = Self::high_scaling_partition();
        let target_flops = 20.0 * reference.peak_flops();
        let nodes = (target_flops / node.peak_flops()).ceil() as u32;
        Machine {
            name: "JUPITER proposal",
            nodes,
            node,
            cell_nodes: 48,
            net: NetModel::next_gen_fabric(),
            cost: CostModel::on_prem(136_000.0),
        }
    }

    /// A sub-partition of this machine with `nodes` nodes. The partition
    /// is the node-index prefix `0..nodes` of the parent, and it keeps
    /// the parent's cell grid: every partition cell range is a (possibly
    /// truncated) prefix of the corresponding parent cell range, so
    /// [`cells`](Self::cells) and [`cell_of_node`](Self::cell_of_node)
    /// stay consistent with the parent's cell boundaries.
    pub fn partition(&self, nodes: u32) -> Machine {
        assert!(
            nodes >= 1 && nodes <= self.nodes,
            "partition of {} nodes from {}",
            nodes,
            self.nodes
        );
        Machine { nodes, ..*self }
    }

    /// Whether the model can be computed with: the first field, if any,
    /// that would divide by zero, overflow a device or memory total, or
    /// put a NaN, an infinity or a negative time into a virtual clock.
    /// The presets pass; a model that arrives as data — a decoded
    /// campaign backend, a user catalog — must be checked before any
    /// other method here is called on it.
    pub fn check(&self) -> Result<(), String> {
        let fail = |what: String| Err(format!("machine `{}`: {what}", self.name));
        let (node, net, cost) = (&self.node, &self.net, &self.cost);
        for (what, n) in [
            ("nodes", self.nodes),
            ("cell_nodes", self.cell_nodes),
            ("gpus_per_node", node.gpus_per_node),
            ("nics_per_node", node.nics_per_node),
        ] {
            if n == 0 {
                return fail(format!("{what} must be ≥ 1"));
            }
        }
        let total_memory = self
            .nodes
            .checked_mul(node.gpus_per_node)
            .and_then(|devices| node.gpu.memory_bytes.checked_mul(devices as u64));
        if matches!(total_memory, None | Some(0)) {
            return fail("device count or total device memory is zero or overflows".to_string());
        }
        // Rates divide, so finite and positive; latencies and prices
        // add, so finite and ≥ 0 (an on-prem backend rents for 0, a
        // cloud one has no capex).
        for (what, v) in [
            ("gpu fp64_flops", node.gpu.fp64_flops),
            ("gpu mem_bw", node.gpu.mem_bw),
            ("nic_bw", node.nic_bw),
            ("power_w", node.power_w),
            ("intra_node bandwidth", net.intra_node.bandwidth),
            ("intra_cell bandwidth", net.intra_cell.bandwidth),
            ("inter_cell bandwidth", net.inter_cell.bandwidth),
            ("inter_module bandwidth", net.inter_module.bandwidth),
            ("device_copy_bw", net.device_copy_bw),
            ("congestion_floor", net.congestion_floor),
            ("pue", cost.pue),
            ("lifetime_years", cost.lifetime_years),
            ("utilization", cost.utilization),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return fail(format!("{what} must be finite and positive, got {v}"));
            }
        }
        for (what, v) in [
            ("intra_node latency", net.intra_node.latency_s),
            ("intra_cell latency", net.intra_cell.latency_s),
            ("inter_cell latency", net.inter_cell.latency_s),
            ("inter_module latency", net.inter_module.latency_s),
            ("capex_per_node_eur", cost.capex_per_node_eur),
            ("rental_eur_per_node_hour", cost.rental_eur_per_node_hour),
            ("electricity_eur_per_kwh", cost.electricity_eur_per_kwh),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return fail(format!("{what} must be finite and ≥ 0, got {v}"));
            }
        }
        Ok(())
    }

    /// Theoretical peak FP64 performance in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.node.peak_flops() * self.nodes as f64
    }

    /// Total device memory in bytes.
    pub fn gpu_memory_bytes(&self) -> u64 {
        self.node.gpu_memory_bytes() * self.nodes as u64
    }

    /// Total number of devices (one MPI rank per device, as on the real
    /// system: "each MPI task controls one of the GPUs").
    pub fn devices(&self) -> u32 {
        self.nodes * self.node.gpus_per_node
    }

    /// Number of DragonFly+ cells (rounded up: the last cell may be
    /// partially populated).
    pub fn cells(&self) -> u32 {
        self.nodes.div_ceil(self.cell_nodes)
    }

    /// The cell hosting node index `node`.
    pub fn cell_of_node(&self, node: u32) -> u32 {
        assert!(node < self.nodes, "node {} of {}", node, self.nodes);
        node / self.cell_nodes
    }

    /// Canonical content bytes of this machine model: every field that
    /// shapes a run's result or its price, in declaration order, floats
    /// as IEEE-754 bit patterns. Two machines with equal fingerprint
    /// bytes model the same hardware under the same economics — the
    /// property content-addressed result caching and shard routing key
    /// on, and what keeps two catalog backends from ever sharing a
    /// cache entry.
    pub fn fingerprint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.name.as_bytes());
        out.push(0);
        out.extend_from_slice(&self.nodes.to_le_bytes());
        out.extend_from_slice(&self.cell_nodes.to_le_bytes());
        out.extend_from_slice(self.node.gpu.name.as_bytes());
        out.push(0);
        out.extend_from_slice(&self.node.gpu.fp64_flops.to_bits().to_le_bytes());
        out.extend_from_slice(&self.node.gpu.memory_bytes.to_le_bytes());
        out.extend_from_slice(&self.node.gpu.mem_bw.to_bits().to_le_bytes());
        out.extend_from_slice(&self.node.gpus_per_node.to_le_bytes());
        out.extend_from_slice(&self.node.nics_per_node.to_le_bytes());
        out.extend_from_slice(&self.node.nic_bw.to_bits().to_le_bytes());
        out.extend_from_slice(&self.node.power_w.to_bits().to_le_bytes());
        for link in [
            self.net.intra_node,
            self.net.intra_cell,
            self.net.inter_cell,
            self.net.inter_module,
        ] {
            out.extend_from_slice(&link.latency_s.to_bits().to_le_bytes());
            out.extend_from_slice(&link.bandwidth.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.net.device_copy_bw.to_bits().to_le_bytes());
        out.extend_from_slice(&self.net.congestion_onset_nodes.to_le_bytes());
        out.extend_from_slice(&self.net.congestion_floor.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.capex_per_node_eur.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.rental_eur_per_node_hour.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.electricity_eur_per_kwh.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.pue.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.lifetime_years.to_bits().to_le_bytes());
        out.extend_from_slice(&self.cost.utilization.to_bits().to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn juwels_booster_matches_paper() {
        let m = Machine::juwels_booster();
        assert_eq!(m.nodes, 936);
        assert_eq!(m.node.gpus_per_node, 4);
        assert_eq!(m.node.nics_per_node, 4);
        assert_eq!(m.cell_nodes, 48);
        assert_eq!(m.devices(), 3744);
        // 936 × 4 × 9.7 TF = 36.3 PF FP64 vector peak; the paper's
        // 73 PF(th) counts FP64 tensor-core peak (×2).
        let pf = m.peak_flops() / 1e15;
        assert!(
            (pf * 2.0 - 73.0).abs() < 1.0,
            "2x vector peak ≈ 73 PF, got {pf}"
        );
    }

    #[test]
    fn a100_memory_is_40gb() {
        assert_eq!(GpuSpec::a100_40gb().memory_bytes, 40 * (1 << 30));
    }

    #[test]
    fn high_scaling_partition_is_about_640_nodes() {
        let p = Machine::high_scaling_partition();
        assert_eq!(p.nodes, 642);
        assert_eq!(p.cells(), 14);
    }

    #[test]
    fn jupiter_proposal_hits_20x_peak() {
        let prop = Machine::jupiter_proposal();
        let reference = Machine::high_scaling_partition();
        let ratio = prop.peak_flops() / reference.peak_flops();
        assert!((20.0..21.0).contains(&ratio), "ratio {ratio}");
        assert!(prop.node.gpu.memory_bytes > GpuSpec::a100_40gb().memory_bytes);
    }

    #[test]
    fn partition_preserves_node_spec() {
        let m = Machine::juwels_booster();
        let p = m.partition(8);
        assert_eq!(p.nodes, 8);
        assert_eq!(p.node, m.node);
        assert_eq!(p.cells(), 1);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn oversized_partition_panics() {
        Machine::juwels_booster().partition(1000);
    }

    #[test]
    fn partition_cells_stay_consistent_with_parent_boundaries() {
        let parent = Machine::juwels_booster();
        // 50 nodes: a full first cell plus 2 nodes spilling into cell 1.
        let p = parent.partition(50);
        assert_eq!(p.cells(), 2);
        // Node→cell assignment agrees with the parent on shared nodes.
        for n in 0..p.nodes {
            assert_eq!(p.cell_of_node(n), parent.cell_of_node(n));
        }
        assert_eq!(p.cell_of_node(47), 0);
        assert_eq!(p.cell_of_node(48), 1);
    }

    #[test]
    #[should_panic(expected = "node")]
    fn cell_of_node_rejects_out_of_range() {
        Machine::juwels_booster().partition(4).cell_of_node(4);
    }

    #[test]
    fn node_aggregates() {
        let n = NodeSpec::juwels_booster();
        assert_eq!(n.gpu_memory_bytes(), 160 * (1 << 30));
        assert!((n.peak_flops() - 4.0 * 9.7e12).abs() < 1.0);
    }

    #[test]
    fn fingerprint_covers_topology_fields() {
        let base = Machine::juwels_booster().partition(8);
        let mut faster_fabric = base;
        faster_fabric.net.inter_cell.bandwidth *= 2.0;
        assert_ne!(
            base.fingerprint_bytes(),
            faster_fabric.fingerprint_bytes(),
            "inter-cell bandwidth must reach the fingerprint"
        );
        let mut late_congestion = base;
        late_congestion.net.congestion_onset_nodes = 512;
        assert_ne!(
            base.fingerprint_bytes(),
            late_congestion.fingerprint_bytes()
        );
    }

    #[test]
    fn fingerprint_covers_cost_fields() {
        let base = Machine::juwels_booster().partition(8);
        let mut cheaper = base;
        cheaper.cost.capex_per_node_eur /= 2.0;
        assert_ne!(base.fingerprint_bytes(), cheaper.fingerprint_bytes());
        let mut rented = base;
        rented.cost = CostModel::cloud(28.0);
        assert_ne!(base.fingerprint_bytes(), rented.fingerprint_bytes());
    }

    #[test]
    fn check_passes_the_presets_and_names_the_broken_field() {
        let presets = [
            Machine::juwels_booster(),
            Machine::high_scaling_partition(),
            Machine::jupiter_proposal(),
        ];
        for m in presets {
            assert_eq!(m.check(), Ok(()), "{}", m.name);
            assert_eq!(m.partition(1).check(), Ok(()));
        }
        type Forge = fn(&mut Machine);
        let broken: [(&str, Forge); 7] = [
            ("cell_nodes", |m| m.cell_nodes = 0),
            ("gpus_per_node", |m| m.node.gpus_per_node = 0),
            ("nics_per_node", |m| m.node.nics_per_node = 0),
            ("overflows", |m| m.nodes = u32::MAX),
            ("inter_cell bandwidth", |m| m.net.inter_cell.bandwidth = 0.0),
            ("intra_node latency", |m| m.net.intra_node.latency_s = -1e-6),
            ("pue", |m| m.cost.pue = f64::NAN),
        ];
        for (field, forge) in broken {
            let mut m = Machine::juwels_booster();
            forge(&mut m);
            let err = m.check().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
        let mut free = Machine::juwels_booster();
        free.cost = CostModel::cloud(28.0);
        assert_eq!(free.check(), Ok(()), "zero capex is a price, not an error");
    }

    /// One test, because the table is the process's: past the cap
    /// nothing new is interned for anyone.
    #[test]
    fn intern_deduplicates_matches_static_presets_and_is_capped() {
        let a = intern_name("Fleet Backend X").unwrap();
        let b = intern_name(&String::from("Fleet Backend X")).unwrap();
        assert!(std::ptr::eq(a, b), "same name interns to the same slice");
        assert_eq!(intern_name("JUWELS Booster"), Some("JUWELS Booster"));

        let flood: Vec<&str> = (0..2 * MAX_INTERNED_NAMES)
            .map_while(|i| intern_name(&format!("capped backend {i}")))
            .collect();
        assert_eq!(flood.len(), MAX_INTERNED_NAMES - 2, "the two above count");
        assert_eq!(intern_name("one name too many"), None);
        assert_eq!(intern_name("capped backend 0"), Some(flood[0]));
        assert_eq!(intern_name("Fleet Backend X"), Some(a));
    }
}
