//! Campaign specifications: what a tenant submits to the service.
//!
//! A [`CampaignSpec`] is pure data — a machine partition, a scheduler
//! configuration, an optional fault plan, and a list of [`RunPoint`]s to
//! execute. Its canonical byte encoding (via the checkpoint serializer)
//! doubles as the wire form of the `Submit` frame and as the persisted
//! form inside shard snapshots, so a spec roundtrips bit-exactly through
//! both paths.
//!
//! Those bytes come from outside, so there are two gates. *Decoding*
//! yields a well-formed value or a [`CkptError`]: counts go through
//! [`SnapshotReader::get_seq`], a fault plan through
//! [`FaultPlan::from_parts`], names are bounded before they are
//! interned. [`CampaignSpec::validate`] then decides whether the value
//! is *usable* — the backend through [`Machine::check`], the rest here —
//! and its refusal is a typed `Rejected` the tenant can read. Nothing
//! behind `validate` re-checks a spec it was handed; a shard that
//! decodes one from a snapshot asks again, minus the registry (DESIGN
//! §13, "the sequence codec and the trust boundary").
//!
//! [`CampaignSpec::point_key`] derives the content address of one run
//! point: a 128-bit FNV-1a key over the canonical bytes of everything a
//! point's result is a function of — benchmark id, parameter point,
//! machine-model fingerprint, seed, and fault plan. Identical keys mean
//! identical results under the suite's determinism contract, which is
//! exactly what licenses the result cache to answer without re-executing.

use jubench_ckpt::{CkptError, SnapshotReader, SnapshotWriter};
use jubench_cluster::{intern_name, CostModel, GpuSpec, LinkParams, Machine, NetModel, NodeSpec};
use jubench_core::{content_key128, BenchmarkId, MemoryVariant, Registry, WorkloadScale};
use jubench_faults::{Fault, FaultPlan};
use jubench_sched::{PlacementPolicy, QueuePolicy};

/// One benchmark execution requested by a campaign: the full parameter
/// point of a [`jubench_core::RunConfig`] plus the benchmark to run it
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPoint {
    /// Suite benchmark name (see [`BenchmarkId::name`]).
    pub bench: String,
    /// Node count of the point.
    pub nodes: u32,
    /// Problem-size scaling.
    pub scale: WorkloadScale,
    /// Memory variant (`None` = Base workload).
    pub variant: Option<MemoryVariant>,
    /// Workload-generation seed.
    pub seed: u64,
}

impl RunPoint {
    /// A test-scale Base point — the common case in campaigns.
    pub fn test(bench: &str, nodes: u32, seed: u64) -> Self {
        RunPoint {
            bench: bench.to_string(),
            nodes,
            scale: WorkloadScale::Test,
            variant: None,
            seed,
        }
    }

    fn put(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.bench);
        w.put_u32(self.nodes);
        w.put_u8(scale_code(self.scale));
        w.put_u8(variant_code(self.variant));
        w.put_u64(self.seed);
    }

    fn get(r: &mut SnapshotReader) -> Result<Self, CkptError> {
        Ok(RunPoint {
            bench: r.get_str("point bench")?,
            nodes: r.get_u32("point nodes")?,
            scale: scale_from(r.get_u8("point scale")?)?,
            variant: variant_from(r.get_u8("point variant")?)?,
            seed: r.get_u64("point seed")?,
        })
    }
}

fn scale_code(s: WorkloadScale) -> u8 {
    match s {
        WorkloadScale::Test => 0,
        WorkloadScale::Bench => 1,
        WorkloadScale::Paper => 2,
    }
}

fn scale_from(code: u8) -> Result<WorkloadScale, CkptError> {
    match code {
        0 => Ok(WorkloadScale::Test),
        1 => Ok(WorkloadScale::Bench),
        2 => Ok(WorkloadScale::Paper),
        _ => Err(CkptError::Malformed {
            what: "workload scale code".to_string(),
        }),
    }
}

fn variant_code(v: Option<MemoryVariant>) -> u8 {
    match v {
        None => 0,
        Some(MemoryVariant::Tiny) => 1,
        Some(MemoryVariant::Small) => 2,
        Some(MemoryVariant::Medium) => 3,
        Some(MemoryVariant::Large) => 4,
    }
}

fn variant_from(code: u8) -> Result<Option<MemoryVariant>, CkptError> {
    match code {
        0 => Ok(None),
        1 => Ok(Some(MemoryVariant::Tiny)),
        2 => Ok(Some(MemoryVariant::Small)),
        3 => Ok(Some(MemoryVariant::Medium)),
        4 => Ok(Some(MemoryVariant::Large)),
        _ => Err(CkptError::Malformed {
            what: "memory variant code".to_string(),
        }),
    }
}

fn put_plan(w: &mut SnapshotWriter, plan: &FaultPlan) {
    w.put_u64(plan.seed());
    w.put_f64(plan.recv_timeout_s());
    w.put_seq(plan.faults(), |w, fault| match *fault {
        Fault::DegradedLink { a, b, factor } => {
            w.put_u8(0);
            w.put_u32(a);
            w.put_u32(b);
            w.put_f64(factor);
        }
        Fault::FlappingLink {
            a,
            b,
            factor,
            period_s,
            up_fraction,
        } => {
            w.put_u8(1);
            w.put_u32(a);
            w.put_u32(b);
            w.put_f64(factor);
            w.put_f64(period_s);
            w.put_f64(up_fraction);
        }
        Fault::SlowNode {
            node,
            factor,
            from_s,
            until_s,
        } => {
            w.put_u8(2);
            w.put_u32(node);
            w.put_f64(factor);
            w.put_f64(from_s);
            w.put_f64(until_s);
        }
        Fault::MessageDrop {
            from,
            to,
            probability,
        } => {
            w.put_u8(3);
            w.put_u32(from);
            w.put_u32(to);
            w.put_f64(probability);
        }
        Fault::RankCrash { rank, at_s } => {
            w.put_u8(4);
            w.put_u32(rank);
            w.put_f64(at_s);
        }
    });
}

/// Decode a plan and hand its parts to [`FaultPlan::from_parts`], which
/// owns what a valid fault is: a forged factor or window is `Malformed`
/// here, never an `assert!` inside a builder.
fn get_plan(r: &mut SnapshotReader) -> Result<FaultPlan, CkptError> {
    let seed = r.get_u64("plan seed")?;
    let recv_timeout_s = r.get_f64("plan recv timeout")?;
    let faults = r.get_seq("plan fault count", |r| {
        Ok(match r.get_u8("fault kind")? {
            0 => Fault::DegradedLink {
                a: r.get_u32("fault a")?,
                b: r.get_u32("fault b")?,
                factor: r.get_f64("fault factor")?,
            },
            1 => Fault::FlappingLink {
                a: r.get_u32("fault a")?,
                b: r.get_u32("fault b")?,
                factor: r.get_f64("fault factor")?,
                period_s: r.get_f64("fault period")?,
                up_fraction: r.get_f64("fault up fraction")?,
            },
            2 => Fault::SlowNode {
                node: r.get_u32("fault node")?,
                factor: r.get_f64("fault factor")?,
                from_s: r.get_f64("fault from")?,
                until_s: r.get_f64("fault until")?,
            },
            3 => Fault::MessageDrop {
                from: r.get_u32("fault from")?,
                to: r.get_u32("fault to")?,
                probability: r.get_f64("fault probability")?,
            },
            4 => Fault::RankCrash {
                rank: r.get_u32("fault rank")?,
                at_s: r.get_f64("fault at")?,
            },
            _ => {
                return Err(CkptError::Malformed {
                    what: "fault kind code".to_string(),
                })
            }
        })
    })?;
    FaultPlan::from_parts(seed, recv_timeout_s, faults)
        .map_err(|what| CkptError::Malformed { what })
}

/// Serialize a full machine model (architecture, interconnect, cost) —
/// the wire form of a campaign's backend.
fn put_machine(w: &mut SnapshotWriter, m: &Machine) {
    w.put_str(m.name);
    w.put_u32(m.nodes);
    w.put_u32(m.cell_nodes);
    w.put_str(m.node.gpu.name);
    w.put_f64(m.node.gpu.fp64_flops);
    w.put_u64(m.node.gpu.memory_bytes);
    w.put_f64(m.node.gpu.mem_bw);
    w.put_u32(m.node.gpus_per_node);
    w.put_u32(m.node.nics_per_node);
    w.put_f64(m.node.nic_bw);
    w.put_f64(m.node.power_w);
    for link in [
        m.net.intra_node,
        m.net.intra_cell,
        m.net.inter_cell,
        m.net.inter_module,
    ] {
        w.put_f64(link.latency_s);
        w.put_f64(link.bandwidth);
    }
    w.put_f64(m.net.device_copy_bw);
    w.put_u32(m.net.congestion_onset_nodes);
    w.put_f64(m.net.congestion_floor);
    w.put_f64(m.cost.capex_per_node_eur);
    w.put_f64(m.cost.rental_eur_per_node_hour);
    w.put_f64(m.cost.electricity_eur_per_kwh);
    w.put_f64(m.cost.pue);
    w.put_f64(m.cost.lifetime_years);
    w.put_f64(m.cost.utilization);
}

/// Longest machine or device name a decoded backend may carry (the
/// presets' longest is 30 bytes).
const MAX_NAME_BYTES: usize = 64;

/// Largest partition a campaign may name: ten times JUPITER's ≈ 6 000
/// nodes, 17 times the catalog's largest backend. The scheduler keeps a
/// set entry per node, and a decoded backend may claim a billion.
const MAX_PARTITION_NODES: u32 = 65_536;

/// Read a name and intern it (machine models carry `&'static str`
/// names). Every distinct name is leaked once and a frame may hold
/// megabytes, so the length is refused here, before the intern table
/// sees it: one decoded backend can leak two short strings, and all of
/// them together the table's cap — past it a new name is refused too.
fn get_name(r: &mut SnapshotReader, what: &'static str) -> Result<&'static str, CkptError> {
    let name = r.get_str(what)?;
    if name.len() > MAX_NAME_BYTES {
        return Err(CkptError::Malformed {
            what: format!("{what}: {} bytes exceed {MAX_NAME_BYTES}", name.len()),
        });
    }
    intern_name(&name).ok_or_else(|| CkptError::Malformed {
        what: format!("{what}: too many distinct names decoded, `{name}` is new"),
    })
}

/// Restore a machine model serialized by [`put_machine`]. The fields
/// are taken as they come: whether they describe a usable machine is
/// [`Machine::check`]'s question, asked by [`CampaignSpec::validate`].
fn get_machine(r: &mut SnapshotReader) -> Result<Machine, CkptError> {
    let name = get_name(r, "machine name")?;
    let nodes = r.get_u32("machine nodes")?;
    let cell_nodes = r.get_u32("machine cell nodes")?;
    let gpu = GpuSpec {
        name: get_name(r, "gpu name")?,
        fp64_flops: r.get_f64("gpu flops")?,
        memory_bytes: r.get_u64("gpu memory")?,
        mem_bw: r.get_f64("gpu mem bw")?,
    };
    let node = NodeSpec {
        gpu,
        gpus_per_node: r.get_u32("gpus per node")?,
        nics_per_node: r.get_u32("nics per node")?,
        nic_bw: r.get_f64("nic bw")?,
        power_w: r.get_f64("node power")?,
    };
    let mut links = [LinkParams {
        latency_s: 0.0,
        bandwidth: 0.0,
    }; 4];
    for link in &mut links {
        link.latency_s = r.get_f64("link latency")?;
        link.bandwidth = r.get_f64("link bandwidth")?;
    }
    let net = NetModel {
        intra_node: links[0],
        intra_cell: links[1],
        inter_cell: links[2],
        inter_module: links[3],
        device_copy_bw: r.get_f64("device copy bw")?,
        congestion_onset_nodes: r.get_u32("congestion onset")?,
        congestion_floor: r.get_f64("congestion floor")?,
    };
    let cost = CostModel {
        capex_per_node_eur: r.get_f64("cost capex")?,
        rental_eur_per_node_hour: r.get_f64("cost rental")?,
        electricity_eur_per_kwh: r.get_f64("cost electricity")?,
        pue: r.get_f64("cost pue")?,
        lifetime_years: r.get_f64("cost lifetime")?,
        utilization: r.get_f64("cost utilization")?,
    };
    Ok(Machine {
        name,
        nodes,
        node,
        cell_nodes,
        net,
        cost,
    })
}

/// A campaign: one tenant's batch of run points plus the machine
/// partition and scheduler configuration to place them on.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Tenant identity — a namespace for accounting, not access control.
    pub tenant: String,
    /// Human-readable campaign name.
    pub name: String,
    /// The machine backend the campaign runs on; `nodes` selects a
    /// partition of it. Campaigns on different backends never share
    /// cache entries (the backend's fingerprint is part of every point
    /// key) and route to shards independently.
    pub backend: Machine,
    /// Node count of the backend partition the campaign runs on.
    pub nodes: u32,
    /// Scheduler seed.
    pub seed: u64,
    /// Queueing policy.
    pub policy: QueuePolicy,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Virtual seconds between consecutive job submissions.
    pub spacing_s: f64,
    /// Width of the slices a scheduling unit advances by: a unit ends at
    /// the end of the slice holding the scheduler's next instant, where
    /// the shard yields (and the campaign becomes snapshottable /
    /// migratable). Silent slices cost nothing, so any positive width
    /// finishes in a unit per instant.
    pub slice_s: f64,
    /// Virtual-time deadline: if the campaign's scheduler horizon
    /// reaches this before the schedule completes, the service cancels
    /// the campaign with a typed
    /// [`CancelReason::DeadlineExceeded`](crate::wire::CancelReason)
    /// instead of running it forever. `f64::INFINITY` (the default)
    /// disables the deadline. Checked at unit boundaries, so the
    /// effective cutoff is the first slice end at or past the deadline.
    pub deadline_s: f64,
    /// Fault plan applied while scheduling the campaign's jobs.
    pub plan: FaultPlan,
    /// The run points to execute.
    pub points: Vec<RunPoint>,
}

impl CampaignSpec {
    /// A minimal test-scale campaign on `nodes` nodes of the modeled
    /// JUWELS Booster: FIFO + contiguous placement, no faults.
    pub fn new(tenant: &str, name: &str, nodes: u32, seed: u64) -> Self {
        CampaignSpec {
            tenant: tenant.to_string(),
            name: name.to_string(),
            backend: Machine::juwels_booster(),
            nodes,
            seed,
            policy: QueuePolicy::Fifo,
            placement: PlacementPolicy::Contiguous,
            spacing_s: 1.0,
            slice_s: 50.0,
            deadline_s: f64::INFINITY,
            plan: FaultPlan::new(seed),
            points: Vec::new(),
        }
    }

    /// Cancel the campaign if its schedule is still running at virtual
    /// time `deadline_s` (builder style).
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// Append a run point (builder style).
    pub fn with_point(mut self, point: RunPoint) -> Self {
        self.points.push(point);
        self
    }

    /// Run the campaign on (a partition of) `backend` instead of the
    /// default JUWELS Booster model (builder style).
    pub fn with_backend(mut self, backend: Machine) -> Self {
        self.backend = backend;
        self
    }

    /// The machine partition the campaign schedules onto.
    pub fn machine(&self) -> Machine {
        self.backend.partition(self.nodes)
    }

    /// Canonical encoding — the wire form of `Submit` and the persisted
    /// form inside shard snapshots.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_str(&self.tenant);
        w.put_str(&self.name);
        put_machine(&mut w, &self.backend);
        w.put_u32(self.nodes);
        w.put_u64(self.seed);
        w.put_u8(match self.policy {
            QueuePolicy::Fifo => 0,
            QueuePolicy::ConservativeBackfill => 1,
        });
        w.put_u8(match self.placement {
            PlacementPolicy::Contiguous => 0,
            PlacementPolicy::Scatter => 1,
        });
        w.put_f64(self.spacing_s);
        w.put_f64(self.slice_s);
        w.put_f64(self.deadline_s);
        put_plan(&mut w, &self.plan);
        w.put_seq(&self.points, |w, p| p.put(w));
        w.finish()
    }

    pub(crate) fn put(&self, w: &mut SnapshotWriter) {
        w.put_bytes(&self.encode());
    }

    /// Read a spec written by [`Self::put`].
    pub(crate) fn get(r: &mut SnapshotReader, what: &'static str) -> Result<Self, CkptError> {
        Self::decode(&r.get_bytes(what)?)
    }

    /// Decode a canonical encoding produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let r = &mut SnapshotReader::new(bytes);
        let tenant = r.get_str("spec tenant")?;
        let name = r.get_str("spec name")?;
        let backend = get_machine(r)?;
        let nodes = r.get_u32("spec nodes")?;
        let seed = r.get_u64("spec seed")?;
        let policy = match r.get_u8("spec policy")? {
            0 => QueuePolicy::Fifo,
            1 => QueuePolicy::ConservativeBackfill,
            _ => {
                return Err(CkptError::Malformed {
                    what: "queue policy code".to_string(),
                })
            }
        };
        let placement = match r.get_u8("spec placement")? {
            0 => PlacementPolicy::Contiguous,
            1 => PlacementPolicy::Scatter,
            _ => {
                return Err(CkptError::Malformed {
                    what: "placement policy code".to_string(),
                })
            }
        };
        let spacing_s = r.get_f64("spec spacing")?;
        let slice_s = r.get_f64("spec slice")?;
        let deadline_s = r.get_f64("spec deadline")?;
        let plan = get_plan(r)?;
        let points = r.get_seq("spec point count", RunPoint::get)?;
        r.expect_end()?;
        Ok(CampaignSpec {
            tenant,
            name,
            backend,
            nodes,
            seed,
            policy,
            placement,
            spacing_s,
            slice_s,
            deadline_s,
            plan,
            points,
        })
    }

    /// The content address of run point `index`: a 128-bit key over the
    /// canonical bytes of everything the point's result depends on. Two
    /// campaigns that share a point (same benchmark, parameters, machine
    /// partition, seed, and fault plan) share the key — and therefore
    /// the cached result.
    pub fn point_key(&self, index: usize) -> u128 {
        let p = &self.points[index];
        let mut w = SnapshotWriter::new();
        p.put(&mut w);
        w.put_bytes(&self.machine().fingerprint_bytes());
        {
            let mut pw = SnapshotWriter::new();
            put_plan(&mut pw, &self.plan);
            w.put_bytes(&pw.finish());
        }
        content_key128(&w.finish())
    }

    /// Reject malformed campaigns up front, before anything is queued:
    /// a backend no model can be computed on, unknown benchmarks,
    /// oversized points, empty point lists, or non-positive slice
    /// widths. Everything past this gate — the shard, the scheduler,
    /// every benchmark — takes the spec's numbers at their word.
    pub fn validate(&self, registry: &Registry) -> Result<(), String> {
        self.check(Some(registry))
    }

    /// [`Self::validate`], with the benchmark lookups skipped when there
    /// is no registry to ask: what a shard applies to a spec it decodes
    /// from a snapshot, where nothing may panic and a benchmark that is
    /// missing at execution is an error row anyway.
    pub(crate) fn check(&self, registry: Option<&Registry>) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("campaign has no run points".to_string());
        }
        self.backend.check()?;
        let names = [self.backend.name, self.backend.node.gpu.name];
        if names.iter().any(|name| name.len() > MAX_NAME_BYTES) {
            return Err(format!(
                "backend and device names are limited to {MAX_NAME_BYTES} bytes"
            ));
        }
        if self.nodes == 0 || self.nodes > self.backend.nodes.min(MAX_PARTITION_NODES) {
            return Err(format!(
                "invalid partition size {} of the {}-node backend `{}` \
                 (a partition holds at most {MAX_PARTITION_NODES} nodes)",
                self.nodes, self.backend.nodes, self.backend.name
            ));
        }
        if self.slice_s.is_nan() || self.slice_s <= 0.0 {
            return Err(format!("slice_s must be positive, got {}", self.slice_s));
        }
        if self.spacing_s.is_nan() || self.spacing_s < 0.0 {
            return Err(format!("spacing_s must be ≥ 0, got {}", self.spacing_s));
        }
        if self.deadline_s.is_nan() || self.deadline_s <= 0.0 {
            return Err(format!(
                "deadline_s must be positive (∞ disables it), got {}",
                self.deadline_s
            ));
        }
        for (i, p) in self.points.iter().enumerate() {
            if let Some(registry) = registry {
                let id = BenchmarkId::from_name(&p.bench)
                    .ok_or_else(|| format!("point {i}: unknown benchmark `{}`", p.bench))?;
                if registry.get(id).is_none() {
                    return Err(format!("point {i}: benchmark `{}` not registered", p.bench));
                }
            }
            if p.nodes == 0 || p.nodes > self.nodes {
                return Err(format!(
                    "point {i}: {} nodes exceed the {}-node partition",
                    p.nodes, self.nodes
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new("alice", "nightly", 96, 7)
            .with_point(RunPoint::test("HPL", 8, 1))
            .with_point(RunPoint {
                bench: "JUQCS".to_string(),
                nodes: 16,
                scale: WorkloadScale::Test,
                variant: None,
                seed: 2,
            });
        spec.policy = QueuePolicy::ConservativeBackfill;
        spec.placement = PlacementPolicy::Scatter;
        spec.plan = FaultPlan::new(7).with_slow_node_window(3, 2.0, 10.0, 20.0);
        spec
    }

    #[test]
    fn encode_decode_roundtrip() {
        let spec = sample_spec();
        let bytes = spec.encode();
        let back = CampaignSpec::decode(&bytes).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn fault_plan_roundtrips_every_variant() {
        let mut spec = sample_spec();
        spec.plan = FaultPlan::new(11)
            .with_degraded_link(0, 1, 3.0)
            .with_flapping_link(2, 3, 2.0, 5.0, 0.5)
            .with_slow_node_window(4, 1.5, 0.0, 9.0)
            .with_message_drop(5, 6, 0.25)
            .with_rank_crash(7, 42.0)
            .with_recv_timeout(0.2);
        let back = CampaignSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back.plan, spec.plan);
    }

    #[test]
    fn point_key_separates_every_input() {
        let base = sample_spec();
        let k0 = base.point_key(0);
        assert_eq!(k0, base.point_key(0), "key is a pure function");
        assert_ne!(k0, base.point_key(1), "different points differ");

        let mut seed = base.clone();
        seed.points[0].seed ^= 1;
        assert_ne!(k0, seed.point_key(0), "seed is part of the key");

        let mut machine = base.clone();
        machine.nodes = 48;
        assert_ne!(k0, machine.point_key(0), "machine partition is keyed");

        let mut plan = base.clone();
        plan.plan = FaultPlan::new(99);
        assert_ne!(k0, plan.point_key(0), "fault plan is keyed");

        let mut backend = base.clone();
        backend.backend = Machine::jupiter_proposal();
        assert_ne!(k0, backend.point_key(0), "machine backend is keyed");

        // Scheduler knobs do NOT affect a point's execution, and two
        // campaigns differing only there must share cache entries.
        let mut sched_only = base.clone();
        sched_only.seed ^= 1;
        sched_only.policy = QueuePolicy::Fifo;
        sched_only.spacing_s += 1.0;
        sched_only.slice_s += 1.0;
        sched_only.tenant = "bob".to_string();
        assert_eq!(k0, sched_only.point_key(0), "sched knobs are not keyed");
    }

    #[test]
    fn backend_roundtrips_through_the_wire_form() {
        let mut spec = sample_spec();
        spec.backend = Machine::jupiter_proposal();
        spec.nodes = 128;
        let back = CampaignSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.backend.net, spec.backend.net);
        assert_eq!(back.backend.cost, spec.backend.cost);
        assert_eq!(back.machine().nodes, 128);
    }

    #[test]
    fn validate_checks_against_the_backend_size() {
        let registry = Registry::new();
        let mut spec = CampaignSpec::new("t", "c", 937, 0).with_point(RunPoint::test("HPL", 4, 0));
        let err = spec.validate(&registry).unwrap_err();
        assert!(err.contains("937"), "oversized partition rejected: {err}");
        // The same size is fine on a larger backend (though the empty
        // registry still rejects the benchmark).
        spec.backend = Machine::jupiter_proposal();
        let err = spec.validate(&registry).unwrap_err();
        assert!(!err.contains("invalid partition"), "size accepted: {err}");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let registry = Registry::new();
        let empty = CampaignSpec::new("t", "c", 8, 0);
        assert!(empty.validate(&registry).is_err());

        let unknown =
            CampaignSpec::new("t", "c", 8, 0).with_point(RunPoint::test("not-a-bench", 4, 0));
        assert!(unknown.validate(&registry).unwrap_err().contains("unknown"));

        let oversized = CampaignSpec::new("t", "c", 8, 0).with_point(RunPoint::test("HPL", 16, 0));
        // `HPL` parses as a BenchmarkId but an empty registry has no
        // benchmarks, so registration fails first.
        assert!(oversized.validate(&registry).is_err());

        let mut zero_cell =
            CampaignSpec::new("t", "c", 8, 0).with_point(RunPoint::test("HPL", 4, 0));
        zero_cell.backend.cell_nodes = 0;
        let err = zero_cell.validate(&registry).unwrap_err();
        assert!(err.contains("cell_nodes"), "backend is checked: {err}");

        // A backend may be larger than any partition of it may be.
        let mut huge = CampaignSpec::new("t", "c", MAX_PARTITION_NODES, 0)
            .with_point(RunPoint::test("HPL", 4, 0));
        huge.backend.nodes = 4 * MAX_PARTITION_NODES;
        assert_eq!(huge.check(None), Ok(()));
        huge.nodes += 1;
        assert!(huge.check(None).unwrap_err().contains("partition"));
    }

    #[test]
    fn oversized_backend_names_are_refused_before_interning() {
        let mut spec = sample_spec();
        spec.backend.name = intern_name(&"x".repeat(MAX_NAME_BYTES)).unwrap();
        assert_eq!(CampaignSpec::decode(&spec.encode()), Ok(spec.clone()));
        for long in [MAX_NAME_BYTES + 1, 1 << 16] {
            // Built by hand: the point is that decode never interns it.
            let mut bytes = spec.encode();
            let name_at = 8 + spec.tenant.len() + 8 + spec.name.len();
            let tail = bytes.split_off(name_at + 8 + MAX_NAME_BYTES);
            bytes.truncate(name_at);
            bytes.extend_from_slice(&(long as u64).to_le_bytes());
            bytes.extend(vec![b'y'; long]);
            bytes.extend(tail);
            let err = CampaignSpec::decode(&bytes).unwrap_err();
            assert!(matches!(err, CkptError::Malformed { .. }), "{err:?}");
        }
        spec.backend.node.gpu.name = intern_name(&"z".repeat(MAX_NAME_BYTES + 1)).unwrap();
        assert!(spec.validate(&Registry::new()).is_err());
    }
}
