//! The campaign service: shard routing, the session loop, and the
//! client helper.
//!
//! A [`Server`] owns N worker shards ([`ShardState`]) and routes each
//! accepted campaign to the shard owning its machine partition —
//! `fnv1a64(machine fingerprint) mod N` — so repeated campaigns against
//! the same partition land on the same shard and find its cache warm.
//!
//! Driving is one loop behind four entry points: [`Server::drain`],
//! [`Server::drain_parallel`] and their supervised counterparts all go
//! through the driver in [`crate::supervisor`], which drives each shard
//! to idle — on the calling thread or on a dedicated `jubench-pool`
//! rank thread each — and concatenates the per-shard frame streams in
//! shard order. Shards share no state, so every entry point returns the
//! same frames; that is the byte-identity contract the tests pin.
//!
//! [`serve_session`] speaks the wire protocol over a [`Transport`], and
//! [`Client`] is the matching caller side.

use crate::admission::{AdmissionConfig, AdmissionGate, RejectReason, Rejection};
use crate::error::ServeError;
use crate::shard::{Emit, ShardState};
use crate::spec::CampaignSpec;
use crate::supervisor::Executor;
use crate::tracks::{RealTrackStats, RealTracks};
use crate::transport::Transport;
use crate::wire::{read_frame, write_frame, Frame, WireError};
use jubench_core::{fnv1a64, Registry};
use std::collections::{BTreeMap, BTreeSet};

/// Tenants that get a `serve/tenant/<name>/…` series of their own: the
/// first this many distinct names (of at most this many bytes) a server
/// sees. Tenant names come off the wire, so everyone after that counts
/// under [`OTHER_TENANTS`] and the registry stays bounded.
const MAX_TENANT_SERIES: usize = 64;
/// The series of every tenant past [`MAX_TENANT_SERIES`].
const OTHER_TENANTS: &str = "_other";

/// Where a live campaign sits and what it holds against its tenant's
/// quotas (refunded when the campaign retires).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Route {
    /// The shard driving the campaign.
    pub(crate) shard: u32,
    /// The tenant charged for it.
    pub(crate) tenant: String,
    /// Point tokens it holds.
    pub(crate) points: u32,
}

/// The multi-tenant campaign service.
#[derive(Debug)]
pub struct Server {
    pub(crate) shards: Vec<ShardState>,
    /// Every benchmark's real tracks, shared by the shards: the second
    /// cache level, consulted after a shard's own result cache missed.
    pub(crate) real_tracks: RealTracks,
    next_campaign: u64,
    /// Campaign → placement and quota charge, for status queries,
    /// migration, and admission refunds.
    routes: BTreeMap<u64, Route>,
    /// The tenants that have a metric series of their own.
    tenant_series: BTreeSet<String>,
    /// Frames produced while a different client was draining, held for
    /// delivery on their owner's next drain.
    mailbox: BTreeMap<u64, Vec<Frame>>,
    /// The admission gate (permissive unless configured).
    admission: AdmissionGate,
}

impl Server {
    /// A service with `n_shards` worker shards, each with its own
    /// result cache bounded at `cache_capacity` entries, and one store
    /// of real tracks between them holding as many as the caches hold
    /// results (so capacity 0 turns both levels off). Admission is
    /// fully permissive; see [`Server::with_admission`].
    pub fn new(n_shards: usize, cache_capacity: usize) -> Self {
        assert!(n_shards > 0, "a server needs at least one shard");
        Server {
            shards: (0..n_shards)
                .map(|i| ShardState::new(i as u32, cache_capacity))
                .collect(),
            real_tracks: RealTracks::new(cache_capacity.saturating_mul(n_shards)),
            next_campaign: 1,
            routes: BTreeMap::new(),
            tenant_series: BTreeSet::new(),
            mailbox: BTreeMap::new(),
            admission: AdmissionGate::new(AdmissionConfig::default()),
        }
    }

    /// Enforce per-tenant quotas at submit (builder style).
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = AdmissionGate::new(config);
        self
    }

    /// The admission gate (usage inspection).
    pub fn admission(&self) -> &AdmissionGate {
        &self.admission
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrow a shard (monitoring, tests).
    pub fn shard(&self, id: u32) -> &ShardState {
        &self.shards[id as usize]
    }

    /// What the real-track store shared between the shards has done:
    /// real executions run, and requests answered without one.
    pub fn real_tracks(&self) -> RealTrackStats {
        self.real_tracks.stats()
    }

    /// Mutably borrow a shard (kill/restore and migration drills).
    pub fn shard_mut(&mut self, id: u32) -> &mut ShardState {
        &mut self.shards[id as usize]
    }

    /// The shard a spec routes to: campaigns are keyed by their machine
    /// partition, so identical partitions share a shard — and its warm
    /// cache.
    pub fn route(&self, spec: &CampaignSpec) -> u32 {
        let h = fnv1a64(&spec.machine().fingerprint_bytes());
        // FNV-1a's low bits mix only the low bits of each input byte
        // (the prime is odd), so `h % N` would alias every partition
        // size that differs by a multiple of 4. Fold the well-mixed
        // high word in before reducing.
        let folded = h ^ (h >> 32);
        (folded % self.shards.len() as u64) as u32
    }

    /// Validate a campaign, pass it through the admission gate, and
    /// enqueue it for `client`. Returns the assigned
    /// `(campaign id, shard)` or a typed [`Rejection`]. The quota
    /// charge (one point token per run point, one campaign slot) is
    /// refunded when the campaign retires: when its terminal frame —
    /// `Done`, or `Cancelled` by a deadline or a give-up — is emitted.
    pub fn submit(
        &mut self,
        client: u64,
        spec: CampaignSpec,
        registry: &Registry,
    ) -> Result<(u64, u32), Rejection> {
        let tenant = spec.tenant.clone();
        if let Err(what) = spec.validate(registry) {
            return Err(self.reject(tenant, RejectReason::Invalid { what }));
        }
        let points = spec.points.len() as u32;
        if let Err(reason) = self.admission.admit(&tenant, points) {
            return Err(self.reject(tenant, reason));
        }
        let shard = self.route(&spec);
        let campaign = self.next_campaign;
        self.next_campaign += 1;
        self.shards[shard as usize].submit(campaign, client, spec);
        self.routes.insert(
            campaign,
            Route {
                shard,
                tenant,
                points,
            },
        );
        Ok((campaign, shard))
    }

    /// Whether every shard is idle.
    pub fn idle(&self) -> bool {
        self.shards.iter().all(|s| s.idle())
    }

    /// Advance every non-idle shard by one unit, in shard order.
    pub fn step(&mut self, registry: &Registry) -> Result<Vec<Emit>, ServeError> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.extend(shard.step_sharing(registry, Some(&self.real_tracks)));
        }
        self.retire(&out);
        Ok(out)
    }

    /// Drive all shards to completion on the calling thread, shard by
    /// shard. The first shard failure — a typed error or a caught panic
    /// — is returned as `Err` after every shard has been driven; shard
    /// state is kept. This is the *unsupervised* drain: it propagates,
    /// [`Server::drain_supervised`] recovers.
    pub fn drain(&mut self, registry: &Registry) -> Result<Vec<Emit>, ServeError> {
        self.drive(registry, Executor::Inline, None)
            .map(|o| o.emits)
    }

    /// [`Server::drain`] with every shard on its own dedicated
    /// `jubench-pool` rank thread; same frames, same failure semantics.
    pub fn drain_parallel(&mut self, registry: &Registry) -> Result<Vec<Emit>, ServeError> {
        self.drive(registry, Executor::Dedicated, None)
            .map(|o| o.emits)
    }

    /// Migrate in-flight campaign `campaign` to shard `to`: the
    /// campaign moves as a value, so nothing on the way can refuse it.
    /// Returns `Ok(false)` if the campaign is not live (unknown or
    /// already done), `Err` if `to` is not a shard of this server (the
    /// campaign stays where it is).
    pub fn migrate(&mut self, campaign: u64, to: u32) -> Result<bool, ServeError> {
        if to as usize >= self.shards.len() {
            return Err(ServeError::NoSuchShard {
                shard: to,
                n_shards: self.shards.len(),
            });
        }
        let Some(route) = self.routes.get_mut(&campaign) else {
            return Ok(false);
        };
        if route.shard == to {
            return Ok(true);
        }
        let Some(camp) = self.shards[route.shard as usize].take_campaign(campaign) else {
            return Ok(false);
        };
        self.shards[to as usize].queue_campaign(camp);
        route.shard = to;
        Ok(true)
    }

    /// Retire the campaigns whose terminal frame is among `emits` — a
    /// shard emits exactly one `Done` or `Cancelled` per campaign: drop
    /// the route, refund the admission charge, and count a completion
    /// for its tenant.
    pub(crate) fn retire(&mut self, emits: &[Emit]) {
        for emit in emits {
            let (campaign, done) = match emit.frame {
                Frame::Done { campaign, .. } => (campaign, true),
                Frame::Cancelled { campaign, .. } => (campaign, false),
                _ => continue,
            };
            let Some(route) = self.routes.remove(&campaign) else {
                continue;
            };
            self.admission.release(&route.tenant, route.points);
            if done {
                self.count_for_tenant(&route.tenant, "campaigns");
            }
        }
    }

    /// Retire the campaigns routed to `shard` that are no longer in its
    /// queue — for a shard whose frames, terminal ones included, were
    /// lost with a failed unsupervised attempt.
    pub(crate) fn retire_lost(&mut self, shard: u32) {
        let live = self.shards[shard as usize].active();
        let admission = &mut self.admission;
        self.routes.retain(|campaign, route| {
            let keep = route.shard != shard || live.contains(campaign);
            if !keep {
                admission.release(&route.tenant, route.points);
            }
            keep
        });
    }

    /// Add one to `serve/tenant/<series>/<what>`, the series being the
    /// tenant's own while [`MAX_TENANT_SERIES`] allows.
    fn count_for_tenant(&mut self, tenant: &str, what: &str) {
        let known = &mut self.tenant_series;
        let room = known.len() < MAX_TENANT_SERIES && tenant.len() <= MAX_TENANT_SERIES;
        if room && !known.contains(tenant) {
            known.insert(tenant.to_string());
        }
        let own = known.contains(tenant);
        let series = if own { tenant } else { OTHER_TENANTS };
        jubench_metrics::counter_add(&format!("serve/tenant/{series}/{what}"), 1);
    }

    /// Count and build a typed rejection (one place, so the counters
    /// can't drift from the returned value).
    fn reject(&mut self, tenant: String, reason: RejectReason) -> Rejection {
        jubench_metrics::counter_add("serve/rejected", 1);
        self.count_for_tenant(&tenant, "rejected");
        Rejection { tenant, reason }
    }
}

/// Serve one client session over a transport: the server side of the
/// wire protocol. Returns when the client says [`Frame::Bye`] or hangs
/// up. Frames produced for *other* clients while this one drains are
/// parked in the server's mailbox and delivered on their owner's next
/// drain.
pub fn serve_session(
    server: &mut Server,
    registry: &Registry,
    t: &mut dyn Transport,
    client: u64,
) -> Result<(), ServeError> {
    loop {
        let frame = match read_frame(t) {
            Ok(frame) => frame,
            Err(WireError::Transport(_)) => return Ok(()), // peer hung up
            Err(e) => return Err(e.into()),
        };
        match frame {
            Frame::Submit { spec } => {
                let reply = match server.submit(client, spec, registry) {
                    Ok((campaign, shard)) => Frame::Accepted { campaign, shard },
                    Err(rejection) => Frame::Rejected {
                        tenant: rejection.tenant,
                        reason: rejection.reason,
                    },
                };
                write_frame(t, &reply)?;
            }
            Frame::Drain => {
                for frame in server.mailbox.remove(&client).unwrap_or_default() {
                    write_frame(t, &frame)?;
                }
                for emit in server.drain(registry)? {
                    if emit.client == client {
                        write_frame(t, &emit.frame)?;
                    } else {
                        server
                            .mailbox
                            .entry(emit.client)
                            .or_default()
                            .push(emit.frame);
                    }
                }
            }
            Frame::Stats { prefix } => {
                let snapshot = jubench_metrics::snapshot().filter_prefix(&prefix);
                write_frame(
                    t,
                    &Frame::StatsReply {
                        prometheus: snapshot.render_prometheus(),
                    },
                )?;
            }
            Frame::Bye => {
                t.shutdown();
                return Ok(());
            }
            _ => {
                return Err(WireError::Unexpected("server→client frame from a client").into());
            }
        }
    }
}

/// The caller side of the wire protocol: frames requests over any
/// [`Transport`] and tracks outstanding campaigns so
/// [`Client::drain`] knows when the stream is complete.
pub struct Client<T: Transport> {
    transport: T,
    outstanding: BTreeSet<u64>,
}

impl<T: Transport> Client<T> {
    /// Wrap a connected transport.
    pub fn new(transport: T) -> Self {
        Client {
            transport,
            outstanding: BTreeSet::new(),
        }
    }

    /// Submit a campaign; returns the assigned campaign id or the
    /// typed [`Rejection`].
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<Result<u64, Rejection>, WireError> {
        write_frame(&mut self.transport, &Frame::Submit { spec: spec.clone() })?;
        match read_frame(&mut self.transport)? {
            Frame::Accepted { campaign, .. } => {
                self.outstanding.insert(campaign);
                Ok(Ok(campaign))
            }
            Frame::Rejected { tenant, reason } => Ok(Err(Rejection { tenant, reason })),
            _ => Err(WireError::Unexpected("expected Accepted or Rejected")),
        }
    }

    /// Run every outstanding campaign to completion, returning the
    /// streamed result frames (rows, job completions, final reports,
    /// typed cancellations) in arrival order. `Cancelled` is terminal
    /// for its campaign, exactly like `Done` — a cancelled campaign
    /// stops being outstanding.
    pub fn drain(&mut self) -> Result<Vec<Frame>, WireError> {
        if self.outstanding.is_empty() {
            return Ok(Vec::new());
        }
        write_frame(&mut self.transport, &Frame::Drain)?;
        let mut frames = Vec::new();
        while !self.outstanding.is_empty() {
            let frame = read_frame(&mut self.transport)?;
            match &frame {
                Frame::Done { campaign, .. } | Frame::Cancelled { campaign, .. } => {
                    self.outstanding.remove(campaign);
                }
                _ => {}
            }
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Fetch the service metrics (Prometheus text exposition) filtered
    /// to names starting with `prefix`.
    pub fn stats(&mut self, prefix: &str) -> Result<String, WireError> {
        write_frame(
            &mut self.transport,
            &Frame::Stats {
                prefix: prefix.to_string(),
            },
        )?;
        match read_frame(&mut self.transport)? {
            Frame::StatsReply { prometheus } => Ok(prometheus),
            _ => Err(WireError::Unexpected("expected StatsReply")),
        }
    }

    /// End the session.
    pub fn bye(mut self) -> Result<(), WireError> {
        write_frame(&mut self.transport, &Frame::Bye)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunPoint;
    use crate::transport::DuplexPipe;

    fn spec(name: &str, nodes: u32, seed: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::new("tenant", name, nodes, seed)
            .with_point(RunPoint::test("STREAM", 2, 1))
            .with_point(RunPoint::test("LinkTest", 2, 2));
        spec.slice_s = 2.0;
        spec
    }

    #[test]
    fn routing_is_by_machine_partition() {
        let server = Server::new(4, 16);
        let a = server.route(&spec("a", 8, 1));
        let b = server.route(&spec("b", 8, 99));
        assert_eq!(a, b, "same partition routes to the same shard");
        // Different partitions spread across shards (at least one of a
        // handful of sizes must land elsewhere, or routing is constant).
        let routes: BTreeSet<u32> = [8u32, 16, 24, 48, 96, 192]
            .iter()
            .map(|&n| server.route(&spec("x", n, 1)))
            .collect();
        assert!(routes.len() > 1, "routing never spreads: {routes:?}");
    }

    #[test]
    fn session_over_a_pipe_streams_results() {
        let registry = jubench_scaling::full_registry();
        let mut server = Server::new(2, 16);
        let (client_end, mut server_end) = DuplexPipe::pair();
        let server_thread = std::thread::spawn(move || {
            serve_session(&mut server, &registry, &mut server_end, 1).unwrap();
            server
        });

        let mut client = Client::new(client_end);
        let campaign = client.submit(&spec("s", 8, 1)).unwrap().unwrap();
        let frames = client.drain().unwrap();
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::Done { campaign: c, .. } if *c == campaign)));
        let rows = frames
            .iter()
            .filter(|f| matches!(f, Frame::Row { .. }))
            .count();
        assert_eq!(rows, 2);

        let bad = client
            .submit(&CampaignSpec::new("t", "empty", 8, 0))
            .unwrap();
        assert!(bad.is_err(), "empty campaign must be rejected");

        // The exposition flattens `/` to `_` in metric names.
        let prometheus = client.stats("serve/").unwrap();
        if jubench_metrics::enabled() {
            assert!(prometheus.contains("serve_"), "missing: {prometheus}");
        }
        assert!(
            !prometheus.contains("sched_"),
            "filter leaked: {prometheus}"
        );

        client.bye().unwrap();
        let server = server_thread.join().unwrap();
        assert!(server.idle());
    }

    #[test]
    fn migration_through_the_server_is_transparent() {
        let registry = jubench_scaling::full_registry();
        let reference = {
            let mut server = Server::new(4, 16);
            server.submit(1, spec("m", 8, 1), &registry).unwrap();
            server.drain(&registry).unwrap()
        };
        let mut server = Server::new(4, 16);
        let (campaign, shard) = server.submit(1, spec("m", 8, 1), &registry).unwrap();
        let mut emits = server.step(&registry).unwrap();
        let target = (shard + 1) % 4;
        assert!(server.migrate(campaign, target).unwrap());
        assert!(server.shard(shard).idle());
        emits.extend(server.drain(&registry).unwrap());
        let frames = |e: &[Emit]| -> Vec<Frame> { e.iter().map(|x| x.frame.clone()).collect() };
        assert_eq!(frames(&emits), frames(&reference));
    }

    #[test]
    fn migration_to_a_missing_shard_is_a_typed_refusal() {
        let registry = jubench_scaling::full_registry();
        let reference = {
            let mut server = Server::new(4, 16);
            server.submit(1, spec("m", 8, 1), &registry).unwrap();
            server.drain(&registry).unwrap()
        };
        let mut server = Server::new(4, 16);
        let (campaign, shard) = server.submit(1, spec("m", 8, 1), &registry).unwrap();
        assert_eq!(
            server.migrate(campaign, 4),
            Err(ServeError::NoSuchShard {
                shard: 4,
                n_shards: 4
            })
        );
        assert_eq!(server.shard(shard).active(), [campaign], "still at home");
        assert_eq!(server.drain(&registry).unwrap(), reference);
    }
}
