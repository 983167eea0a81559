//! The per-rank communicator: typed point-to-point messages, collectives,
//! and virtual-time accounting.
//!
//! The `simmpi/{msgs,bytes}/{send,recv}` and `simmpi/{ops,bytes}/<collective>`
//! metrics are per-rank tallies: plain integers on the [`Comm`] while the
//! rank runs, added to the registry once when the rank exits (its `Drop`,
//! so a panicking rank still reports). A snapshot taken while a world is
//! running does not see that world's traffic yet.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use jubench_cluster::{Distance, NetModel, Roofline, Work};
use jubench_faults::{DetRng, FaultPlan, RetryPolicy};
use jubench_trace::{CollectiveKind, EventKind, Regime, TraceEvent, TraceSink};

use crate::clock::{ClockStats, VirtualClock};
use crate::error::SimError;
use crate::rankmap::RankMap;
use crate::rendezvous::{ring_chunk, Entry, Rendezvous};

/// The topology regime a transfer over `dist` is accounted to.
fn regime_of(dist: Distance) -> Regime {
    match dist {
        Distance::SameDevice => Regime::SameDevice,
        Distance::IntraNode => Regime::IntraNode,
        Distance::IntraCell => Regime::IntraCell,
        Distance::InterCell => Regime::InterCell,
        Distance::InterModule => Regime::InterModule,
    }
}

/// Wire time and topology regime of a healthy `bytes`-sized transfer as
/// `rank` sees it towards `peer`. Every message is costed here: the
/// message path's and the rendezvous replay's.
pub(crate) fn link_time(
    map: &RankMap,
    net: &NetModel,
    rank: u32,
    peer: u32,
    bytes: u64,
) -> (f64, Regime) {
    let dist = map.distance(rank, peer);
    (net.ptp_time(bytes, dist, map.job_nodes()), regime_of(dist))
}

/// Typed message payload. Using an enum instead of raw bytes keeps the data
/// path allocation-light and lets the runtime detect datatype mismatches.
#[derive(Debug, Clone)]
pub enum Payload {
    F64(Vec<f64>),
    U64(Vec<u64>),
}

impl Payload {
    fn type_name(&self) -> &'static str {
        match self {
            Payload::F64(_) => "f64",
            Payload::U64(_) => "u64",
        }
    }

    fn nbytes(&self) -> u64 {
        match self {
            Payload::F64(v) => (v.len() * 8) as u64,
            Payload::U64(v) => (v.len() * 8) as u64,
        }
    }

    fn into_f64(self) -> Result<Vec<f64>, Payload> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(other),
        }
    }

    fn into_u64(self) -> Result<Vec<u64>, Payload> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(other),
        }
    }
}

/// A message in flight, carrying the sender's virtual post time so the
/// receiver can respect causality. A *dropped* message (an injected
/// message-drop fault) is sent as a tombstone — `dropped: true` — so the
/// receiver never blocks in wall time; it charges the virtual receive
/// timeout and reports [`SimError::Timeout`] instead of a payload.
pub(crate) struct Message {
    payload: Payload,
    tag: u32,
    sent_at: f64,
    dropped: bool,
}

/// Reduction operators for the collective operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Point-to-point messages a rank sent and received, and their payload
/// bytes — a collective's constituent messages included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub msgs_send: u64,
    pub bytes_send: u64,
    pub msgs_recv: u64,
    pub bytes_recv: u64,
}

/// What a rank sent, received and took part in so far: the values its
/// exit adds to the `simmpi/*` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub messages: Traffic,
    /// `(kind, operations, payload bytes)` of each collective kind used,
    /// in order of first use.
    pub collectives: Vec<(CollectiveKind, u64, u64)>,
}

/// The communicator handed to each rank closure by
/// [`World::run`](crate::world::World::run).
pub struct Comm {
    rank: u32,
    size: u32,
    /// senders[to] — this rank's outgoing channels.
    senders: Vec<Sender<Message>>,
    /// receivers[from] — this rank's incoming channels.
    receivers: Vec<Receiver<Message>>,
    clock: VirtualClock,
    map: RankMap,
    net: NetModel,
    device: Roofline,
    /// Where this world's barriers and (unfaulted) collectives meet.
    rendezvous: Arc<Rendezvous>,
    /// Injected faults this communicator consults at operation boundaries.
    /// `None` keeps every fault hook a no-op.
    plan: Option<Arc<FaultPlan>>,
    /// Lazily created deterministic message-drop stream (only consumed on
    /// sends towards a destination with a positive drop probability).
    drop_rng: Option<DetRng>,
    /// This rank's scheduled crash instant, read once from the plan and
    /// checked at operation boundaries.
    crash_at: Option<f64>,
    /// Set once the clock has passed `crash_at`; every further
    /// communication attempt fails with [`SimError::RankCrashed`].
    crashed: bool,
    /// Node hosting this rank (cached for event stamping).
    node: u32,
    /// Opt-in trace sink; `None` keeps every hook a no-op.
    sink: Option<Arc<dyn TraceSink>>,
    /// Per-rank event sequence number: `(rank, seq)` totally orders the
    /// trace deterministically.
    seq: u64,
    tally: Tally,
}

impl Drop for Comm {
    fn drop(&mut self) {
        self.rendezvous.leave(self.rank);
        let (t, collectives) = (&self.tally.messages, &self.tally.collectives);
        // A name appears once its operation happened, even with zero bytes.
        if t.msgs_send > 0 {
            jubench_metrics::counter_add("simmpi/msgs/send", t.msgs_send);
            jubench_metrics::counter_add("simmpi/bytes/send", t.bytes_send);
        }
        if t.msgs_recv > 0 {
            jubench_metrics::counter_add("simmpi/msgs/recv", t.msgs_recv);
            jubench_metrics::counter_add("simmpi/bytes/recv", t.bytes_recv);
        }
        for &(kind, ops, bytes) in collectives {
            jubench_metrics::counter_add(&format!("simmpi/ops/{}", kind.label()), ops);
            jubench_metrics::counter_add(&format!("simmpi/bytes/{}", kind.label()), bytes);
        }
    }
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: u32,
        size: u32,
        senders: Vec<Sender<Message>>,
        receivers: Vec<Receiver<Message>>,
        map: RankMap,
        net: NetModel,
        rendezvous: Arc<Rendezvous>,
    ) -> Self {
        Comm {
            rank,
            size,
            senders,
            receivers,
            clock: VirtualClock::new(),
            device: map.device(rank),
            node: map.node_of(rank),
            map,
            net,
            rendezvous,
            plan: None,
            drop_rng: None,
            crash_at: None,
            crashed: false,
            sink: None,
            seq: 0,
            tally: Tally::default(),
        }
    }

    pub(crate) fn with_fault_plan(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.crash_at = plan.as_ref().and_then(|p| p.crash_time(self.rank));
        self.plan = plan;
        self
    }

    pub(crate) fn with_sink(mut self, sink: Option<Arc<dyn TraceSink>>) -> Self {
        self.sink = sink;
        self
    }

    /// Record one event ending at the current clock time. A no-op without
    /// a sink installed (the `EventKind`s emitted here are plain enums, so
    /// the disabled path allocates nothing).
    #[inline]
    fn emit(&mut self, t_start: f64, kind: EventKind) {
        self.record(t_start, self.clock.now(), kind);
    }

    /// Record one event spanning `[t_start, t_end]` under this rank's next
    /// sequence number.
    #[inline]
    fn record(&mut self, t_start: f64, t_end: f64, kind: EventKind) {
        if let Some(sink) = &self.sink {
            let seq = self.seq;
            self.seq += 1;
            sink.record(TraceEvent {
                rank: self.rank,
                node: self.node,
                seq,
                t_start,
                t_end,
                kind,
            });
        }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Clock statistics so far.
    pub fn stats(&self) -> ClockStats {
        self.clock.stats()
    }

    /// This rank's traffic and collectives so far.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The device roofline of this rank.
    pub fn device(&self) -> &Roofline {
        &self.device
    }

    /// Advance the virtual clock by the roofline time of `work`.
    pub fn compute(&mut self, work: Work) {
        self.advance_compute(self.device.time(work));
    }

    /// Advance the virtual clock by `seconds` of computation directly. A
    /// slow-node fault active on this rank's node stretches the span by
    /// its factor (the emitted event carries the stretched duration, so
    /// trace accounting still reproduces the clock exactly).
    pub fn advance_compute(&mut self, seconds: f64) {
        let t0 = self.clock.now();
        let mut charged = seconds;
        if let Some(plan) = &self.plan {
            let factor = plan.compute_factor(self.node, t0);
            if factor > 1.0 {
                charged *= factor;
            }
        }
        self.clock.advance_compute(charged);
        self.emit(t0, EventKind::Compute { seconds: charged });
    }

    fn check_rank(&self, r: u32) -> Result<(), SimError> {
        if r >= self.size {
            Err(SimError::InvalidRank {
                rank: r,
                size: self.size,
            })
        } else {
            Ok(())
        }
    }

    /// Link properties towards `peer` for a `bytes`-sized transfer: wire
    /// time, topology regime, and whether a link fault applied at the
    /// current virtual time.
    fn link(&self, peer: u32, bytes: u64) -> (f64, Regime, bool) {
        let (mut t, regime) = link_time(&self.map, &self.net, self.rank, peer, bytes);
        let mut degraded = false;
        if let Some(plan) = &self.plan {
            let factor = plan.link_factor(self.rank, peer, self.clock.now());
            if factor > 1.0 {
                t *= factor;
                degraded = true;
            }
        }
        (t, regime, degraded)
    }

    /// Fail every communication attempt once this rank's scheduled crash
    /// time has passed. The first detection emits a zero-duration `Crash`
    /// marker event.
    fn fail_if_crashed(&mut self) -> Result<(), SimError> {
        if self.crashed {
            return Err(SimError::RankCrashed { rank: self.rank });
        }
        match self.crash_at {
            Some(at_s) if self.clock.now() >= at_s => {
                self.crashed = true;
                let t0 = self.clock.now();
                self.emit(t0, EventKind::Crash { at_s });
                Err(SimError::RankCrashed { rank: self.rank })
            }
            _ => Ok(()),
        }
    }

    /// Draw the drop fate of one message towards `to`. Consumes the
    /// deterministic drop stream only when a drop fault applies, so plans
    /// without drops (and empty plans) leave the send path untouched.
    fn draw_drop(&mut self, to: u32) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        let p = plan.drop_probability(self.rank, to);
        if p <= 0.0 {
            return false;
        }
        self.drop_rng
            .get_or_insert_with(|| plan.drop_rng(self.rank))
            .gen_bool(p)
    }

    // ----- point-to-point -------------------------------------------------

    fn send_payload(&mut self, to: u32, tag: u32, payload: Payload) -> Result<(), SimError> {
        self.send_payload_inner(to, tag, payload).map(|_| ())
    }

    /// Send one message; returns whether it was *delivered* (`false`: an
    /// injected drop consumed it — a tombstone went out instead, so the
    /// receiver still unblocks and observes a timeout).
    fn send_payload_inner(
        &mut self,
        to: u32,
        tag: u32,
        payload: Payload,
    ) -> Result<bool, SimError> {
        self.fail_if_crashed()?;
        self.check_rank(to)?;
        let bytes = payload.nbytes();
        self.tally.messages.msgs_send += 1;
        self.tally.messages.bytes_send += bytes;
        let (transfer, regime, degraded) = self.link(to, bytes);
        let t0 = self.clock.now();
        // The sender serializes the message through its adapter (dropped
        // or not — the bytes entered the wire either way).
        self.clock.advance_comm(transfer);
        let dropped = self.draw_drop(to);
        let msg = Message {
            payload,
            tag,
            sent_at: self.clock.now(),
            dropped,
        };
        // Unbounded channel: never blocks; a gone peer just drops the data.
        let _ = self.senders[to as usize].send(msg);
        if dropped {
            self.emit(
                t0,
                EventKind::Drop {
                    peer: to,
                    tag,
                    bytes,
                    regime,
                },
            );
        } else {
            self.emit(
                t0,
                EventKind::Send {
                    peer: to,
                    tag,
                    bytes,
                    regime,
                    degraded,
                },
            );
        }
        Ok(!dropped)
    }

    fn recv_payload(&mut self, from: u32, tag: Option<u32>) -> Result<Payload, SimError> {
        self.fail_if_crashed()?;
        self.check_rank(from)?;
        let msg = self.receivers[from as usize]
            .recv()
            .map_err(|_| SimError::PeerGone { from })?;
        if msg.dropped {
            // The payload was lost on the wire: wait (in virtual time) up
            // to the sender's post time, then charge the receive timeout.
            let timeout_s = self
                .plan
                .as_ref()
                .map_or(FaultPlan::DEFAULT_RECV_TIMEOUT_S, |p| p.recv_timeout_s());
            let t0 = self.clock.now();
            self.clock.recv_until(msg.sent_at, timeout_s);
            self.emit(
                t0,
                EventKind::Timeout {
                    peer: from,
                    tag: msg.tag,
                    timeout_s,
                },
            );
            return Err(SimError::Timeout { from });
        }
        if let Some(expected) = tag {
            if msg.tag != expected {
                return Err(SimError::TagMismatch {
                    from,
                    expected,
                    found: msg.tag,
                });
            }
        }
        let bytes = msg.payload.nbytes();
        self.tally.messages.msgs_recv += 1;
        self.tally.messages.bytes_recv += bytes;
        let (transfer, regime, _) = self.link(from, bytes);
        let t0 = self.clock.now();
        let wait_s = (msg.sent_at - t0).max(0.0);
        self.clock.recv_until(msg.sent_at, transfer);
        self.emit(
            t0,
            EventKind::Recv {
                peer: from,
                tag: msg.tag,
                bytes,
                regime,
                wait_s,
                transfer_s: transfer,
            },
        );
        Ok(msg.payload)
    }

    /// Send a slice of `f64` to `to` with tag 0.
    pub fn send_f64(&mut self, to: u32, data: &[f64]) -> Result<(), SimError> {
        self.send_payload(to, 0, Payload::F64(data.to_vec()))
    }

    /// Send with an explicit tag.
    pub fn send_f64_tag(&mut self, to: u32, tag: u32, data: &[f64]) -> Result<(), SimError> {
        self.send_payload(to, tag, Payload::F64(data.to_vec()))
    }

    pub fn send_u64(&mut self, to: u32, data: &[u64]) -> Result<(), SimError> {
        self.send_payload(to, 0, Payload::U64(data.to_vec()))
    }

    /// Receive the next message from `from` (requiring `tag`, if given)
    /// as the payload type `take` extracts.
    fn recv_typed<T>(
        &mut self,
        from: u32,
        tag: Option<u32>,
        expected: &'static str,
        take: impl FnOnce(Payload) -> Result<T, Payload>,
    ) -> Result<T, SimError> {
        take(self.recv_payload(from, tag)?).map_err(|other| SimError::TypeMismatch {
            from,
            expected,
            found: other.type_name(),
        })
    }

    /// Receive the next `f64` message from `from` (any tag).
    pub fn recv_f64(&mut self, from: u32) -> Result<Vec<f64>, SimError> {
        self.recv_typed(from, None, "f64", Payload::into_f64)
    }

    /// Receive an `f64` message from `from`, requiring `tag`.
    pub fn recv_f64_tag(&mut self, from: u32, tag: u32) -> Result<Vec<f64>, SimError> {
        self.recv_typed(from, Some(tag), "f64", Payload::into_f64)
    }

    pub fn recv_u64(&mut self, from: u32) -> Result<Vec<u64>, SimError> {
        self.recv_typed(from, None, "u64", Payload::into_u64)
    }

    /// Simultaneous exchange with `peer`: send `data`, receive the peer's
    /// buffer. Safe against deadlock because sends never block.
    pub fn sendrecv_f64(&mut self, peer: u32, data: &[f64]) -> Result<Vec<f64>, SimError> {
        self.send_f64(peer, data)?;
        self.recv_f64(peer)
    }

    // ----- resilient point-to-point ---------------------------------------

    /// Send `data` to `to` with bounded retry under `policy`, modeling an
    /// acknowledged transport: a dropped message is re-sent after an
    /// exponential backoff charged to the **virtual** clock (recorded as a
    /// `Retry` trace event). Returns the number of attempts used. The
    /// matching receiver must call [`Comm::recv_f64_reliable`] with the
    /// same policy so both sides consume the same number of messages.
    pub fn send_f64_reliable(
        &mut self,
        to: u32,
        data: &[f64],
        policy: RetryPolicy,
    ) -> Result<u32, SimError> {
        for attempt in 1..=policy.max_attempts {
            if self.send_payload_inner(to, 0, Payload::F64(data.to_vec()))? {
                return Ok(attempt);
            }
            if attempt < policy.max_attempts {
                let backoff_s = policy.backoff_s(attempt);
                let t0 = self.clock.now();
                self.clock.advance_comm(backoff_s);
                self.emit(
                    t0,
                    EventKind::Retry {
                        peer: to,
                        attempt,
                        backoff_s,
                    },
                );
            }
        }
        Err(SimError::RetriesExhausted {
            peer: to,
            attempts: policy.max_attempts,
        })
    }

    /// Receive from `from`, absorbing up to `policy.max_attempts − 1`
    /// timeouts (each one the tombstone of a dropped attempt by a
    /// [`Comm::send_f64_reliable`] sender under the same policy). Returns
    /// the payload and the number of attempts consumed.
    pub fn recv_f64_reliable(
        &mut self,
        from: u32,
        policy: RetryPolicy,
    ) -> Result<(Vec<f64>, u32), SimError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.recv_f64(from) {
                Ok(v) => return Ok((v, attempts)),
                Err(SimError::Timeout { .. }) if attempts < policy.max_attempts => continue,
                Err(SimError::Timeout { .. }) => {
                    return Err(SimError::RetriesExhausted {
                        peer: from,
                        attempts,
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ----- collectives ----------------------------------------------------
    //
    // Barrier, allreduce, allgather and alltoall meet in the world's
    // rendezvous, which replays the named algorithm for all ranks at once
    // (see `rendezvous.rs`). A world with a fault plan runs the three
    // data collectives as the messages below instead: drops, crashes and
    // degraded links act on single messages, midway through a ring, and
    // only the message path implements that. The message path is also the
    // reference the replay is tested against (`tests/proptests.rs`).

    /// Whether this world runs its data collectives as messages.
    fn rings(&self) -> bool {
        self.plan.is_some()
    }

    /// Meet every rank with `entry`; adopt the clock, the traffic and the
    /// per-message events the replay left this rank, and return its share
    /// of the result.
    fn meet(&mut self, entry: Entry) -> Result<Entry, SimError> {
        let exit = self.rendezvous.meet(self.rank, self.clock, entry)?;
        self.clock = exit.clock;
        let (t, got) = (&mut self.tally.messages, exit.traffic);
        t.msgs_send += got.msgs_send;
        t.bytes_send += got.bytes_send;
        t.msgs_recv += got.msgs_recv;
        t.bytes_recv += got.bytes_recv;
        for (t_start, t_end, kind) in exit.events {
            self.record(t_start, t_end, kind);
        }
        Ok(exit.entry)
    }

    /// Barrier: synchronizes all virtual clocks to the maximum over the
    /// ranks still running.
    pub fn barrier(&mut self) {
        jubench_metrics::counter_add("simmpi/ops/barrier", 1);
        let t0 = self.clock.now();
        self.meet(Entry::Barrier)
            .expect("a barrier counts a rank that left as arrived");
        let sync_wait_s = self.clock.now() - t0;
        self.emit(
            t0,
            EventKind::Collective {
                kind: CollectiveKind::Barrier,
                algorithm: "max-sync",
                bytes: 0,
                sync_wait_s,
            },
        );
    }

    /// Record a collective span `[t0, now]` wrapping the constituent
    /// point-to-point events. Wire time lives in those wrapped events, so
    /// the span itself carries `sync_wait_s = 0` and does not enter the
    /// clock accounting a second time.
    fn emit_collective(
        &mut self,
        t0: f64,
        kind: CollectiveKind,
        algorithm: &'static str,
        bytes: u64,
    ) {
        match self.tally.collectives.iter_mut().find(|c| c.0 == kind) {
            Some(c) => {
                c.1 += 1;
                c.2 += bytes;
            }
            None => self.tally.collectives.push((kind, 1, bytes)),
        }
        self.emit(
            t0,
            EventKind::Collective {
                kind,
                algorithm,
                bytes,
                sync_wait_s: 0.0,
            },
        );
    }

    /// In-place ring allreduce (reduce-scatter + allgather).
    pub fn allreduce_f64(&mut self, buf: &mut [f64], op: ReduceOp) -> Result<(), SimError> {
        let t0 = self.clock.now();
        if self.rings() || self.size == 1 || buf.is_empty() {
            self.allreduce_ring(buf, op)?;
        } else {
            let Entry::Allreduce { buf: reduced, .. } = self.meet(Entry::Allreduce {
                buf: buf.to_vec(),
                op,
            })?
            else {
                unreachable!("an allreduce exits as one")
            };
            buf.copy_from_slice(&reduced);
        }
        self.emit_collective(
            t0,
            CollectiveKind::Allreduce,
            "ring",
            (buf.len() * 8) as u64,
        );
        Ok(())
    }

    fn allreduce_ring(&mut self, buf: &mut [f64], op: ReduceOp) -> Result<(), SimError> {
        let p = self.size as usize;
        if p == 1 || buf.is_empty() {
            return Ok(());
        }
        let r = self.rank as usize;
        let right = ((r + 1) % p) as u32;
        let left = ((r + p - 1) % p) as u32;
        let n = buf.len();
        let chunk = move |i: usize| ring_chunk(n, p, i);
        // Reduce-scatter.
        for s in 0..p - 1 {
            let send_idx = (r + p - s) % p;
            let recv_idx = (r + p - s - 1) % p;
            self.send_f64(right, &buf[chunk(send_idx)])?;
            let incoming = self.recv_f64(left)?;
            for (dst, src) in buf[chunk(recv_idx)].iter_mut().zip(incoming) {
                *dst = op.apply(*dst, src);
            }
        }
        // Allgather of the reduced chunks.
        for s in 0..p - 1 {
            let send_idx = (r + 1 + p - s) % p;
            let recv_idx = (r + p - s) % p;
            self.send_f64(right, &buf[chunk(send_idx)])?;
            let incoming = self.recv_f64(left)?;
            buf[chunk(recv_idx)].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// Allreduce of a single scalar (CG dot products and friends).
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> Result<f64, SimError> {
        let mut buf = [value];
        self.allreduce_f64(&mut buf, op)?;
        Ok(buf[0])
    }

    /// Ring allgather: returns the concatenation of every rank's `local`
    /// contribution, ordered by rank. All contributions must have equal
    /// length.
    pub fn allgather_f64(&mut self, local: &[f64]) -> Result<Vec<f64>, SimError> {
        let t0 = self.clock.now();
        let out = if self.rings() || self.size == 1 {
            self.allgather_ring(local)?
        } else {
            let Entry::Allgather { buf } = self.meet(Entry::Allgather {
                buf: local.to_vec(),
            })?
            else {
                unreachable!("an allgather exits as one")
            };
            buf
        };
        self.emit_collective(
            t0,
            CollectiveKind::Allgather,
            "ring",
            (local.len() * 8) as u64,
        );
        Ok(out)
    }

    fn allgather_ring(&mut self, local: &[f64]) -> Result<Vec<f64>, SimError> {
        let p = self.size as usize;
        let n = local.len();
        let r = self.rank as usize;
        let mut out = vec![0.0; n * p];
        out[r * n..(r + 1) * n].copy_from_slice(local);
        if p == 1 {
            return Ok(out);
        }
        let right = ((r + 1) % p) as u32;
        let left = ((r + p - 1) % p) as u32;
        let mut cur = local.to_vec();
        for s in 0..p - 1 {
            self.send_payload(right, 0, Payload::F64(cur))?;
            cur = self.recv_f64(left)?;
            let src = (r + p - 1 - s) % p;
            out[src * n..(src + 1) * n].copy_from_slice(&cur);
        }
        Ok(out)
    }

    /// Personalized all-to-all: `send[i]` goes to rank `i`; returns the
    /// vector of buffers received from each rank (`recv[i]` from rank `i`).
    pub fn alltoall_f64(&mut self, send: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>, SimError> {
        assert_eq!(
            send.len(),
            self.size as usize,
            "alltoall needs one buffer per rank"
        );
        let t0 = self.clock.now();
        let bytes = send.iter().map(|b| (b.len() * 8) as u64).sum();
        let recv = if self.rings() || self.size == 1 {
            self.alltoall_pairwise(send)?
        } else {
            let Entry::Alltoall { bufs } = self.meet(Entry::Alltoall { bufs: send })? else {
                unreachable!("an alltoall exits as one")
            };
            bufs
        };
        self.emit_collective(t0, CollectiveKind::Alltoall, "pairwise", bytes);
        Ok(recv)
    }

    fn alltoall_pairwise(&mut self, send: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>, SimError> {
        let p = self.size as usize;
        let r = self.rank as usize;
        let mut recv: Vec<Vec<f64>> = vec![Vec::new(); p];
        recv[r] = send[r].clone();
        for round in 1..p {
            let dst = ((r + round) % p) as u32;
            let src = ((r + p - round) % p) as u32;
            self.send_f64(dst, &send[dst as usize])?;
            recv[src as usize] = self.recv_f64(src)?;
        }
        Ok(recv)
    }

    /// Binomial-tree broadcast from `root`, in place.
    pub fn broadcast_f64(&mut self, root: u32, buf: &mut Vec<f64>) -> Result<(), SimError> {
        let t0 = self.clock.now();
        self.broadcast_impl(root, buf)?;
        // Payload size is known once the buffer arrived (non-root ranks
        // start empty).
        self.emit_collective(
            t0,
            CollectiveKind::Broadcast,
            "binomial-tree",
            (buf.len() * 8) as u64,
        );
        Ok(())
    }

    fn broadcast_impl(&mut self, root: u32, buf: &mut Vec<f64>) -> Result<(), SimError> {
        self.check_rank(root)?;
        let p = self.size;
        if p == 1 {
            return Ok(());
        }
        let relrank = (self.rank + p - root) % p;
        let mut mask = 1u32;
        while mask < p {
            if relrank & mask != 0 {
                let src = (self.rank + p - mask) % p;
                *buf = self.recv_f64(src)?;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relrank + mask < p {
                let dst = (self.rank + mask) % p;
                self.send_f64(dst, buf)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Gather every rank's `local` buffer at `root`. Returns `Some` at the
    /// root (indexed by rank), `None` elsewhere.
    pub fn gather_f64(
        &mut self,
        root: u32,
        local: &[f64],
    ) -> Result<Option<Vec<Vec<f64>>>, SimError> {
        let t0 = self.clock.now();
        let out = self.gather_impl(root, local)?;
        self.emit_collective(
            t0,
            CollectiveKind::Gather,
            "linear",
            (local.len() * 8) as u64,
        );
        Ok(out)
    }

    fn gather_impl(&mut self, root: u32, local: &[f64]) -> Result<Option<Vec<Vec<f64>>>, SimError> {
        self.check_rank(root)?;
        if self.rank == root {
            let mut all = vec![Vec::new(); self.size as usize];
            all[root as usize] = local.to_vec();
            for from in 0..self.size {
                if from != root {
                    all[from as usize] = self.recv_f64(from)?;
                }
            }
            Ok(Some(all))
        } else {
            self.send_f64(root, local)?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn payload_sizes_and_names() {
        assert_eq!(Payload::F64(vec![0.0; 4]).nbytes(), 32);
        assert_eq!(Payload::U64(vec![0; 2]).nbytes(), 16);
        assert_eq!(Payload::F64(vec![]).type_name(), "f64");
    }
}
