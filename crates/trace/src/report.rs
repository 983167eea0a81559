//! Aggregate run metrics computed from an event stream: *where virtual
//! time goes* — the question behind every Base/High-Scaling curve and
//! result table of the paper.

use std::collections::BTreeMap;

use crate::event::{CkptPhase, EventKind, Regime, SchedPhase, TraceEvent};

/// Bytes and message count of one topology regime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegimeBucket {
    pub bytes: u64,
    pub messages: u64,
}

/// Aggregate statistics of one operation kind (send, recv, allreduce, …).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    pub count: u64,
    pub bytes: u64,
    pub seconds: f64,
    /// Message-size histogram: `size_log2[k]` counts operations whose
    /// payload was in `[2^k, 2^(k+1))` bytes (zero-byte ops land in bin 0).
    pub size_log2: BTreeMap<u32, u64>,
}

/// Per-rank virtual-time and traffic breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBreakdown {
    pub rank: u32,
    pub node: u32,
    pub compute_s: f64,
    pub comm_s: f64,
    pub sent_bytes: u64,
    pub sent_messages: u64,
}

impl RankBreakdown {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Fraction of this rank's virtual time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            self.comm_s / t
        }
    }
}

/// Which rank set the makespan, and what its time was spent on — the
/// critical-path attribution: speeding up anything else cannot shorten
/// the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MakespanAttribution {
    pub rank: u32,
    pub total_s: f64,
    pub compute_s: f64,
    pub comm_s: f64,
}

impl MakespanAttribution {
    pub fn comm_fraction(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.comm_s / self.total_s
        }
    }
}

/// Aggregate fault and resilience activity observed in one run — the
/// evidence behind fault attribution: when a run is slower than its
/// fault-free baseline, these counters say what the runtime was fighting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Messages lost on the wire (injected drops).
    pub dropped_messages: u64,
    /// Payload bytes of the dropped messages.
    pub dropped_bytes: u64,
    /// Receives that gave up after waiting out the receive timeout.
    pub timeouts: u64,
    /// Virtual seconds spent waiting on timeouts (includes the causality
    /// wait up to the lost send plus the timeout itself).
    pub timeout_wait_s: f64,
    /// Retry attempts of resilient operations (comm-level, not workflow).
    pub retries: u64,
    /// Virtual seconds of retry backoff charged to clocks.
    pub retry_backoff_s: f64,
    /// Ranks that hit their scheduled crash time.
    pub crashes: u64,
    /// Sends that crossed a degraded link (slowed, not lost).
    pub degraded_sends: u64,
}

impl FaultStats {
    /// Did the run observe *any* fault or resilience activity?
    pub fn any(&self) -> bool {
        self.dropped_messages > 0
            || self.timeouts > 0
            || self.retries > 0
            || self.crashes > 0
            || self.degraded_sends > 0
    }
}

/// Aggregate batch-scheduler activity observed in one stream — the
/// campaign-level view: how many jobs moved through the queue and how
/// much machine time they consumed versus waited for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Jobs that entered the queue (Submit spans).
    pub submitted: u64,
    /// Job dispatches (Start spans; preempted jobs restart, so this can
    /// exceed `finished`).
    pub started: u64,
    /// Preemptions by node drains or crashes.
    pub preempted: u64,
    /// Jobs that ran to completion.
    pub finished: u64,
    /// Node-seconds of execution: each Start span's duration times its
    /// node count — the numerator of machine utilization.
    pub busy_node_s: f64,
    /// Total queue-wait seconds across Submit spans.
    pub wait_s: f64,
    /// Latest scheduler-event end time — the campaign makespan as seen
    /// in the trace (scheduler events live on synthetic cell tracks, so
    /// per-rank clocks never include them).
    pub makespan_s: f64,
}

impl SchedStats {
    /// Did the stream carry any scheduler events?
    pub fn any(&self) -> bool {
        self.submitted > 0 || self.started > 0 || self.preempted > 0 || self.finished > 0
    }

    /// Machine utilization over `[0, makespan_s]` on a `nodes`-node
    /// machine: busy node-seconds over available node-seconds. Returns
    /// 0.0 when the denominator is zero.
    pub fn utilization(&self, nodes: u32, makespan_s: f64) -> f64 {
        let capacity = nodes as f64 * makespan_s;
        if capacity == 0.0 {
            0.0
        } else {
            self.busy_node_s / capacity
        }
    }
}

/// Aggregate checkpoint/restart activity observed in one stream — the
/// overhead-versus-lost-work tradeoff behind the Young/Daly optimal
/// interval: frequent checkpoints cost write time, sparse ones lose
/// more work per failure.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CkptStats {
    /// Checkpoint writes (Write spans).
    pub writes: u64,
    /// Restarts from a checkpoint (Restore markers).
    pub restores: u64,
    /// Wall seconds spent writing checkpoints.
    pub write_s: f64,
    /// Wall seconds of work discarded at preemptions — progress past
    /// each victim's last completed checkpoint.
    pub lost_work_s: f64,
}

impl CkptStats {
    /// Did the stream carry any checkpoint events?
    pub fn any(&self) -> bool {
        self.writes > 0 || self.restores > 0
    }

    /// Fraction of `makespan_s` spent on checkpoint overhead (writes
    /// plus lost work). Returns 0.0 for a zero makespan.
    pub fn overhead_fraction(&self, makespan_s: f64) -> f64 {
        if makespan_s == 0.0 {
            0.0
        } else {
            (self.write_s + self.lost_work_s) / makespan_s
        }
    }
}

/// Content-addressed result-cache activity attributed to one run — the
/// incremental-evaluation ledger of the campaign service: how much of
/// the request was served from prior identical work.
///
/// Cache stats are attached out-of-band by the service
/// (`jubench-serve`), never derived from trace events: whether a run
/// point hit the cache must not change any deterministic artifact, so
/// hits and misses deliberately leave no trace-event footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Run points answered from the store without re-execution.
    pub hits: u64,
    /// Run points that had to execute.
    pub misses: u64,
    /// Results written into the store.
    pub insertions: u64,
    /// Results displaced by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Did the run observe any cache activity?
    pub fn any(&self) -> bool {
        self.hits > 0 || self.misses > 0 || self.insertions > 0 || self.evictions > 0
    }

    /// Fraction of lookups answered from the store (0.0 when none).
    pub(crate) fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Robustness-layer activity attributed to one run — what the campaign
/// service's guard (supervision, admission, deadlines) did on the way
/// to producing it.
///
/// Like [`CacheStats`], guard stats are attached out-of-band by the
/// service (`jubench-serve`), never derived from trace events: whether
/// a shard crashed and was restored from its snapshot must not change
/// any deterministic artifact, so supervision leaves no trace-event
/// footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuardStats {
    /// Shard restarts: a worker failed and was restored from its last
    /// snapshot, then re-driven.
    pub restarts: u64,
    /// Virtual seconds of seeded backoff charged across those restarts.
    pub backoff_s: f64,
    /// Campaigns cancelled for overrunning their virtual-time deadline.
    pub deadline_cancels: u64,
    /// Shards that exhausted their restart budget, degrading the drain
    /// to partial results.
    pub giveups: u64,
}

impl GuardStats {
    /// Did the run observe any guard activity?
    pub fn any(&self) -> bool {
        self.restarts > 0 || self.deadline_cancels > 0 || self.giveups > 0 || self.backoff_s > 0.0
    }

    /// Fold another tally into this one (shard tallies → run total).
    pub fn absorb(&mut self, other: &GuardStats) {
        self.restarts += other.restarts;
        self.backoff_s += other.backoff_s;
        self.deadline_cancels += other.deadline_cancels;
        self.giveups += other.giveups;
    }
}

/// The aggregate report over one recorded run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-rank breakdowns, ordered by rank. Workflow events (which carry
    /// no virtual time) are excluded.
    pub ranks: Vec<RankBreakdown>,
    /// Traffic bucketed by topology regime, counted at the sender.
    pub regimes: BTreeMap<Regime, RegimeBucket>,
    /// Per-op-kind statistics (send, recv, barrier, allreduce, …).
    pub ops: BTreeMap<&'static str, OpStats>,
    /// Critical-path attribution of the virtual makespan.
    pub makespan: MakespanAttribution,
    /// Fault and resilience activity observed in the stream.
    pub faults: FaultStats,
    /// Batch-scheduler activity observed in the stream.
    pub sched: SchedStats,
    /// Checkpoint/restart activity observed in the stream.
    pub ckpt: CkptStats,
    /// Result-cache activity, attached out-of-band by the campaign
    /// service ([`RunReport::from_events`] always leaves it zeroed).
    pub cache: CacheStats,
    /// Guard-layer activity (restarts, deadline cancels), attached
    /// out-of-band by the campaign service like [`RunReport::cache`].
    pub guard: GuardStats,
    /// Total events aggregated (including workflow events).
    pub events: usize,
}

impl RunReport {
    /// Aggregate an event stream (as produced by
    /// [`Recorder::take_events`](crate::Recorder::take_events)).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut per_rank: BTreeMap<u32, RankBreakdown> = BTreeMap::new();
        let mut regimes: BTreeMap<Regime, RegimeBucket> = BTreeMap::new();
        let mut ops: BTreeMap<&'static str, OpStats> = BTreeMap::new();
        let mut faults = FaultStats::default();
        let mut sched = SchedStats::default();
        let mut ckpt = CkptStats::default();
        for e in events {
            if !e.is_synthetic() {
                let r = per_rank.entry(e.rank).or_insert(RankBreakdown {
                    rank: e.rank,
                    node: e.node,
                    ..RankBreakdown::default()
                });
                r.compute_s += e.compute_seconds();
                r.comm_s += e.comm_seconds();
                if let EventKind::Send { bytes, regime, .. } = e.kind {
                    r.sent_bytes += bytes;
                    r.sent_messages += 1;
                    let bucket = regimes.entry(regime).or_default();
                    bucket.bytes += bytes;
                    bucket.messages += 1;
                }
            }
            match &e.kind {
                EventKind::Send { degraded: true, .. } => faults.degraded_sends += 1,
                EventKind::Drop { bytes, .. } => {
                    faults.dropped_messages += 1;
                    faults.dropped_bytes += bytes;
                }
                EventKind::Timeout { .. } => {
                    faults.timeouts += 1;
                    faults.timeout_wait_s += e.duration_s();
                }
                EventKind::Retry { .. } => {
                    faults.retries += 1;
                    faults.retry_backoff_s += e.duration_s();
                }
                EventKind::Crash { .. } => faults.crashes += 1,
                EventKind::Sched { phase, nodes, .. } => {
                    sched.makespan_s = sched.makespan_s.max(e.t_end);
                    match phase {
                        SchedPhase::Submit => {
                            sched.submitted += 1;
                            sched.wait_s += e.duration_s();
                        }
                        SchedPhase::Start => {
                            sched.started += 1;
                            sched.busy_node_s += e.duration_s() * *nodes as f64;
                        }
                        SchedPhase::Preempt => sched.preempted += 1,
                        SchedPhase::Finish => sched.finished += 1,
                    }
                }
                EventKind::Ckpt { phase, lost_s, .. } => match phase {
                    CkptPhase::Write => {
                        ckpt.writes += 1;
                        ckpt.write_s += e.duration_s();
                    }
                    CkptPhase::Restore => {
                        ckpt.restores += 1;
                        ckpt.lost_work_s += lost_s;
                    }
                },
                _ => {}
            }
            let op = ops.entry(e.kind.label()).or_default();
            op.count += 1;
            op.bytes += e.kind.bytes();
            op.seconds += e.duration_s();
            let bin = 63 - e.kind.bytes().max(1).leading_zeros();
            *op.size_log2.entry(bin).or_default() += 1;
        }
        let ranks: Vec<RankBreakdown> = per_rank.into_values().collect();
        let makespan = ranks
            .iter()
            .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
            .map(|r| MakespanAttribution {
                rank: r.rank,
                total_s: r.total_s(),
                compute_s: r.compute_s,
                comm_s: r.comm_s,
            })
            .unwrap_or_default();
        RunReport {
            ranks,
            regimes,
            ops,
            makespan,
            faults,
            sched,
            ckpt,
            cache: CacheStats::default(),
            guard: GuardStats::default(),
            events: events.len(),
        }
    }

    /// The run's makespan across every track: the critical-path rank
    /// clock for rank-level streams, the last scheduler event for
    /// campaign streams (whose synthetic events never enter rank
    /// clocks), whichever is later when a stream carries both.
    pub fn total_makespan_s(&self) -> f64 {
        self.makespan.total_s.max(self.sched.makespan_s)
    }

    /// Makespan inflation relative to a fault-free baseline run of the
    /// same workload: `self.makespan / baseline.makespan` (using
    /// [`Self::total_makespan_s`], so campaign streams compare too).
    /// This is the fault-attribution headline — 1.0 means the injected
    /// faults cost nothing; 4.0 means a 4× slowdown attributable to
    /// them. Returns 1.0 when the baseline makespan is zero.
    pub fn makespan_inflation(&self, baseline: &RunReport) -> f64 {
        if baseline.total_makespan_s() == 0.0 {
            1.0
        } else {
            self.total_makespan_s() / baseline.total_makespan_s()
        }
    }

    /// Total bytes sent, over all ranks and regimes.
    pub fn total_bytes(&self) -> u64 {
        self.regimes.values().map(|b| b.bytes).sum()
    }

    /// Total messages sent.
    pub fn total_messages(&self) -> u64 {
        self.regimes.values().map(|b| b.messages).sum()
    }

    /// Bytes sent within one regime.
    pub fn regime_bytes(&self, regime: Regime) -> u64 {
        self.regimes.get(&regime).map_or(0, |b| b.bytes)
    }

    /// Render the operator-facing summary tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "makespan: {:.6} s on rank {} (compute {:.6} s, comm {:.6} s, comm fraction {:.1} %)\n",
            self.makespan.total_s,
            self.makespan.rank,
            self.makespan.compute_s,
            self.makespan.comm_s,
            100.0 * self.makespan.comm_fraction(),
        ));
        out.push_str("\n| regime       |        bytes | messages |\n");
        out.push_str("|--------------|--------------|----------|\n");
        for (regime, bucket) in &self.regimes {
            out.push_str(&format!(
                "| {:<12} | {:>12} | {:>8} |\n",
                regime.label(),
                bucket.bytes,
                bucket.messages
            ));
        }
        out.push_str("\n| op          |  count |        bytes |   virtual s |\n");
        out.push_str("|-------------|--------|--------------|-------------|\n");
        for (op, stats) in &self.ops {
            out.push_str(&format!(
                "| {:<11} | {:>6} | {:>12} | {:>11.6} |\n",
                op, stats.count, stats.bytes, stats.seconds
            ));
        }
        out.push_str("\n| rank | node | compute s |    comm s | comm % |    sent bytes |\n");
        out.push_str("|------|------|-----------|-----------|--------|---------------|\n");
        for r in &self.ranks {
            out.push_str(&format!(
                "| {:>4} | {:>4} | {:>9.4} | {:>9.4} | {:>5.1} % | {:>13} |\n",
                r.rank,
                r.node,
                r.compute_s,
                r.comm_s,
                100.0 * r.comm_fraction(),
                r.sent_bytes
            ));
        }
        if self.faults.any() {
            let f = &self.faults;
            out.push_str("\nfaults observed:\n");
            out.push_str(&format!(
                "| degraded sends | {:>8} |                       |\n",
                f.degraded_sends
            ));
            out.push_str(&format!(
                "| dropped msgs   | {:>8} | {:>12} bytes    |\n",
                f.dropped_messages, f.dropped_bytes
            ));
            out.push_str(&format!(
                "| timeouts       | {:>8} | {:>12.6} wait s |\n",
                f.timeouts, f.timeout_wait_s
            ));
            out.push_str(&format!(
                "| retries        | {:>8} | {:>12.6} backoff s |\n",
                f.retries, f.retry_backoff_s
            ));
            out.push_str(&format!(
                "| crashes        | {:>8} |                       |\n",
                f.crashes
            ));
        }
        if self.sched.any() {
            let s = &self.sched;
            out.push_str("\nscheduler activity:\n");
            out.push_str(&format!(
                "| jobs submitted | {:>8} | {:>12.6} wait s |\n",
                s.submitted, s.wait_s
            ));
            out.push_str(&format!(
                "| jobs started   | {:>8} | {:>12.6} busy node s |\n",
                s.started, s.busy_node_s
            ));
            out.push_str(&format!(
                "| jobs preempted | {:>8} |                       |\n",
                s.preempted
            ));
            out.push_str(&format!(
                "| jobs finished  | {:>8} |                       |\n",
                s.finished
            ));
        }
        if self.ckpt.any() {
            let c = &self.ckpt;
            out.push_str("\ncheckpoint activity:\n");
            out.push_str(&format!(
                "| ckpt writes    | {:>8} | {:>12.6} write s |\n",
                c.writes, c.write_s
            ));
            out.push_str(&format!(
                "| ckpt restores  | {:>8} | {:>12.6} lost s |\n",
                c.restores, c.lost_work_s
            ));
            out.push_str(&format!(
                "| ckpt overhead  | {:>7.3} % of makespan       |\n",
                100.0 * c.overhead_fraction(self.total_makespan_s())
            ));
        }
        if self.cache.any() {
            let c = &self.cache;
            out.push_str("\nresult-cache activity:\n");
            out.push_str(&format!(
                "| cache hits     | {:>8} | {:>7.1} % hit rate |\n",
                c.hits,
                100.0 * c.hit_rate()
            ));
            out.push_str(&format!(
                "| cache misses   | {:>8} |                   |\n",
                c.misses
            ));
            out.push_str(&format!(
                "| cache inserts  | {:>8} | {:>8} evicted  |\n",
                c.insertions, c.evictions
            ));
        }
        if self.guard.any() {
            let g = &self.guard;
            out.push_str("\nguard activity:\n");
            out.push_str(&format!(
                "| shard restarts | {:>8} | {:>12.6} backoff s |\n",
                g.restarts, g.backoff_s
            ));
            out.push_str(&format!(
                "| deadline kills | {:>8} |                       |\n",
                g.deadline_cancels
            ));
            out.push_str(&format!(
                "| shard giveups  | {:>8} |                       |\n",
                g.giveups
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveKind, StepPhase, SCHED_CELL_TRACK_BASE, WORKFLOW_NODE};

    fn send(rank: u32, seq: u64, t: f64, bytes: u64, regime: Regime) -> TraceEvent {
        TraceEvent {
            rank,
            node: rank / 4,
            seq,
            t_start: t,
            t_end: t + 0.5,
            kind: EventKind::Send {
                peer: 0,
                bytes,
                regime,
                degraded: false,
            },
        }
    }

    fn compute(rank: u32, seq: u64, t: f64, s: f64) -> TraceEvent {
        TraceEvent {
            rank,
            node: rank / 4,
            seq,
            t_start: t,
            t_end: t + s,
            kind: EventKind::Compute { seconds: s },
        }
    }

    #[test]
    fn totals_and_buckets() {
        let events = vec![
            compute(0, 0, 0.0, 2.0),
            send(0, 1, 2.0, 100, Regime::IntraNode),
            send(0, 2, 2.5, 200, Regime::InterCell),
            compute(1, 0, 0.0, 1.0),
        ];
        let report = RunReport::from_events(&events);
        assert_eq!(report.total_bytes(), 300);
        assert_eq!(report.total_messages(), 2);
        assert_eq!(report.regime_bytes(Regime::IntraNode), 100);
        assert_eq!(report.regime_bytes(Regime::InterCell), 200);
        assert_eq!(report.regime_bytes(Regime::InterModule), 0);
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.ranks[0].sent_messages, 2);
        assert_eq!(report.ranks[1].sent_messages, 0);
        // Rank 0: 2.0 compute + 1.0 comm; rank 1: 1.0 compute.
        assert_eq!(report.makespan.rank, 0);
        assert!((report.makespan.total_s - 3.0).abs() < 1e-12);
        assert!((report.makespan.comm_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn collective_sync_wait_counts_once() {
        let coll = TraceEvent {
            rank: 0,
            node: 0,
            seq: 0,
            t_start: 0.0,
            t_end: 4.0,
            kind: EventKind::Collective {
                kind: CollectiveKind::Barrier,
                algorithm: "max-sync",
                bytes: 0,
                sync_wait_s: 4.0,
            },
        };
        let report = RunReport::from_events(&[coll]);
        assert!((report.ranks[0].comm_s - 4.0).abs() < 1e-12);
        assert_eq!(report.ops["barrier"].count, 1);
    }

    #[test]
    fn workflow_events_do_not_enter_rank_breakdowns() {
        let step = TraceEvent {
            rank: 3,
            node: WORKFLOW_NODE,
            seq: 0,
            t_start: 0.0,
            t_end: 1.0,
            kind: EventKind::Step {
                step: "execute".into(),
                phase: StepPhase::Execute,
                workpackage: 3,
            },
        };
        let report = RunReport::from_events(&[step]);
        assert!(report.ranks.is_empty());
        assert_eq!(report.events, 1);
        assert_eq!(report.ops["execute"].count, 1);
    }

    #[test]
    fn size_histogram_uses_log2_bins() {
        let events = vec![
            send(0, 0, 0.0, 1, Regime::IntraNode),
            send(0, 1, 1.0, 1024, Regime::IntraNode),
            send(0, 2, 2.0, 1500, Regime::IntraNode),
        ];
        let report = RunReport::from_events(&events);
        let hist = &report.ops["send"].size_log2;
        assert_eq!(hist[&0], 1);
        assert_eq!(hist[&10], 2, "1024 and 1500 share the 2^10 bin");
    }

    #[test]
    fn render_contains_key_rows() {
        let events = vec![
            compute(0, 0, 0.0, 1.0),
            send(0, 1, 1.0, 64, Regime::IntraCell),
        ];
        let s = RunReport::from_events(&events).render();
        assert!(s.contains("makespan"));
        assert!(s.contains("intra-cell"));
        assert!(s.contains("| send"));
    }

    #[test]
    fn empty_stream_is_well_formed() {
        let report = RunReport::from_events(&[]);
        assert_eq!(report.total_bytes(), 0);
        assert_eq!(report.makespan.total_s, 0.0);
        assert!(!report.faults.any());
        assert_eq!(report.makespan_inflation(&report), 1.0);
    }

    #[test]
    fn fault_events_are_tallied() {
        let events = vec![
            TraceEvent {
                rank: 0,
                node: 0,
                seq: 0,
                t_start: 0.0,
                t_end: 0.25,
                kind: EventKind::Drop {
                    peer: 1,
                    bytes: 512,
                    regime: Regime::IntraCell,
                },
            },
            TraceEvent {
                rank: 1,
                node: 0,
                seq: 0,
                t_start: 0.0,
                t_end: 0.35,
                kind: EventKind::Timeout {
                    peer: 0,
                    timeout_s: 0.1,
                },
            },
            TraceEvent {
                rank: 0,
                node: 0,
                seq: 1,
                t_start: 0.25,
                t_end: 0.45,
                kind: EventKind::Retry {
                    peer: 1,
                    attempt: 1,
                    backoff_s: 0.2,
                },
            },
            TraceEvent {
                rank: 2,
                node: 1,
                seq: 0,
                t_start: 1.0,
                t_end: 1.0,
                kind: EventKind::Crash { at_s: 1.0 },
            },
            send(3, 0, 0.0, 64, Regime::IntraNode),
        ];
        let mut degraded = send(3, 1, 1.0, 64, Regime::IntraNode);
        degraded.kind = EventKind::Send {
            peer: 0,
            bytes: 64,
            regime: Regime::IntraNode,
            degraded: true,
        };
        let mut events = events;
        events.push(degraded);
        let report = RunReport::from_events(&events);
        let f = &report.faults;
        assert!(f.any());
        assert_eq!(f.dropped_messages, 1);
        assert_eq!(f.dropped_bytes, 512);
        assert_eq!(f.timeouts, 1);
        assert!((f.timeout_wait_s - 0.35).abs() < 1e-12);
        assert_eq!(f.retries, 1);
        assert!((f.retry_backoff_s - 0.2).abs() < 1e-12);
        assert_eq!(f.crashes, 1);
        assert_eq!(f.degraded_sends, 1);
        // Fault spans charge comm time: drop + retry on rank 0.
        assert!((report.ranks[0].comm_s - 0.45).abs() < 1e-12);
        // The rendered report surfaces the fault section.
        let rendered = report.render();
        assert!(rendered.contains("faults observed"));
        assert!(rendered.contains("dropped msgs"));
    }

    #[test]
    fn sched_events_are_tallied_and_kept_out_of_rank_breakdowns() {
        let ev = |phase, t0: f64, t1: f64| TraceEvent {
            rank: 7,
            node: SCHED_CELL_TRACK_BASE,
            seq: 0,
            t_start: t0,
            t_end: t1,
            kind: EventKind::Sched {
                job: 7,
                name: "amber".into(),
                phase,
                nodes: 4,
                cells: 1,
            },
        };
        let events = vec![
            ev(SchedPhase::Submit, 0.0, 2.0),
            ev(SchedPhase::Start, 2.0, 5.0),
            ev(SchedPhase::Finish, 5.0, 5.0),
        ];
        let report = RunReport::from_events(&events);
        assert!(report.ranks.is_empty(), "cell tracks carry no rank time");
        let s = &report.sched;
        assert!(s.any());
        assert_eq!(s.submitted, 1);
        assert_eq!(s.started, 1);
        assert_eq!(s.preempted, 0);
        assert_eq!(s.finished, 1);
        assert!((s.wait_s - 2.0).abs() < 1e-12);
        assert!((s.busy_node_s - 12.0).abs() < 1e-12);
        assert!((s.utilization(4, 5.0) - 0.6).abs() < 1e-12);
        assert_eq!(s.utilization(0, 0.0), 0.0);
        let rendered = report.render();
        assert!(rendered.contains("scheduler activity"));
        assert!(rendered.contains("jobs submitted"));
    }

    #[test]
    fn ckpt_events_are_tallied() {
        use crate::event::CkptPhase;
        let ev = |phase, t0: f64, t1: f64, lost: f64| TraceEvent {
            rank: 2,
            node: SCHED_CELL_TRACK_BASE,
            seq: 0,
            t_start: t0,
            t_end: t1,
            kind: EventKind::Ckpt {
                job: 2,
                name: "amber".into(),
                phase,
                cost_s: t1 - t0,
                lost_s: lost,
            },
        };
        let sched_finish = TraceEvent {
            rank: 2,
            node: SCHED_CELL_TRACK_BASE,
            seq: 3,
            t_start: 10.0,
            t_end: 10.0,
            kind: EventKind::Sched {
                job: 2,
                name: "amber".into(),
                phase: SchedPhase::Finish,
                nodes: 4,
                cells: 1,
            },
        };
        let events = vec![
            ev(CkptPhase::Write, 1.0, 1.25, 0.0),
            ev(CkptPhase::Write, 2.25, 2.5, 0.0),
            ev(CkptPhase::Restore, 4.0, 4.0, 0.75),
            sched_finish,
        ];
        let report = RunReport::from_events(&events);
        assert!(report.ranks.is_empty(), "ckpt events are synthetic");
        let c = &report.ckpt;
        assert!(c.any());
        assert_eq!(c.writes, 2);
        assert_eq!(c.restores, 1);
        assert!((c.write_s - 0.5).abs() < 1e-12);
        assert!((c.lost_work_s - 0.75).abs() < 1e-12);
        assert_eq!(report.total_makespan_s(), 10.0, "sched track sets it");
        assert!((c.overhead_fraction(10.0) - 0.125).abs() < 1e-12);
        assert_eq!(CkptStats::default().overhead_fraction(0.0), 0.0);
        let rendered = report.render();
        assert!(rendered.contains("checkpoint activity"));
        assert!(rendered.contains("ckpt writes"));
        assert!(rendered.contains("ckpt overhead"));
    }

    #[test]
    fn campaign_streams_compare_via_sched_makespan() {
        let ev = |t1: f64| TraceEvent {
            rank: 0,
            node: SCHED_CELL_TRACK_BASE,
            seq: 0,
            t_start: 0.0,
            t_end: t1,
            kind: EventKind::Sched {
                job: 0,
                name: "a".into(),
                phase: SchedPhase::Start,
                nodes: 1,
                cells: 1,
            },
        };
        let baseline = RunReport::from_events(&[ev(2.0)]);
        let slower = RunReport::from_events(&[ev(5.0)]);
        assert_eq!(baseline.makespan.total_s, 0.0, "no rank clocks");
        assert_eq!(slower.makespan_inflation(&baseline), 2.5);
    }

    #[test]
    fn makespan_inflation_vs_baseline() {
        let baseline = RunReport::from_events(&[compute(0, 0, 0.0, 2.0)]);
        let faulted = RunReport::from_events(&[compute(0, 0, 0.0, 8.0)]);
        assert_eq!(faulted.makespan_inflation(&baseline), 4.0);
        assert_eq!(baseline.makespan_inflation(&baseline), 1.0);
    }
}
