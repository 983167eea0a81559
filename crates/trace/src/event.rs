//! The structured event model: everything the simulated runtime can
//! observe, stamped with virtual time.

/// Topology regime a transfer crossed — the axis the paper's analyses
/// bucket communication by (NVLink inside a node, InfiniBand inside a
/// DragonFly+ cell, global optical links between cells, the MSA gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Regime {
    /// Same device: an on-device copy, no network involved.
    SameDevice,
    /// Same node: NVLink / NVSwitch.
    IntraNode,
    /// Different nodes inside one DragonFly+ cell.
    IntraCell,
    /// Across cells via global optical links.
    InterCell,
    /// Across MSA modules through the federation gateway.
    InterModule,
}

impl Regime {
    pub const ALL: [Regime; 5] = [
        Regime::SameDevice,
        Regime::IntraNode,
        Regime::IntraCell,
        Regime::InterCell,
        Regime::InterModule,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Regime::SameDevice => "same-device",
            Regime::IntraNode => "intra-node",
            Regime::IntraCell => "intra-cell",
            Regime::InterCell => "inter-cell",
            Regime::InterModule => "inter-module",
        }
    }
}

/// Collective operations the runtime implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectiveKind {
    Barrier,
    Allreduce,
    Allgather,
    Alltoall,
}

impl CollectiveKind {
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Alltoall => "alltoall",
        }
    }
}

/// Lifecycle phase of a JUBE workflow step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StepPhase {
    /// The workpackage's parameter point was resolved.
    ParamsResolved,
    /// The step sat waiting for its dependencies to finish.
    DependencyWait,
    /// The step body executed.
    Execute,
    /// A failed attempt is being retried under the step's retry policy.
    Retry,
}

impl StepPhase {
    pub fn label(self) -> &'static str {
        match self {
            StepPhase::ParamsResolved => "params-resolved",
            StepPhase::DependencyWait => "dependency-wait",
            StepPhase::Execute => "execute",
            StepPhase::Retry => "step-retry",
        }
    }
}

/// Lifecycle phase of a batch-scheduler job (`jubench-sched`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedPhase {
    /// The job entered the queue; the span covers its queue wait
    /// (`[submit, start]`).
    Submit,
    /// The job ran; the span covers its execution (`[start, end]`).
    Start,
    /// The job was preempted by a node drain or crash — a zero-duration
    /// marker at the preemption time.
    Preempt,
    /// The job finished — a zero-duration marker at the end time.
    Finish,
}

impl SchedPhase {
    pub fn label(self) -> &'static str {
        match self {
            SchedPhase::Submit => "job-wait",
            SchedPhase::Start => "job-run",
            SchedPhase::Preempt => "job-preempt",
            SchedPhase::Finish => "job-finish",
        }
    }
}

/// Checkpoint activity of a batch job (`jubench-sched` with a
/// checkpointing spec, or any component reporting snapshot work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CkptPhase {
    /// A checkpoint was written; the span covers the write cost.
    Write,
    /// Execution resumed from a previously written checkpoint — a
    /// zero-duration marker at the restart time, carrying the work lost
    /// since the last write in `lost_s`.
    Restore,
}

impl CkptPhase {
    pub fn label(self) -> &'static str {
        match self {
            CkptPhase::Write => "ckpt-write",
            CkptPhase::Restore => "ckpt-restore",
        }
    }
}

/// What happened during `[t_start, t_end]`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A compute span: the virtual clock advanced by `seconds` of modeled
    /// computation (roofline time or an explicit advance).
    Compute { seconds: f64 },
    /// A point-to-point send: the sender serialized `bytes` towards
    /// `peer` through its adapter.
    Send {
        peer: u32,
        bytes: u64,
        regime: Regime,
        degraded: bool,
    },
    /// A point-to-point receive: `wait_s` of causality stall (the matching
    /// send was posted later in virtual time) plus `transfer_s` of wire
    /// time.
    Recv {
        peer: u32,
        bytes: u64,
        regime: Regime,
        wait_s: f64,
        transfer_s: f64,
    },
    /// A collective span wrapping its constituent sends/receives.
    /// `sync_wait_s` is virtual time the collective advanced the clock
    /// *directly* (only barriers do; algorithmic collectives account all
    /// their time through the wrapped point-to-point events). `bytes` is
    /// this rank's payload contribution.
    Collective {
        kind: CollectiveKind,
        algorithm: &'static str,
        bytes: u64,
        sync_wait_s: f64,
    },
    /// A JUBE workflow-step lifecycle phase for workpackage `workpackage`.
    Step {
        step: String,
        phase: StepPhase,
        workpackage: u32,
    },
    /// A send whose message was lost on the wire (an injected message
    /// drop): the sender still serialized `bytes` through its adapter, so
    /// the span carries the transfer time.
    Drop {
        peer: u32,
        bytes: u64,
        regime: Regime,
    },
    /// A receive that observed a dropped message: the receiver waited for
    /// the (lost) payload and charged `timeout_s` of virtual time before
    /// giving up.
    Timeout { peer: u32, timeout_s: f64 },
    /// A retry backoff span before attempt `attempt + 1` of a resilient
    /// operation, charged to the virtual clock as communication.
    Retry {
        peer: u32,
        attempt: u32,
        backoff_s: f64,
    },
    /// The emitting rank hit its scheduled crash time `at_s` — a
    /// zero-duration marker; every later operation on the rank fails.
    Crash { at_s: f64 },
    /// A batch-scheduler job lifecycle phase (`jubench-sched`): job
    /// `job` on `nodes` nodes spanning `cells` DragonFly+ cells. The
    /// event's `node` field is the job's per-cell track
    /// ([`SCHED_CELL_TRACK_BASE`] plus the primary cell index), its
    /// `rank` the job id.
    Sched {
        job: u32,
        name: String,
        phase: SchedPhase,
        nodes: u32,
        cells: u32,
    },
    /// Checkpoint activity of batch job `job`: a Write span covering the
    /// write's wall cost (`cost_s`), or a zero-duration Restore marker
    /// whose `lost_s` is the work discarded since the last completed
    /// write. Lives on the same synthetic cell track as the job's
    /// [`EventKind::Sched`] events.
    Ckpt {
        job: u32,
        name: String,
        phase: CkptPhase,
        cost_s: f64,
        lost_s: f64,
    },
}

impl EventKind {
    /// Short label used as the Chrome trace event name and as the
    /// per-op-kind histogram key.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Compute { .. } => "compute",
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::Collective { kind, .. } => kind.label(),
            EventKind::Step { phase, .. } => phase.label(),
            EventKind::Drop { .. } => "drop",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Retry { .. } => "retry",
            EventKind::Crash { .. } => "crash",
            EventKind::Sched { phase, .. } => phase.label(),
            EventKind::Ckpt { phase, .. } => phase.label(),
        }
    }

    /// Bytes moved by this event (payload for p2p and collectives;
    /// dropped sends count the bytes that entered the wire).
    pub fn bytes(&self) -> u64 {
        match self {
            EventKind::Send { bytes, .. }
            | EventKind::Recv { bytes, .. }
            | EventKind::Collective { bytes, .. }
            | EventKind::Drop { bytes, .. } => *bytes,
            _ => 0,
        }
    }
}

/// The synthetic "node" hosting workflow-engine events in the Chrome
/// export (JUBE steps do not run on a simulated rank).
pub const WORKFLOW_NODE: u32 = u32::MAX;

/// Base of the synthetic node-id range hosting batch-scheduler cell
/// tracks in the Chrome export: cell `c` of the scheduled machine maps
/// to node `SCHED_CELL_TRACK_BASE + c`. [`WORKFLOW_NODE`] sits above
/// this base, so `node >= SCHED_CELL_TRACK_BASE` identifies every
/// synthetic track (see [`TraceEvent::is_synthetic`]).
pub const SCHED_CELL_TRACK_BASE: u32 = u32::MAX - 4096;

/// One recorded event, stamped with the emitting rank's virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emitting rank (or workpackage index for workflow events).
    pub rank: u32,
    /// Node hosting the rank ([`WORKFLOW_NODE`] for workflow events).
    pub node: u32,
    /// Per-rank sequence number: `(rank, seq)` totally orders the trace
    /// deterministically regardless of OS thread interleaving.
    pub seq: u64,
    /// Virtual start time, seconds.
    pub t_start: f64,
    /// Virtual end time, seconds.
    pub t_end: f64,
    pub kind: EventKind,
}

impl TraceEvent {
    /// Span duration in virtual seconds.
    pub(crate) fn duration_s(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Whether the event lives on a synthetic track (workflow engine or
    /// batch-scheduler cell) rather than on a simulated rank's node.
    /// Synthetic events are excluded from per-rank clock breakdowns.
    pub fn is_synthetic(&self) -> bool {
        self.node >= SCHED_CELL_TRACK_BASE
    }

    /// Virtual communication seconds this event accounts for in the
    /// per-rank clock. Collective spans contribute only their direct
    /// synchronization wait: their wire time is carried by the wrapped
    /// send/recv events, so summing this quantity over a rank's events
    /// reproduces `ClockStats::comm_s` exactly, with no double counting.
    pub fn comm_seconds(&self) -> f64 {
        match &self.kind {
            EventKind::Send { .. }
            | EventKind::Recv { .. }
            | EventKind::Drop { .. }
            | EventKind::Timeout { .. }
            | EventKind::Retry { .. } => self.duration_s(),
            EventKind::Collective { sync_wait_s, .. } => *sync_wait_s,
            _ => 0.0,
        }
    }

    /// Virtual compute seconds this event accounts for.
    pub fn compute_seconds(&self) -> f64 {
        match &self.kind {
            EventKind::Compute { seconds } => *seconds,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Regime::IntraNode.label(), "intra-node");
        assert_eq!(CollectiveKind::Allreduce.label(), "allreduce");
        assert_eq!(StepPhase::Execute.label(), "execute");
        assert_eq!(EventKind::Compute { seconds: 1.0 }.label(), "compute");
    }

    #[test]
    fn regime_all_is_exhaustive_and_ordered() {
        assert_eq!(Regime::ALL.len(), 5);
        for w in Regime::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn comm_seconds_avoids_double_counting() {
        let send = TraceEvent {
            rank: 0,
            node: 0,
            seq: 0,
            t_start: 1.0,
            t_end: 1.5,
            kind: EventKind::Send {
                peer: 1,
                bytes: 8,
                regime: Regime::IntraNode,
                degraded: false,
            },
        };
        assert_eq!(send.comm_seconds(), 0.5);
        let span = TraceEvent {
            rank: 0,
            node: 0,
            seq: 1,
            t_start: 1.0,
            t_end: 2.0,
            kind: EventKind::Collective {
                kind: CollectiveKind::Allreduce,
                algorithm: "ring",
                bytes: 64,
                sync_wait_s: 0.0,
            },
        };
        assert_eq!(
            span.comm_seconds(),
            0.0,
            "wire time lives in the wrapped sends"
        );
        assert_eq!(span.duration_s(), 1.0);
    }

    #[test]
    fn sched_labels_and_synthetic_tracks() {
        assert_eq!(SchedPhase::Submit.label(), "job-wait");
        assert_eq!(SchedPhase::Start.label(), "job-run");
        let k = EventKind::Sched {
            job: 3,
            name: "amber".into(),
            phase: SchedPhase::Finish,
            nodes: 8,
            cells: 1,
        };
        assert_eq!(k.label(), "job-finish");
        assert_eq!(k.bytes(), 0);
        let e = TraceEvent {
            rank: 3,
            node: SCHED_CELL_TRACK_BASE,
            seq: 0,
            t_start: 0.0,
            t_end: 1.0,
            kind: k,
        };
        assert!(e.is_synthetic());
        assert_eq!(e.comm_seconds(), 0.0);
        assert_eq!(e.compute_seconds(), 0.0);
        let workflow = TraceEvent {
            rank: 0,
            node: WORKFLOW_NODE,
            seq: 0,
            t_start: 0.0,
            t_end: 0.0,
            kind: EventKind::Compute { seconds: 0.0 },
        };
        assert!(workflow.is_synthetic(), "workflow track is synthetic too");
    }

    #[test]
    fn ckpt_labels_and_accounting() {
        assert_eq!(CkptPhase::Write.label(), "ckpt-write");
        assert_eq!(CkptPhase::Restore.label(), "ckpt-restore");
        let e = TraceEvent {
            rank: 3,
            node: SCHED_CELL_TRACK_BASE + 1,
            seq: 0,
            t_start: 2.0,
            t_end: 2.1,
            kind: EventKind::Ckpt {
                job: 3,
                name: "amber".into(),
                phase: CkptPhase::Write,
                cost_s: 0.1,
                lost_s: 0.0,
            },
        };
        assert_eq!(e.kind.label(), "ckpt-write");
        assert_eq!(e.kind.bytes(), 0);
        assert!(e.is_synthetic());
        assert_eq!(e.comm_seconds(), 0.0);
        assert_eq!(e.compute_seconds(), 0.0);
    }

    #[test]
    fn event_bytes() {
        assert_eq!(EventKind::Compute { seconds: 1.0 }.bytes(), 0);
        let k = EventKind::Recv {
            peer: 0,
            bytes: 24,
            regime: Regime::InterCell,
            wait_s: 0.0,
            transfer_s: 0.1,
        };
        assert_eq!(k.bytes(), 24);
    }
}
