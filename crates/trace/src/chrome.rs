//! Chrome trace-event JSON export.
//!
//! Produces the `chrome://tracing` / Perfetto "JSON Array Format":
//! nodes become processes, ranks become threads, and every recorded
//! span becomes an `"X"` (complete) event with microsecond timestamps.
//! The output is byte-stable for a deterministic workload: events are
//! ordered by `(rank, seq)` and all numbers are formatted through the
//! same fixed-precision paths.

use jubench_metrics::json::escape;

use crate::event::{EventKind, TraceEvent, SCHED_CELL_TRACK_BASE, WORKFLOW_NODE};

/// Serialize an ordered event stream (as produced by
/// [`Recorder::take_events`](crate::Recorder::take_events)) to Chrome
/// trace-event JSON.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("[\n");
    let mut first = true;
    // Metadata: name each process (node) and thread (rank) once, in
    // deterministic order.
    let mut seen: Vec<(u32, u32)> = events.iter().map(|e| (e.node, e.rank)).collect();
    seen.sort_unstable();
    seen.dedup();
    let mut last_node = None;
    for &(node, rank) in &seen {
        if last_node != Some(node) {
            last_node = Some(node);
            push_event(&mut out, &mut first, &format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                node_name(node)
            ));
        }
        let tname = if node == WORKFLOW_NODE {
            format!("workpackage {rank}")
        } else if node >= SCHED_CELL_TRACK_BASE {
            format!("job {rank}")
        } else {
            format!("rank {rank}")
        };
        push_event(&mut out, &mut first, &format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{rank},\"args\":{{\"name\":\"{tname}\"}}}}"
        ));
    }
    for e in events {
        push_event(&mut out, &mut first, &complete_event(e));
    }
    out.push_str("\n]\n");
    out
}

fn node_name(node: u32) -> String {
    if node == WORKFLOW_NODE {
        "workflow".to_string()
    } else if node >= SCHED_CELL_TRACK_BASE {
        format!("cell {}", node - SCHED_CELL_TRACK_BASE)
    } else {
        format!("node {node}")
    }
}

fn push_event(out: &mut String, first: &mut bool, json: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  ");
    out.push_str(json);
}

/// Virtual seconds → integer microseconds (the unit of `ts`/`dur`).
fn micros(t: f64) -> i64 {
    (t * 1e6).round() as i64
}

fn complete_event(e: &TraceEvent) -> String {
    let ts = micros(e.t_start);
    let dur = (micros(e.t_end) - ts).max(0);
    format!(
        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{ts},\"dur\":{dur},\"args\":{}}}",
        e.kind.label(),
        category(&e.kind),
        e.node,
        e.rank,
        args(e)
    )
}

fn category(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Compute { .. } => "compute",
        EventKind::Send { .. } | EventKind::Recv { .. } => "p2p",
        EventKind::Collective { .. } => "collective",
        EventKind::Step { .. } => "workflow",
        EventKind::Drop { .. }
        | EventKind::Timeout { .. }
        | EventKind::Retry { .. }
        | EventKind::Crash { .. } => "fault",
        EventKind::Sched { .. } => "sched",
        EventKind::Ckpt { .. } => "ckpt",
    }
}

fn args(e: &TraceEvent) -> String {
    match &e.kind {
        EventKind::Compute { seconds } => {
            format!("{{\"seconds\":{}}}", fmt_f64(*seconds))
        }
        EventKind::Send { peer, bytes, regime, degraded } => format!(
            "{{\"peer\":{peer},\"bytes\":{bytes},\"regime\":\"{}\",\"degraded\":{degraded}}}",
            regime.label()
        ),
        EventKind::Recv { peer, bytes, regime, wait_s, transfer_s } => format!(
            "{{\"peer\":{peer},\"bytes\":{bytes},\"regime\":\"{}\",\"wait_s\":{},\"transfer_s\":{}}}",
            regime.label(),
            fmt_f64(*wait_s),
            fmt_f64(*transfer_s)
        ),
        EventKind::Collective { algorithm, bytes, sync_wait_s, .. } => format!(
            "{{\"algorithm\":\"{algorithm}\",\"bytes\":{bytes},\"sync_wait_s\":{}}}",
            fmt_f64(*sync_wait_s)
        ),
        EventKind::Step { step, phase, workpackage } => format!(
            "{{\"step\":\"{}\",\"phase\":\"{}\",\"workpackage\":{workpackage}}}",
            escape(step),
            phase.label()
        ),
        EventKind::Drop { peer, bytes, regime } => format!(
            "{{\"peer\":{peer},\"bytes\":{bytes},\"regime\":\"{}\"}}",
            regime.label()
        ),
        EventKind::Timeout { peer, timeout_s } => format!(
            "{{\"peer\":{peer},\"timeout_s\":{}}}",
            fmt_f64(*timeout_s)
        ),
        EventKind::Retry { peer, attempt, backoff_s } => format!(
            "{{\"peer\":{peer},\"attempt\":{attempt},\"backoff_s\":{}}}",
            fmt_f64(*backoff_s)
        ),
        EventKind::Crash { at_s } => format!("{{\"at_s\":{}}}", fmt_f64(*at_s)),
        EventKind::Sched { job, name, phase, nodes, cells } => format!(
            "{{\"job\":{job},\"name\":\"{}\",\"phase\":\"{}\",\"nodes\":{nodes},\"cells\":{cells}}}",
            escape(name),
            phase.label()
        ),
        EventKind::Ckpt { job, name, phase, cost_s, lost_s } => format!(
            "{{\"job\":{job},\"name\":\"{}\",\"phase\":\"{}\",\"cost_s\":{},\"lost_s\":{}}}",
            escape(name),
            phase.label(),
            fmt_f64(*cost_s),
            fmt_f64(*lost_s)
        ),
    }
}

/// Deterministic float formatting: fixed 9 decimal places (nanosecond
/// resolution on a seconds quantity), trailing zeros kept so the output
/// is byte-stable across values that happen to round short.
fn fmt_f64(v: f64) -> String {
    format!("{v:.9}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Regime, StepPhase};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                rank: 0,
                node: 0,
                seq: 0,
                t_start: 0.0,
                t_end: 1.5,
                kind: EventKind::Compute { seconds: 1.5 },
            },
            TraceEvent {
                rank: 0,
                node: 0,
                seq: 1,
                t_start: 1.5,
                t_end: 1.75,
                kind: EventKind::Send {
                    peer: 1,
                    bytes: 4096,
                    regime: Regime::IntraCell,
                    degraded: true,
                },
            },
            TraceEvent {
                rank: 1,
                node: 1,
                seq: 0,
                t_start: 0.0,
                t_end: 2.0,
                kind: EventKind::Recv {
                    peer: 0,
                    bytes: 4096,
                    regime: Regime::IntraCell,
                    wait_s: 1.75,
                    transfer_s: 0.25,
                },
            },
            TraceEvent {
                rank: 2,
                node: WORKFLOW_NODE,
                seq: 0,
                t_start: 0.0,
                t_end: 1.0,
                kind: EventKind::Step {
                    step: "run \"x\"".into(),
                    phase: StepPhase::Execute,
                    workpackage: 2,
                },
            },
        ]
    }

    #[test]
    fn export_is_valid_shape() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        // Metadata for 2 real nodes + workflow process, one thread each.
        assert_eq!(json.matches("\"process_name\"").count(), 3);
        assert_eq!(json.matches("\"thread_name\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"regime\":\"intra-cell\""));
        assert!(json.contains("\"degraded\":true"));
        assert!(json.contains("\"name\":\"workflow\""));
        assert!(json.contains("\"step\":\"run \\\"x\\\"\""));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = chrome_trace_json(&sample());
        // Send: ts = 1.5 s = 1_500_000 µs, dur = 0.25 s = 250_000 µs.
        assert!(json.contains("\"ts\":1500000,\"dur\":250000"));
    }

    #[test]
    fn export_is_byte_stable() {
        let a = chrome_trace_json(&sample());
        let b = chrome_trace_json(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn sched_events_get_cell_tracks() {
        use crate::event::SchedPhase;
        let events = vec![TraceEvent {
            rank: 4,
            node: SCHED_CELL_TRACK_BASE + 2,
            seq: 0,
            t_start: 1.0,
            t_end: 3.0,
            kind: EventKind::Sched {
                job: 4,
                name: "icon".into(),
                phase: SchedPhase::Start,
                nodes: 96,
                cells: 2,
            },
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"cell 2\""));
        assert!(json.contains("\"name\":\"job 4\""));
        assert!(json.contains("\"cat\":\"sched\""));
        assert!(json.contains("\"name\":\"job-run\""));
        assert!(json.contains(
            "\"job\":4,\"name\":\"icon\",\"phase\":\"job-run\",\"nodes\":96,\"cells\":2"
        ));
    }

    #[test]
    fn ckpt_events_export_with_their_own_category() {
        use crate::event::CkptPhase;
        let events = vec![TraceEvent {
            rank: 4,
            node: SCHED_CELL_TRACK_BASE + 2,
            seq: 1,
            t_start: 2.0,
            t_end: 2.25,
            kind: EventKind::Ckpt {
                job: 4,
                name: "icon".into(),
                phase: CkptPhase::Write,
                cost_s: 0.25,
                lost_s: 0.0,
            },
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"cat\":\"ckpt\""));
        assert!(json.contains("\"name\":\"ckpt-write\""));
        assert!(json.contains("\"job\":4,\"name\":\"icon\",\"phase\":\"ckpt-write\""));
        assert!(json.contains("\"cost_s\":0.250000000"));
        assert!(json.contains("\"ts\":2000000,\"dur\":250000"));
    }

    #[test]
    fn balanced_braces_and_commas() {
        let json = chrome_trace_json(&sample());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "every object closes"
        );
        assert!(!json.contains(",\n]"), "no trailing comma before the close");
    }
}
