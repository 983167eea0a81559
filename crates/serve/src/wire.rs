//! The length-prefixed wire protocol of the campaign service.
//!
//! Every message is one frame: a little-endian `u32` byte length
//! followed by a body whose first byte is the frame tag. Bodies are
//! encoded with the checkpoint serializer
//! ([`jubench_ckpt::SnapshotWriter`]), so the wire format shares the
//! suite's canonical, deterministic encoding — the same spec bytes that
//! travel in a `Submit` frame are persisted verbatim inside shard
//! snapshots.
//!
//! Client → server: [`Frame::Submit`], [`Frame::Drain`],
//! [`Frame::Stats`], [`Frame::Bye`]. Server → client:
//! [`Frame::Accepted`], [`Frame::Rejected`], [`Frame::Row`],
//! [`Frame::JobDone`], [`Frame::Done`], [`Frame::StatsReply`]. Result
//! frames stream incrementally: one `Row` per executed (or
//! cache-answered) run point, one `JobDone` per job the scheduler
//! retires, then a final `Done` with the campaign's result table, Chrome
//! trace, and run report.

use crate::admission::RejectReason;
use crate::spec::CampaignSpec;
use crate::transport::{Transport, TransportError};
use jubench_ckpt::{CkptError, SnapshotReader, SnapshotWriter};
use std::fmt;

/// Frames larger than this are rejected as malformed rather than
/// allocated — a length-prefix protocol's guard against a corrupt or
/// hostile peer declaring a multi-gigabyte frame.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A protocol failure: transport breakage, a malformed frame, or a
/// frame that violates the protocol state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The underlying byte stream failed.
    Transport(TransportError),
    /// The frame body did not decode.
    Malformed(String),
    /// The peer declared a frame longer than [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The stream ended mid-frame: a length prefix promised `expected`
    /// body bytes and the transport closed before delivering them.
    /// Distinct from [`WireError::Transport`] (which covers a hangup
    /// *between* frames, a clean end of session): truncation means a
    /// frame was torn, so the session state is unrecoverable.
    Truncated {
        /// Body bytes the length prefix promised.
        expected: u32,
    },
    /// A frame arrived that the current protocol state does not allow.
    Unexpected(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Transport(e) => write!(f, "transport: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Oversized(len) => write!(f, "oversized frame: {len} bytes"),
            WireError::Truncated { expected } => {
                write!(
                    f,
                    "truncated frame: stream ended inside a {expected}-byte body"
                )
            }
            WireError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<TransportError> for WireError {
    fn from(e: TransportError) -> Self {
        WireError::Transport(e)
    }
}

impl From<CkptError> for WireError {
    fn from(e: CkptError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

/// One protocol message. See the module docs for the exchange pattern.
// `Submit` carries a full `CampaignSpec` (machine model included), so
// it dwarfs the row/ack variants. Frames are transient — built, sent,
// decoded, consumed — never stored in bulk, so boxing the spec would
// add indirection at every protocol site for no working-set gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: submit a campaign.
    Submit {
        /// The campaign to run.
        spec: CampaignSpec,
    },
    /// Client → server: run all queued campaigns to completion,
    /// streaming result frames as they are produced. The drain is
    /// complete when every accepted campaign has emitted its `Done`
    /// frame.
    Drain,
    /// Client → server: request the service metrics (Prometheus text
    /// exposition), filtered to names starting with `prefix`.
    Stats {
        /// Metric-name prefix filter (empty = everything).
        prefix: String,
    },
    /// Client → server: end the session.
    Bye,
    /// Server → client: the campaign was accepted and routed.
    Accepted {
        /// Service-assigned campaign id.
        campaign: u64,
        /// Shard the campaign was routed to.
        shard: u32,
    },
    /// Server → client: the campaign was refused — at validation or at
    /// the admission gate.
    Rejected {
        /// Tenant the rejection is charged to.
        tenant: String,
        /// Typed refusal (quota, token, size, or validation failure).
        reason: RejectReason,
    },
    /// Server → client: one result-table row, streamed as the run point
    /// finishes (or is answered from the cache — the row is identical
    /// either way).
    Row {
        /// Campaign the row belongs to.
        campaign: u64,
        /// Point index within the campaign.
        index: u32,
        /// Rendered table cells.
        cells: Vec<String>,
    },
    /// Server → client: the scheduler retired one campaign job.
    JobDone {
        /// Campaign the job belongs to.
        campaign: u64,
        /// Job id (= point index).
        job: u32,
        /// Virtual completion time.
        end_s: f64,
    },
    /// Server → client: the campaign finished.
    Done {
        /// Campaign id.
        campaign: u64,
        /// Rendered result table.
        table: String,
        /// Chrome trace-event JSON of the campaign schedule.
        chrome_trace: String,
        /// Rendered run report (includes result-cache activity).
        report: String,
    },
    /// Server → client: the campaign was admitted but will not finish —
    /// it overran its virtual-time deadline, or its shard failed past
    /// the restart budget. Terminal for the campaign, like
    /// [`Frame::Done`].
    Cancelled {
        /// Campaign id.
        campaign: u64,
        /// Why the service gave up on it.
        reason: CancelReason,
    },
    /// Server → client: reply to [`Frame::Stats`].
    StatsReply {
        /// Prometheus text exposition of the filtered registry.
        prometheus: String,
    },
}

/// Why the service cancelled an admitted campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CancelReason {
    /// The campaign's scheduler horizon reached its virtual-time
    /// deadline before the schedule completed. The campaign is cut at the
    /// first slice end at or past the deadline, which is the reported
    /// horizon.
    DeadlineExceeded {
        /// The deadline the spec declared.
        deadline_s: f64,
        /// Where the scheduler horizon stood when the campaign was cut.
        horizon_s: f64,
    },
    /// The owning shard failed past its restart budget; the campaign's
    /// remaining work was abandoned (frames already streamed stand).
    ShardFailed {
        /// Restarts attempted before the supervisor gave up.
        restarts: u32,
    },
}

const CANCEL_DEADLINE: u8 = 0;
const CANCEL_SHARD_FAILED: u8 = 1;

impl CancelReason {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            CancelReason::DeadlineExceeded {
                deadline_s,
                horizon_s,
            } => {
                w.put_u8(CANCEL_DEADLINE);
                w.put_f64(*deadline_s);
                w.put_f64(*horizon_s);
            }
            CancelReason::ShardFailed { restarts } => {
                w.put_u8(CANCEL_SHARD_FAILED);
                w.put_u32(*restarts);
            }
        }
    }

    fn get(r: &mut SnapshotReader) -> Result<Self, CkptError> {
        Ok(match r.get_u8("cancel reason tag")? {
            CANCEL_DEADLINE => CancelReason::DeadlineExceeded {
                deadline_s: r.get_f64("cancel deadline")?,
                horizon_s: r.get_f64("cancel horizon")?,
            },
            CANCEL_SHARD_FAILED => CancelReason::ShardFailed {
                restarts: r.get_u32("cancel restarts")?,
            },
            _ => {
                return Err(CkptError::Malformed {
                    what: "cancel reason tag".to_string(),
                })
            }
        })
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::DeadlineExceeded {
                deadline_s,
                horizon_s,
            } => write!(
                f,
                "deadline exceeded: horizon {horizon_s:.3}s past the {deadline_s:.3}s deadline"
            ),
            CancelReason::ShardFailed { restarts } => {
                write!(f, "shard failed after {restarts} restarts")
            }
        }
    }
}

const TAG_SUBMIT: u8 = 1;
const TAG_DRAIN: u8 = 2;
const TAG_STATS: u8 = 3;
const TAG_BYE: u8 = 4;
const TAG_ACCEPTED: u8 = 16;
const TAG_REJECTED: u8 = 17;
const TAG_ROW: u8 = 18;
const TAG_JOB_DONE: u8 = 19;
const TAG_DONE: u8 = 20;
const TAG_STATS_REPLY: u8 = 21;
const TAG_CANCELLED: u8 = 22;

impl Frame {
    /// Encode the frame body (tag byte + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        match self {
            Frame::Submit { spec } => {
                w.put_u8(TAG_SUBMIT);
                spec.put(&mut w);
            }
            Frame::Drain => w.put_u8(TAG_DRAIN),
            Frame::Stats { prefix } => {
                w.put_u8(TAG_STATS);
                w.put_str(prefix);
            }
            Frame::Bye => w.put_u8(TAG_BYE),
            Frame::Accepted { campaign, shard } => {
                w.put_u8(TAG_ACCEPTED);
                w.put_u64(*campaign);
                w.put_u32(*shard);
            }
            Frame::Rejected { tenant, reason } => {
                w.put_u8(TAG_REJECTED);
                w.put_str(tenant);
                reason.put(&mut w);
            }
            Frame::Row {
                campaign,
                index,
                cells,
            } => {
                w.put_u8(TAG_ROW);
                w.put_u64(*campaign);
                w.put_u32(*index);
                w.put_seq(cells, |w, cell| w.put_str(cell));
            }
            Frame::JobDone {
                campaign,
                job,
                end_s,
            } => {
                w.put_u8(TAG_JOB_DONE);
                w.put_u64(*campaign);
                w.put_u32(*job);
                w.put_f64(*end_s);
            }
            Frame::Done {
                campaign,
                table,
                chrome_trace,
                report,
            } => {
                w.put_u8(TAG_DONE);
                w.put_u64(*campaign);
                w.put_str(table);
                w.put_str(chrome_trace);
                w.put_str(report);
            }
            Frame::Cancelled { campaign, reason } => {
                w.put_u8(TAG_CANCELLED);
                w.put_u64(*campaign);
                reason.put(&mut w);
            }
            Frame::StatsReply { prometheus } => {
                w.put_u8(TAG_STATS_REPLY);
                w.put_str(prometheus);
            }
        }
        w.finish()
    }

    /// Decode a frame body produced by [`Self::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = SnapshotReader::new(bytes);
        let tag = r.get_u8("frame tag")?;
        let frame = match tag {
            TAG_SUBMIT => Frame::Submit {
                spec: CampaignSpec::get(&mut r, "submit spec")?,
            },
            TAG_DRAIN => Frame::Drain,
            TAG_STATS => Frame::Stats {
                prefix: r.get_str("stats prefix")?,
            },
            TAG_BYE => Frame::Bye,
            TAG_ACCEPTED => Frame::Accepted {
                campaign: r.get_u64("accepted campaign")?,
                shard: r.get_u32("accepted shard")?,
            },
            TAG_REJECTED => Frame::Rejected {
                tenant: r.get_str("rejected tenant")?,
                reason: RejectReason::get(&mut r)?,
            },
            TAG_ROW => Frame::Row {
                campaign: r.get_u64("row campaign")?,
                index: r.get_u32("row index")?,
                cells: r.get_seq("row cell count", |r| r.get_str("row cell"))?,
            },
            TAG_JOB_DONE => Frame::JobDone {
                campaign: r.get_u64("job-done campaign")?,
                job: r.get_u32("job-done job")?,
                end_s: r.get_f64("job-done end")?,
            },
            TAG_DONE => Frame::Done {
                campaign: r.get_u64("done campaign")?,
                table: r.get_str("done table")?,
                chrome_trace: r.get_str("done chrome trace")?,
                report: r.get_str("done report")?,
            },
            TAG_CANCELLED => Frame::Cancelled {
                campaign: r.get_u64("cancelled campaign")?,
                reason: CancelReason::get(&mut r)?,
            },
            TAG_STATS_REPLY => Frame::StatsReply {
                prometheus: r.get_str("stats exposition")?,
            },
            other => return Err(WireError::Malformed(format!("unknown frame tag {other}"))),
        };
        r.expect_end()?;
        Ok(frame)
    }
}

/// Write one length-prefixed frame to a transport.
pub fn write_frame(t: &mut dyn Transport, frame: &Frame) -> Result<(), WireError> {
    let body = frame.encode();
    let len = u32::try_from(body.len()).map_err(|_| WireError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    t.write_all(&len.to_le_bytes())?;
    t.write_all(&body)?;
    jubench_metrics::counter_add("serve/wire/frames_sent", 1);
    jubench_metrics::counter_add("serve/wire/bytes_sent", 4 + len as u64);
    Ok(())
}

/// Read one length-prefixed frame from a transport, blocking until it
/// arrives in full.
pub fn read_frame(t: &mut dyn Transport) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    t.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    // A hangup *inside* a frame body is not a clean end of session: the
    // length prefix promised bytes that never came. Surface it as
    // `Truncated` so callers can tell a torn frame from a peer that
    // finished talking.
    t.read_exact(&mut body)
        .map_err(|_| WireError::Truncated { expected: len })?;
    jubench_metrics::counter_add("serve/wire/frames_received", 1);
    Frame::decode(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunPoint;
    use crate::transport::DuplexPipe;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Submit {
                spec: CampaignSpec::new("alice", "smoke", 16, 3)
                    .with_point(RunPoint::test("HPL", 4, 1)),
            },
            Frame::Drain,
            Frame::Stats {
                prefix: "serve/".to_string(),
            },
            Frame::Bye,
            Frame::Accepted {
                campaign: 7,
                shard: 2,
            },
            Frame::Rejected {
                tenant: "alice".to_string(),
                reason: RejectReason::Invalid {
                    what: "unknown benchmark `x`".to_string(),
                },
            },
            Frame::Rejected {
                tenant: "bob".to_string(),
                reason: RejectReason::TokensExhausted {
                    requested: 64,
                    available: 3,
                },
            },
            Frame::Cancelled {
                campaign: 7,
                reason: CancelReason::DeadlineExceeded {
                    deadline_s: 100.0,
                    horizon_s: 150.0,
                },
            },
            Frame::Cancelled {
                campaign: 9,
                reason: CancelReason::ShardFailed { restarts: 3 },
            },
            Frame::Row {
                campaign: 7,
                index: 1,
                cells: vec!["HPL".to_string(), "4".to_string(), "1.234567".to_string()],
            },
            Frame::JobDone {
                campaign: 7,
                job: 0,
                end_s: 12.5,
            },
            Frame::Done {
                campaign: 7,
                table: "| a |\n".to_string(),
                chrome_trace: "[]".to_string(),
                report: "makespan: …".to_string(),
            },
            Frame::StatsReply {
                prometheus: "# TYPE x counter\n".to_string(),
            },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in all_frames() {
            let body = frame.encode();
            let back = Frame::decode(&body).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn framing_over_a_byte_stream_across_threads() {
        let (mut client, mut server) = DuplexPipe::pair();
        let frames = all_frames();
        let expect = frames.clone();
        let writer = std::thread::spawn(move || {
            for frame in &frames {
                write_frame(&mut client, frame).unwrap();
            }
        });
        for want in &expect {
            let got = read_frame(&mut server).unwrap();
            assert_eq!(&got, want);
        }
        writer.join().unwrap();
        let mut probe = [0u8; 1];
        assert!(server.read_exact(&mut probe).is_err(), "stream drained");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let (mut a, mut b) = DuplexPipe::pair();
        a.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match read_frame(&mut b) {
            Err(WireError::Oversized(len)) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_malformed() {
        assert!(matches!(
            Frame::decode(&[0xEE]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn mid_frame_eof_is_truncated_not_transport() {
        let (mut a, mut b) = DuplexPipe::pair();
        // Promise a 100-byte body, deliver 3, hang up.
        a.write_all(&100u32.to_le_bytes()).unwrap();
        a.write_all(&[1, 2, 3]).unwrap();
        drop(a);
        match read_frame(&mut b) {
            Err(WireError::Truncated { expected: 100 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A hangup *between* frames stays a transport error.
        let (a2, mut b2) = DuplexPipe::pair();
        drop(a2);
        assert!(matches!(
            read_frame(&mut b2),
            Err(WireError::Transport(TransportError::Closed))
        ));
    }
}
