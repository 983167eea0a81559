//! The campaign-service chaos drill: deterministic fault injection
//! against the guarded service.
//!
//! Headline invariant: all four drain entry points return the same
//! full frame stream, and under any seeded chaos plan — shard crashes
//! at unit boundaries, stragglers, torn or corrupted wire frames — the
//! service yields that stream byte for byte (run reports aside), or a
//! typed, quota-accounted rejection/cancellation. Never a panic, never
//! a hang.

use jubench::core::{BenchmarkMeta, RealLayout, RealTrack};
use jubench::prelude::*;
use jubench::serve::wire::CancelReason;
use jubench::serve::{
    serve_session, Client, DuplexPipe, Emit, Frame, RejectReason, Transport, WireError,
};
use std::sync::atomic::{AtomicU32, Ordering};

fn campaign(name: &str, nodes: u32, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("chaos-tenant", name, nodes, seed)
        .with_point(RunPoint::test("STREAM", 2, seed))
        .with_point(RunPoint::test("OSU", 2, seed + 1))
        .with_point(RunPoint::test("LinkTest", 4, seed + 2));
    spec.slice_s = 5.0;
    spec
}

/// Strip the run report from `Done` frames: its out-of-band guard
/// tallies legitimately differ between chaotic and clean runs.
fn stripped(emits: &[Emit]) -> Vec<Frame> {
    emits
        .iter()
        .map(|e| match &e.frame {
            Frame::Done {
                campaign,
                table,
                chrome_trace,
                ..
            } => Frame::Done {
                campaign: *campaign,
                table: table.clone(),
                chrome_trace: chrome_trace.clone(),
                report: String::new(),
            },
            other => other.clone(),
        })
        .collect()
}

fn submit_population(server: &mut Server, registry: &Registry) -> Vec<(u64, u32)> {
    [
        ("a", 8u32, 3u64),
        ("b", 16, 11),
        ("c", 24, 19),
        ("d", 8, 27),
    ]
    .iter()
    .map(|&(name, nodes, seed)| {
        server
            .submit(1, campaign(name, nodes, seed), registry)
            .unwrap()
    })
    .collect()
}

/// A four-shard server holding the population.
fn populated(registry: &Registry) -> Server {
    let mut server = Server::new(4, 64);
    submit_population(&mut server, registry);
    server
}

/// Fault-free, the four entry points are one drain: equal full
/// streams, reports included.
#[test]
fn every_drain_entry_point_returns_the_same_stream() {
    let registry = full_registry();
    let cfg = SupervisorConfig::default();
    let reference = populated(&registry).drain(&registry).unwrap();
    let parallel = populated(&registry).drain_parallel(&registry).unwrap();
    assert_eq!(parallel, reference, "drain_parallel diverged");
    let supervised = populated(&registry)
        .drain_supervised(&registry, &cfg, None)
        .unwrap();
    assert_eq!(supervised.emits, reference, "drain_supervised diverged");
    let supervised_parallel = populated(&registry)
        .drain_supervised_parallel(&registry, &cfg, None)
        .unwrap();
    assert_eq!(
        supervised_parallel.emits, reference,
        "drain_supervised_parallel diverged"
    );
}

/// The headline invariant, swept over seeds: scattered crash plans plus
/// stragglers, absorbed by the restart budget, leave both supervised
/// drains byte-identical to the one fault-free reference — and every
/// shard's cache equal to the clean server's, so a rollback is whole.
#[test]
fn seeded_chaos_plans_preserve_bytes_under_supervision() {
    let registry = full_registry();
    let mut clean = populated(&registry);
    let reference = stripped(&clean.drain(&registry).unwrap());
    for seed in [0x0DDBA11u64, 0x5CA1AB1E, 0xBEEFCAFE] {
        let plan = ChaosPlan::scattered(seed, 4, 5, 8)
            .with_straggler((seed % 4) as u32)
            .with_straggler(((seed >> 8) % 4) as u32);
        let cfg = SupervisorConfig {
            max_restarts: plan.crash_count() as u32 + 1,
        };
        let mut serial = populated(&registry);
        let serial_outcome = serial
            .drain_supervised(&registry, &cfg, Some(&plan))
            .unwrap();
        let mut parallel = populated(&registry);
        let parallel_outcome = parallel
            .drain_supervised_parallel(&registry, &cfg, Some(&plan))
            .unwrap();
        for (mode, server, outcome) in [
            ("serial", serial, serial_outcome),
            ("parallel", parallel, parallel_outcome),
        ] {
            assert!(!outcome.degraded(), "seed {seed:#x}: {mode} degraded");
            assert!(outcome.restarts > 0, "seed {seed:#x}: no crash fired");
            assert_eq!(
                stripped(&outcome.emits),
                reference,
                "seed {seed:#x}: {mode} supervised chaos diverged"
            );
            for s in 0..4 {
                assert_eq!(
                    server.shard(s).cache(),
                    clean.shard(s).cache(),
                    "seed {seed:#x}: {mode} shard {s} cache kept a failed attempt's work"
                );
            }
        }
    }
}

/// A supervised drain with no chaos plan and no failures is exactly the
/// plain drain — same frames, zero restarts, zero backoff.
#[test]
fn supervision_without_faults_is_free() {
    let registry = full_registry();
    let reference = populated(&registry).drain(&registry).unwrap();
    let outcome = populated(&registry)
        .drain_supervised(&registry, &SupervisorConfig::default(), None)
        .unwrap();
    assert_eq!(
        outcome.emits, reference,
        "fault-free supervision is identity"
    );
    assert_eq!(outcome.restarts, 0);
    assert_eq!(outcome.backoff_s, 0.0);
    assert!(outcome.cancelled.is_empty() && !outcome.degraded());
}

/// Stragglers alone (no crashes) perturb thread timing but never bytes,
/// and charge nothing to the guard ledger.
#[test]
fn stragglers_change_nothing() {
    let registry = full_registry();
    let reference = populated(&registry).drain_parallel(&registry).unwrap();
    let plan = ChaosPlan::new(1)
        .with_straggler(0)
        .with_straggler(1)
        .with_straggler(2)
        .with_straggler(3);
    let outcome = populated(&registry)
        .drain_supervised_parallel(&registry, &SupervisorConfig::default(), Some(&plan))
        .unwrap();
    assert_eq!(outcome.emits, reference);
    assert_eq!(outcome.restarts, 0, "stragglers are not failures");
}

/// A crash at unit 0 of every active shard forces exactly one restart
/// per active shard; each rolls back to its state at attempt start, the
/// restarts land in the `serve/restarts` counter and the per-shard
/// guard ledger, and finished campaigns surface them in their report.
#[test]
fn restarts_restore_from_snapshot_and_are_counted() {
    let registry = full_registry();
    let mut server = populated(&registry);
    let active: Vec<u32> = (0..4).filter(|&s| !server.shard(s).idle()).collect();
    assert!(!active.is_empty());
    let mut plan = ChaosPlan::new(7);
    for &s in &active {
        plan = plan.with_shard_crash(s, 0);
    }
    let before = jubench::metrics::snapshot()
        .counters
        .get("serve/restarts")
        .copied()
        .unwrap_or(0);
    let outcome = server
        .drain_supervised_parallel(&registry, &SupervisorConfig::default(), Some(&plan))
        .unwrap();
    assert_eq!(
        outcome.restarts,
        active.len() as u64,
        "one restart per crashed shard"
    );
    assert!(outcome.backoff_s > 0.0, "restarts charge virtual backoff");
    assert!(!outcome.degraded());
    let after = jubench::metrics::snapshot()
        .counters
        .get("serve/restarts")
        .copied()
        .unwrap_or(0);
    assert!(
        after - before >= active.len() as u64,
        "serve/restarts moved {before} → {after} for {} crashes",
        active.len()
    );
    for &s in &active {
        assert_eq!(server.shard(s).guard().restarts, 1, "shard {s} ledger");
    }
    let reported = outcome
        .emits
        .iter()
        .filter(
            |e| matches!(&e.frame, Frame::Done { report, .. } if report.contains("guard activity")),
        )
        .count();
    assert!(
        reported > 0,
        "no finished campaign surfaced the guard tallies in its report"
    );
}

/// A campaign whose virtual deadline falls inside its schedule is cut
/// at the first unit boundary past the line: a typed `Cancelled` frame,
/// the `serve/deadline_cancels` counter, and a quota refund — the
/// tenant can immediately submit again.
#[test]
fn deadline_cancellation_is_typed_counted_and_refunded() {
    let registry = full_registry();
    let mut server = Server::new(1, 64).with_admission(AdmissionConfig {
        max_active_per_tenant: 1,
        token_capacity: 8,
        max_points_per_campaign: 8,
    });
    let mut doomed = campaign("doomed", 8, 5).with_deadline(1.0);
    doomed.slice_s = 0.75;
    let (id, _) = server.submit(1, doomed, &registry).unwrap();
    // The slot is held while the campaign is live.
    let refused = server
        .submit(1, campaign("queued", 8, 6), &registry)
        .unwrap_err();
    assert!(matches!(
        refused.reason,
        RejectReason::CampaignQuota {
            active: 1,
            limit: 1
        }
    ));
    let before = jubench::metrics::snapshot()
        .counters
        .get("serve/deadline_cancels")
        .copied()
        .unwrap_or(0);
    let emits = server.drain(&registry).unwrap();
    let cancels: Vec<&Frame> = emits
        .iter()
        .map(|e| &e.frame)
        .filter(|f| matches!(f, Frame::Cancelled { .. }))
        .collect();
    match cancels.as_slice() {
        [Frame::Cancelled { campaign, reason }] => {
            assert_eq!(*campaign, id);
            match reason {
                CancelReason::DeadlineExceeded {
                    deadline_s,
                    horizon_s,
                } => {
                    assert_eq!(*deadline_s, 1.0);
                    assert!(*horizon_s >= 1.0, "cut at the boundary past the line");
                }
                other => panic!("wrong cancel reason: {other}"),
            }
        }
        other => panic!("expected exactly one Cancelled frame, got {other:?}"),
    }
    assert!(
        !emits.iter().any(|e| matches!(
            &e.frame,
            Frame::Done { campaign, .. } if *campaign == id
        )),
        "a cancelled campaign must not also finish"
    );
    let after = jubench::metrics::snapshot()
        .counters
        .get("serve/deadline_cancels")
        .copied()
        .unwrap_or(0);
    assert!(after > before, "serve/deadline_cancels never moved");
    // Cancellation retired the campaign: the quota slot is free again.
    let usage = server.admission().usage("chaos-tenant");
    assert_eq!((usage.active, usage.tokens), (0, 0));
    server
        .submit(1, campaign("retry", 8, 7), &registry)
        .unwrap();
}

/// A shard that out-crashes its restart budget is given up on: its
/// remaining campaigns end in typed `ShardFailed` cancellations, the
/// drain reports itself degraded, and every other shard's campaigns
/// still match the fault-free bytes.
#[test]
fn restart_budget_exhaustion_degrades_to_typed_partials() {
    let registry = full_registry();
    let reference = stripped(&populated(&registry).drain(&registry).unwrap());
    let mut server = Server::new(4, 64);
    let placed = submit_population(&mut server, &registry);
    let victim = placed[0].1;
    // Crash the victim's worker at the head of every attempt: with
    // budget 1, attempt 1 fires (victim, 0), the retry fires another
    // head crash, and the supervisor gives up.
    let plan = ChaosPlan::new(3)
        .with_shard_crash(victim, 0)
        .with_shard_crash(victim, 0)
        .with_shard_crash(victim, 0);
    let cfg = SupervisorConfig { max_restarts: 1 };
    let outcome = server
        .drain_supervised_parallel(&registry, &cfg, Some(&plan))
        .unwrap();
    assert!(
        outcome.degraded(),
        "budget 1 cannot absorb repeated crashes"
    );
    assert_eq!(outcome.failed_shards.len(), 1);
    assert_eq!(outcome.failed_shards[0].0, victim);
    let doomed: Vec<u64> = placed
        .iter()
        .filter(|(_, s)| *s == victim)
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(
        outcome.cancelled, doomed,
        "every campaign on the dead shard is cancelled, no other"
    );
    for e in &outcome.emits {
        if let Frame::Cancelled { campaign, reason } = &e.frame {
            assert!(doomed.contains(campaign));
            assert!(
                matches!(reason, CancelReason::ShardFailed { restarts: 1 }),
                "wrong reason: {reason}"
            );
        }
    }
    // Survivors are byte-identical to their fault-free runs.
    let survivors: Vec<Frame> = reference
        .iter()
        .filter(|f| match f {
            Frame::Row { campaign, .. }
            | Frame::JobDone { campaign, .. }
            | Frame::Done { campaign, .. }
            | Frame::Cancelled { campaign, .. } => !doomed.contains(campaign),
            _ => true,
        })
        .cloned()
        .collect();
    let trial_survivors: Vec<Frame> = stripped(&outcome.emits)
        .into_iter()
        .filter(|f| !matches!(f, Frame::Cancelled { .. }))
        .collect();
    assert_eq!(trial_survivors, survivors);
    assert!(server.shard(victim).guard().giveups >= 1, "giveup ledger");
    // The give-up retired the dead shard's campaigns: quota fully
    // refunded, the server is reusable.
    let usage = server.admission().usage("chaos-tenant");
    assert_eq!((usage.active, usage.tokens), (0, 0));
    assert!(server.idle());
}

/// Payload of the panics [`PanickyStream`] raises.
const GENUINE: &str = "genuine: STREAM blew up";

/// STREAM, except that its first `panics` runs panic — a bug in a
/// benchmark, as opposed to a planned chaos crash.
struct PanickyStream {
    real: Registry,
    panics: AtomicU32,
}

impl PanickyStream {
    fn real(&self) -> &dyn Benchmark {
        self.real.get(BenchmarkId::Stream).unwrap()
    }
}

impl Benchmark for PanickyStream {
    fn meta(&self) -> BenchmarkMeta {
        self.real().meta()
    }

    /// The bug sits in the first stage, where `run`'s first line was:
    /// the populations here ask STREAM for two nodes, which the real
    /// `layout` refuses, so no later stage is ever reached.
    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        let armed = self
            .panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if armed.is_ok() {
            panic!("{GENUINE}");
        }
        self.real().layout(cfg)
    }

    fn execute(&self, layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        self.real().execute(layout)
    }

    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        self.real().cost(cfg, track)
    }
}

/// The full registry with STREAM replaced by a [`PanickyStream`]. Also
/// silences the default hook for that payload: these panics are caught
/// by the drain driver, but the hook would still print one backtrace
/// per panic — from shard threads the harness does not capture.
fn panicky_registry(panics: u32) -> Registry {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<String>().map(String::as_str) != Some(GENUINE) {
                default(info);
            }
        }));
    });
    let mut registry = full_registry();
    registry.register(Box::new(PanickyStream {
        real: full_registry(),
        panics: AtomicU32::new(panics),
    }));
    registry
}

/// A panic inside `Benchmark::run` takes the same road as an injected
/// crash on both executors: one panic is one restart and the clean
/// bytes; a benchmark that always panics degrades every shard it ran on
/// to typed, refunded `ShardFailed` cancellations, and the unsupervised
/// drains return it as `ShardPanicked` instead of unwinding.
#[test]
fn genuine_panics_recover_or_degrade_typed_on_both_executors() {
    let cfg = SupervisorConfig::default();
    let clean = {
        let registry = full_registry();
        stripped(&populated(&registry).drain(&registry).unwrap())
    };
    for parallel in [false, true] {
        let supervised = |registry: &Registry| {
            let mut server = populated(registry);
            let outcome = if parallel {
                server.drain_supervised_parallel(registry, &cfg, None)
            } else {
                server.drain_supervised(registry, &cfg, None)
            };
            let usage = server.admission().usage("chaos-tenant");
            assert_eq!((usage.active, usage.tokens), (0, 0), "quota refunded");
            assert!(server.idle());
            outcome.unwrap()
        };
        let once = supervised(&panicky_registry(1));
        assert_eq!(once.restarts, 1, "parallel={parallel}");
        assert!(!once.degraded());
        assert_eq!(stripped(&once.emits), clean, "parallel={parallel}");

        let always = supervised(&panicky_registry(u32::MAX));
        assert!(always.degraded(), "parallel={parallel}");
        assert_eq!(always.cancelled.len(), 4, "every campaign runs STREAM");
        assert!(always.emits.iter().all(|e| matches!(
            e.frame,
            Frame::Cancelled {
                reason: CancelReason::ShardFailed { restarts: 3 },
                ..
            }
        )));

        let registry = panicky_registry(u32::MAX);
        let mut server = populated(&registry);
        let unsupervised = if parallel {
            server.drain_parallel(&registry)
        } else {
            server.drain(&registry)
        };
        assert!(
            matches!(
                &unsupervised,
                Err(ServeError::ShardPanicked { message, .. }) if message == GENUINE
            ),
            "parallel={parallel}: {unsupervised:?}"
        );
    }
}

/// Quota rejections cross the wire as typed `Rejected` frames; the
/// session keeps serving, the drain completes, and the stats frame
/// shows the accounted rejections.
#[test]
fn quota_rejections_cross_the_wire_typed() {
    let registry = full_registry();
    let (client_end, mut server_end) = DuplexPipe::pair();
    let session = std::thread::spawn(move || {
        let mut server = Server::new(2, 64).with_admission(AdmissionConfig {
            max_active_per_tenant: 2,
            token_capacity: 16,
            max_points_per_campaign: 8,
        });
        let registry = full_registry();
        serve_session(&mut server, &registry, &mut server_end, 1)
    });
    let mut client = Client::new(client_end);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for i in 0..5u64 {
        match client.submit(&campaign(&format!("w{i}"), 8, i)).unwrap() {
            Ok(_) => accepted += 1,
            Err(rejection) => {
                assert_eq!(rejection.tenant, "chaos-tenant");
                assert!(matches!(
                    rejection.reason,
                    RejectReason::CampaignQuota { limit: 2, .. }
                ));
                rejected += 1;
            }
        }
    }
    assert_eq!((accepted, rejected), (2, 3), "quota of 2 admits exactly 2");
    let frames = client.drain().unwrap();
    let done = frames
        .iter()
        .filter(|f| matches!(f, Frame::Done { .. }))
        .count();
    assert_eq!(done, accepted, "every admitted campaign completes");
    let stats = client.stats("serve/").unwrap();
    assert!(
        stats.contains("serve_rejected"),
        "rejections missing from exposition:\n{stats}"
    );
    client.bye().unwrap();
    session.join().unwrap().unwrap();
    let _ = registry;
}

/// Validation failures are rejections too — typed and attributed, not
/// errors that kill the session.
#[test]
fn invalid_specs_reject_typed_without_ending_the_session() {
    let registry = full_registry();
    let mut server = Server::new(1, 16);
    let mut bad = campaign("bad", 8, 1);
    bad.points.clear();
    let rejection = server.submit(1, bad, &registry).unwrap_err();
    assert!(matches!(rejection.reason, RejectReason::Invalid { .. }));
    let mut nan = campaign("nan", 8, 1);
    nan.deadline_s = f64::NAN;
    let rejection = server.submit(1, nan, &registry).unwrap_err();
    assert!(matches!(rejection.reason, RejectReason::Invalid { .. }));
    // The gate charged nothing for refused campaigns.
    let usage = server.admission().usage("chaos-tenant");
    assert_eq!((usage.active, usage.tokens), (0, 0));
    server.submit(1, campaign("ok", 8, 1), &registry).unwrap();
    assert_eq!(
        server
            .drain(&registry)
            .unwrap()
            .iter()
            .filter(|e| matches!(e.frame, Frame::Done { .. }))
            .count(),
        1
    );
}

/// A frame torn mid-body ends the session with a typed `Truncated`
/// error; a hangup between frames is a clean goodbye. Neither panics,
/// neither hangs.
#[test]
fn torn_frames_end_sessions_typed_and_hangups_end_them_clean() {
    let registry = full_registry();
    // Torn mid-frame: the length prefix promises 64 bytes, 5 arrive.
    let (mut client_end, mut server_end) = DuplexPipe::pair();
    client_end.write_all(&64u32.to_le_bytes()).unwrap();
    client_end.write_all(&[1, 2, 3, 4, 5]).unwrap();
    client_end.shutdown();
    let mut server = Server::new(1, 16);
    let err = serve_session(&mut server, &registry, &mut server_end, 1).unwrap_err();
    assert!(
        err.to_string().contains("truncated"),
        "wrong error for a torn frame: {err}"
    );
    // Hangup between frames: a clean end of session.
    let (client_end, mut server_end) = DuplexPipe::pair();
    drop(client_end);
    serve_session(&mut server, &registry, &mut server_end, 1).unwrap();
    // Corrupt length prefix larger than the frame cap: typed, not an
    // allocation attempt.
    let (mut client_end, mut server_end) = DuplexPipe::pair();
    client_end.write_all(&u32::MAX.to_le_bytes()).unwrap();
    client_end.shutdown();
    let err = serve_session(&mut server, &registry, &mut server_end, 1).unwrap_err();
    assert!(
        matches!(err, ServeError::Wire(WireError::Oversized(_))),
        "wrong error for an oversized prefix: {err}"
    );
}
