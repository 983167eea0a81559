//! The campaign-service soak drill: a large multi-tenant campaign
//! population across four shards, driven through kill/restore, a seeded
//! chaos plan (injected shard crashes and a straggler) under
//! supervision, and per-tenant admission quotas — ending in byte-
//! identity against an uninterrupted fault-free reference and a full
//! warm resubmission with a non-zero cache hit rate.
//!
//! Campaign count defaults low so the local test run stays fast; CI
//! scales it to 2000 via `JUBENCH_SOAK_CAMPAIGNS`, and the serve-chaos
//! job re-runs it with the fault plan off via `JUBENCH_CHAOS=0` to pin
//! at scale that supervision alone is byte-transparent and
//! restart-free.

use jubench::ckpt::Checkpointable;
use jubench::prelude::*;
use jubench::serve::{Emit, Frame, ShardState, SupervisorConfig};

/// `JUBENCH_SOAK_CAMPAIGNS`, defaulting to a quick local drill.
fn n_campaigns() -> usize {
    std::env::var("JUBENCH_SOAK_CAMPAIGNS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(16)
}

/// `JUBENCH_CHAOS` (default on): `0`/`false` runs the supervised drain
/// with no fault plan — the second step of the CI serve-chaos job.
fn chaos_enabled() -> bool {
    !matches!(
        std::env::var("JUBENCH_CHAOS").as_deref(),
        Ok("0") | Ok("false")
    )
}

/// Campaign `i` of the soak population: partition sizes and seeds vary
/// so campaigns spread across shards and share some cache keys, and the
/// tenant cycles through five names so quotas see real contention.
fn soak_spec(i: usize) -> CampaignSpec {
    let benches = ["STREAM", "OSU", "LinkTest", "HPL"];
    let nodes = [8u32, 16, 24, 48][i % 4];
    let mut spec = CampaignSpec::new(
        &format!("tenant{}", i % 5),
        &format!("soak{i}"),
        nodes,
        i as u64,
    )
    .with_point(RunPoint::test(benches[i % 4], 2, (i / 4) as u64))
    .with_point(RunPoint::test(benches[(i + 1) % 4], 4, (i / 4) as u64));
    spec.slice_s = 10.0;
    spec
}

fn frames_of(emits: &[Emit], campaign: u64) -> Vec<Frame> {
    emits
        .iter()
        .filter_map(|e| match &e.frame {
            Frame::Row { campaign: c, .. }
            | Frame::JobDone { campaign: c, .. }
            | Frame::Done { campaign: c, .. }
                if *c == campaign =>
            {
                Some(e.frame.clone())
            }
            _ => None,
        })
        .collect()
}

/// Project a campaign's frames down to the deterministic artifacts
/// (rows, job completions, table, trace) — dropping the run report,
/// whose out-of-band cache/guard tallies legitimately differ warm vs
/// cold and chaotic vs clean.
fn deterministic_frames(frames: &[Frame]) -> Vec<Frame> {
    frames
        .iter()
        .map(|f| match f {
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

#[test]
fn soak_kill_restore_chaos_and_warm_resubmission() {
    let registry = full_registry();
    let n = n_campaigns();
    // Cache capacity scales with the population: this drill pins
    // supervision and warm-hit behavior, not eviction pressure (which
    // has its own deterministic-eviction test).
    let cache_cap = 2 * n + 64;
    let submit_all = |server: &mut Server| -> Vec<u64> {
        (0..n)
            .map(|i| {
                server
                    .submit(1 + (i % 3) as u64, soak_spec(i), &registry)
                    .unwrap()
                    .0
            })
            .collect()
    };

    // The uninterrupted fault-free reference run.
    let mut reference = Server::new(4, cache_cap);
    let ref_ids = submit_all(&mut reference);
    let ref_emits = reference.drain(&registry).unwrap();

    // The trial run: advance partway, kill shard 1 (snapshot → drop →
    // restore into a shard built with wrong parameters), then finish on
    // dedicated rank threads under supervision with a seeded chaos plan
    // crashing every shard's worker once plus a scattered tail and a
    // straggler.
    let mut trial = Server::new(4, cache_cap);
    let trial_ids = submit_all(&mut trial);
    let mut trial_emits = Vec::new();
    for _ in 0..n.min(64) {
        trial_emits.extend(trial.step(&registry).unwrap());
    }
    let snapshot = trial.shard(1).snapshot();
    *trial.shard_mut(1) = ShardState::new(77, 1);
    trial.shard_mut(1).restore(&snapshot).unwrap();
    let chaos = chaos_enabled().then(|| {
        ChaosPlan::scattered(0xD15EA5E, 4, 6, 40)
            .with_shard_crash(0, 1)
            .with_shard_crash(1, 2)
            .with_shard_crash(2, 1)
            .with_shard_crash(3, 3)
            .with_straggler(2)
    });
    let cfg = SupervisorConfig {
        max_restarts: chaos.as_ref().map_or(1, |c| c.crash_count() as u32 + 1),
    };
    let outcome = trial
        .drain_supervised_parallel(&registry, &cfg, chaos.as_ref())
        .unwrap();
    assert!(
        !outcome.degraded(),
        "restart budget should absorb the chaos plan: {:?}",
        outcome.failed_shards
    );
    if chaos.is_some() {
        assert!(
            outcome.restarts > 0,
            "the chaos plan must actually fire at least one crash"
        );
    } else {
        assert_eq!(outcome.restarts, 0, "no chaos, no restarts");
    }
    trial_emits.extend(outcome.emits);

    // Rows, job completions, tables, and traces are byte-identical;
    // the run report legitimately differs — it carries the out-of-band
    // guard tallies of the restarts the chaos plan forced.
    assert_eq!(ref_ids, trial_ids);
    for &id in &ref_ids {
        assert_eq!(
            deterministic_frames(&frames_of(&ref_emits, id)),
            deterministic_frames(&frames_of(&trial_emits, id)),
            "campaign {id} diverged after kill/restore + supervised chaos"
        );
    }

    // Resubmit the full population against the warm trial server: the
    // deterministic frames repeat byte-for-byte and the caches hit.
    let hits_before: u64 = (0..4).map(|s| trial.shard(s).cache().stats().hits).sum();
    let warm_ids = submit_all(&mut trial);
    let warm_emits = trial.drain_parallel(&registry).unwrap();
    for (&cold_id, &warm_id) in ref_ids.iter().zip(&warm_ids) {
        let mut expected = deterministic_frames(&frames_of(&ref_emits, cold_id));
        // The resubmitted campaign carries a fresh id; rewrite the
        // reference ids before comparing.
        for frame in &mut expected {
            match frame {
                Frame::Row { campaign, .. }
                | Frame::JobDone { campaign, .. }
                | Frame::Done { campaign, .. } => *campaign = warm_id,
                _ => {}
            }
        }
        assert_eq!(
            deterministic_frames(&frames_of(&warm_emits, warm_id)),
            expected,
            "warm campaign {warm_id} diverged from its cold run {cold_id}"
        );
    }
    let hits_after: u64 = (0..4).map(|s| trial.shard(s).cache().stats().hits).sum();
    assert!(
        hits_after > hits_before,
        "warm resubmission produced no cache hits ({hits_before} → {hits_after})"
    );
}

#[test]
fn soak_admission_quotas_account_every_rejection() {
    let registry = full_registry();
    let n = n_campaigns();
    // Five tenants share the population; each may hold at most two
    // campaigns (four point tokens) at once.
    let mut server = Server::new(4, 2 * n + 64).with_admission(AdmissionConfig {
        max_active_per_tenant: 2,
        token_capacity: 4,
        max_points_per_campaign: 8,
    });
    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    let mut emits = Vec::new();
    for i in 0..n {
        match server.submit(1, soak_spec(i), &registry) {
            Ok((id, _)) => admitted.push(id),
            Err(rejection) => {
                // Typed, attributed, and displayable — never a panic.
                assert_eq!(rejection.tenant, format!("tenant{}", i % 5));
                assert!(!rejection.to_string().is_empty());
                rejected += 1;
            }
        }
        // Retiring campaigns refunds their quota charge, so draining
        // lets the next batch of the same tenants back in. The window
        // is longer than `5 tenants × 2 slots`, so some tenant always
        // overflows its quota within it.
        if i % 12 == 11 {
            emits.extend(server.drain(&registry).unwrap());
        }
    }
    emits.extend(server.drain(&registry).unwrap());
    assert_eq!(admitted.len() + rejected, n, "every submit is accounted");
    assert!(rejected > 0, "quotas this tight must reject something");
    let done = emits
        .iter()
        .filter(|e| matches!(e.frame, Frame::Done { .. }))
        .count();
    assert_eq!(done, admitted.len(), "every admitted campaign completes");
    for t in 0..5 {
        let usage = server.admission().usage(&format!("tenant{t}"));
        assert_eq!(
            (usage.active, usage.tokens),
            (0, 0),
            "tenant{t} still charged after all campaigns retired"
        );
    }
}
