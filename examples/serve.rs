//! Campaign-service walkthrough: the suite as a multi-tenant daemon.
//!
//! Spins up a [`Server`] with four worker shards, connects a client
//! over an in-process duplex pipe speaking the length-prefixed wire
//! protocol, submits campaigns from two tenants, and drains the
//! streamed results (rows as points execute, job completions as the
//! scheduler places them, the final table/trace/report per campaign).
//! Then resubmits one campaign to show the content-addressed result
//! cache at work — every point answers from cache, the artifacts stay
//! byte-identical, and the hit tallies surface in the run report and
//! the `serve/*` Prometheus exposition.
//!
//! Ends with the guard layer: a per-tenant quota rejecting (typed,
//! refundable) an over-limit submission, and a supervised drain
//! recovering from a seeded chaos plan — every crashed shard rolled
//! back to its state at attempt start and re-driven, the frame stream
//! byte-identical to the fault-free drain's (reports aside), and the
//! wall-clock restart overhead printed.
//!
//! Run with: `cargo run --release --example serve`

use jubench::prelude::*;
use jubench::serve::{serve_session, Client, DuplexPipe, Frame};

fn nightly(tenant: &str, seed: u64) -> CampaignSpec {
    CampaignSpec::new(tenant, "nightly", 48, seed)
        .with_point(RunPoint::test("STREAM", 1, seed))
        .with_point(RunPoint::test("OSU", 2, seed + 1))
        .with_point(RunPoint::test("LinkTest", 8, seed + 2))
        .with_point(RunPoint::test("HPL", 16, seed + 3))
}

fn main() {
    // ----- the service: four shards, a 256-entry cache each ------------
    let mut server = Server::new(4, 256);
    let registry = full_registry();
    let (client_end, mut server_end) = DuplexPipe::pair();
    let service = std::thread::spawn(move || {
        serve_session(&mut server, &registry, &mut server_end, 1).expect("session ends cleanly");
        server
    });

    // ----- two tenants submit campaigns --------------------------------
    let mut client = Client::new(client_end);
    let alice = client.submit(&nightly("alice", 7)).unwrap().unwrap();
    let bob = client.submit(&nightly("bob", 99)).unwrap().unwrap();
    println!("accepted campaigns: alice #{alice}, bob #{bob}\n");

    // A malformed spec is rejected up front, before anything queues.
    let rejected = client
        .submit(&CampaignSpec::new("eve", "empty", 8, 0))
        .unwrap();
    println!("empty campaign rejected: {}\n", rejected.unwrap_err());

    // ----- drain: results stream incrementally -------------------------
    let frames = client.drain().unwrap();
    let mut rows = 0;
    let mut job_dones = 0;
    for frame in &frames {
        match frame {
            Frame::Row {
                campaign,
                index,
                cells,
            } => {
                rows += 1;
                if *campaign == alice {
                    println!("row {index} of #{campaign}: {}", cells.join(" | "));
                }
            }
            Frame::JobDone { .. } => job_dones += 1,
            Frame::Done {
                campaign,
                table,
                report,
                ..
            } => {
                println!("\ncampaign #{campaign} done:\n{table}");
                if *campaign == alice {
                    println!("{report}");
                }
            }
            _ => {}
        }
    }
    println!("streamed {rows} rows and {job_dones} job completions\n");

    // ----- resubmit: the content-addressed cache answers ---------------
    let warm = client.submit(&nightly("alice", 7)).unwrap().unwrap();
    let warm_frames = client.drain().unwrap();
    let table_of = |frames: &[Frame], id: u64| {
        frames
            .iter()
            .find_map(|f| match f {
                Frame::Done {
                    campaign, table, ..
                } if *campaign == id => Some(table.clone()),
                _ => None,
            })
            .expect("campaign completed")
    };
    assert_eq!(
        table_of(&warm_frames, warm),
        table_of(&frames, alice),
        "warm and cold tables are byte-identical"
    );
    println!("warm resubmission #{warm}: table byte-identical to the cold run");
    if let Some(report) = warm_frames.iter().find_map(|f| match f {
        Frame::Done {
            campaign, report, ..
        } if *campaign == warm => Some(report),
        _ => None,
    }) {
        for line in report.lines().filter(|l| l.contains("cache")) {
            println!("  {line}");
        }
    }

    // ----- the service's own metrics -----------------------------------
    let prometheus = client.stats("serve/").unwrap();
    println!("\nserve/* metrics (Prometheus exposition):");
    for line in prometheus.lines().filter(|l| !l.starts_with('#')).take(12) {
        println!("  {line}");
    }

    client.bye().unwrap();
    let server = service.join().unwrap();
    assert!(server.idle());
    println!("\nsession closed; server idle");

    // ----- guard demo: per-tenant quotas -------------------------------
    let registry = full_registry();
    let mut gated = Server::new(2, 64).with_admission(AdmissionConfig {
        max_active_per_tenant: 1,
        token_capacity: 8,
        max_points_per_campaign: 8,
    });
    gated.submit(1, nightly("alice", 1), &registry).unwrap();
    let rejection = gated.submit(1, nightly("alice", 2), &registry).unwrap_err();
    println!("\nquota rejection (typed, accounted): {rejection}");
    gated.drain(&registry).unwrap();
    // Retiring the first campaign refunded the quota charge.
    gated.submit(1, nightly("alice", 2), &registry).unwrap();
    println!("after the first campaign retired, the same tenant is admitted again");

    // ----- guard demo: supervised recovery from a seeded chaos plan ----
    // An injected crash fails the shard's drive attempt with a typed
    // error; the driver discards the attempt, puts back the clone of the
    // shard it kept at attempt start, and re-drives it. Every drain —
    // plain or supervised, inline or parallel — emits each shard's
    // stream in shard order, so the two runs compare as whole streams.
    // Partition sizes vary so the population spreads across all four
    // shards (routing keys on the machine fingerprint).
    let populate = |server: &mut Server| {
        for i in 0..24u64 {
            let tenant = ["alice", "bob", "carol"][i as usize % 3];
            let nodes = [8, 16, 24, 48][i as usize % 4];
            let spec = CampaignSpec::new(tenant, "guard", nodes, 1000 + i)
                .with_point(RunPoint::test("STREAM", 1, i))
                .with_point(RunPoint::test("OSU", 2, i + 1))
                .with_point(RunPoint::test("LinkTest", 8, i + 2));
            server.submit(1, spec, &registry).unwrap();
        }
    };
    let mut clean = Server::new(4, 256);
    populate(&mut clean);
    let t0 = std::time::Instant::now();
    let clean_emits = clean.drain_parallel(&registry).unwrap();
    let clean_wall = t0.elapsed();

    let chaos = ChaosPlan::scattered(0xC7A05, 4, 8, 24).with_straggler(1);
    let cfg = SupervisorConfig {
        max_restarts: chaos.crash_count() as u32 + 1,
    };
    let mut chaotic = Server::new(4, 256);
    populate(&mut chaotic);
    let t1 = std::time::Instant::now();
    let outcome = chaotic
        .drain_supervised_parallel(&registry, &cfg, Some(&chaos))
        .unwrap();
    let chaos_wall = t1.elapsed();
    assert!(!outcome.degraded(), "the restart budget absorbs this plan");

    // The streams are byte-identical once the run report (which
    // carries the out-of-band guard tallies) is stripped.
    let stripped = |emits: &[jubench::serve::Emit]| -> Vec<Frame> {
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
    };
    assert_eq!(
        stripped(&clean_emits),
        stripped(&outcome.emits),
        "supervised chaos recovery is byte-transparent"
    );
    let overhead = chaos_wall.as_secs_f64() / clean_wall.as_secs_f64() - 1.0;
    println!(
        "\nsupervised chaos drain over 24 campaigns: {} shard restarts, \
         {:.1}s virtual backoff charged, artifacts byte-identical",
        outcome.restarts, outcome.backoff_s
    );
    println!(
        "wall clock: fault-free {:.1} ms vs supervised chaos {:.1} ms \
         ({:+.0}% restart overhead)",
        clean_wall.as_secs_f64() * 1e3,
        chaos_wall.as_secs_f64() * 1e3,
        overhead * 100.0
    );
}
