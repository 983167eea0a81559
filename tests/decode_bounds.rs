//! Allocation-bounded decoding: a length prefix is a claim, not a size.
//!
//! Every type that is decoded from bytes the program did not just write
//! — wire frames, specs, shard snapshots, scheduler states, workflow
//! stores, application restart files — is encoded once
//! validly, and then every 8-byte window of the encoding is overwritten
//! in turn with 2^60, 2^32 and `len + 1` (the values a forged count or
//! dimension would take), resealed where an envelope's checksum would
//! otherwise mask the forgery, and decoded. The decoder may accept or
//! refuse, but it may not panic, and the largest single allocation it
//! requests must stay under a fixed budget plus a small multiple of the
//! input length. A counting global allocator observes the requests.
//!
//! The bound lives in `SnapshotReader::get_seq`; deleting it there makes
//! this suite fail (CHANGES.md records the mutation run).
//!
//! Decoding is half the path. A shard snapshot's forgeries that still
//! restore are then *driven* (decode → execute must not panic either),
//! the progress fields a campaign derives rather than stores are refused
//! when forged, and the one table decoding grows for good — interned
//! backend and device names — is shown to stop growing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use jubench::apps_earth::ShallowWater;
use jubench::apps_lattice::HmcChain;
use jubench::apps_md::MdSystem;
use jubench::ckpt::{open, seal};
use jubench::jube::{output1, CompletedStep, WorkflowCheckpoint};
use jubench::prelude::*;
use jubench::serve::{CancelReason, Frame, RejectReason, ShardState, SHARD_KIND};

/// Forwards to [`System`], noting the largest request of the current
/// thread (decoding is single-threaded, the test harness is not).
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

fn note_live(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` allocates nothing
// (a const-initialised `Cell` of an integer has no lazy init and no
// destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` and `layout` are the caller's, from this
        // allocator, which only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a count alone may reserve (`get_seq` allows itself 64 KiB),
/// with room for the fixed-size tables a decoder builds around it.
const FIXED_BUDGET: usize = 128 << 10;
/// In-memory bytes per input byte: a `Vec` that doubles as it grows may
/// hold twice its elements, and the fattest element relative to its
/// encoding (a `String` cell: 24 bytes for an 8-byte length prefix)
/// is three times its encoding.
const PER_INPUT_BYTE: usize = 8;

/// Overwrite every 8-byte window of `valid` with each forged value and
/// decode. With `sealed`, the window slides over the envelope's payload
/// and the envelope is sealed again, so the forgery reaches the decoder
/// behind a good checksum; the raw envelope (header lengths included)
/// is swept as well. Returns how many forgeries were refused.
fn sweep(name: &str, valid: &[u8], sealed: bool, mut decode: impl FnMut(&[u8]) -> bool) -> usize {
    assert!(decode(valid), "{name}: the valid encoding must decode");
    let mut refused = 0;
    let mut forge = |body: &[u8], finish: &dyn Fn(Vec<u8>) -> Vec<u8>, what: &str| {
        for at in 0..body.len().saturating_sub(7) {
            for forged in [1u64 << 60, 1 << 32, body.len() as u64 + 1] {
                let mut bytes = body.to_vec();
                bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                let bytes = finish(bytes);
                LARGEST.with(|l| l.set(0));
                let outcome = catch_unwind(AssertUnwindSafe(|| decode(&bytes)));
                let largest = LARGEST.with(Cell::get);
                let case = format!("{name}: {what} bytes {at}..{} = {forged}", at + 8);
                match outcome {
                    Ok(accepted) => refused += usize::from(!accepted),
                    Err(_) => panic!("{case}: the decoder panicked"),
                }
                let budget = FIXED_BUDGET + PER_INPUT_BYTE * bytes.len();
                assert!(
                    largest <= budget,
                    "{case}: one allocation of {largest} bytes for a {}-byte input (budget {budget})",
                    bytes.len()
                );
            }
        }
    };
    forge(valid, &|bytes| bytes, "raw");
    if sealed {
        let kind_len = u64::from_le_bytes(valid[6..14].try_into().unwrap()) as usize;
        let kind = std::str::from_utf8(&valid[14..14 + kind_len]).unwrap();
        let payload = open(kind, valid).unwrap();
        forge(&payload, &|bytes| seal(kind, &bytes), "resealed payload");
    }
    assert!(refused > 0, "{name}: no forgery was refused");
    refused
}

fn faulted_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("tenant", "bounds", 16, 7)
        .with_point(RunPoint::test("STREAM", 2, 1))
        .with_point(RunPoint::test("OSU", 2, 2))
        .with_deadline(900.0);
    spec.slice_s = 5.0;
    spec.plan = FaultPlan::new(11)
        .with_degraded_link(0, 1, 3.5)
        .with_flapping_link(2, 3, 2.5, 5.5, 0.625)
        .with_slow_node_window(4, 1.75, 6.5, 9.5)
        .with_message_drop(5, 6, 0.375)
        .with_rank_crash(7, 42.0)
        .with_recv_timeout(0.2);
    spec
}

#[test]
fn frames_of_every_tag_and_specs_decode_within_bounds() {
    let frames = [
        Frame::Submit {
            spec: faulted_spec(),
        },
        Frame::Drain,
        Frame::Stats {
            prefix: "serve/".into(),
        },
        Frame::Bye,
        Frame::Accepted {
            campaign: 7,
            shard: 3,
        },
        Frame::Rejected {
            tenant: "tenant".into(),
            reason: RejectReason::Invalid {
                what: "unknown benchmark `x`".into(),
            },
        },
        Frame::Rejected {
            tenant: "tenant".into(),
            reason: RejectReason::TokensExhausted {
                requested: 64,
                available: 3,
            },
        },
        Frame::Row {
            campaign: 7,
            index: 2,
            cells: vec!["STREAM".into(), "2".into(), "pass".into()],
        },
        Frame::JobDone {
            campaign: 7,
            job: 2,
            end_s: 41.5,
        },
        Frame::Done {
            campaign: 7,
            table: "| a | b |\n".into(),
            chrome_trace: "[]".into(),
            report: "makespan 41.5".into(),
        },
        Frame::Cancelled {
            campaign: 7,
            reason: CancelReason::DeadlineExceeded {
                deadline_s: 100.0,
                horizon_s: 150.0,
            },
        },
        Frame::Cancelled {
            campaign: 7,
            reason: CancelReason::ShardFailed { restarts: 3 },
        },
        Frame::StatsReply {
            prometheus: "# TYPE x counter\nx 1\n".into(),
        },
    ];
    for frame in &frames {
        let bytes = frame.encode();
        if bytes.len() < 8 {
            continue; // `Drain` and `Bye` are a bare tag
        }
        sweep(&format!("{frame:?}")[..8], &bytes, false, |b| {
            Frame::decode(b).is_ok()
        });
    }
    sweep("CampaignSpec", &faulted_spec().encode(), false, |b| {
        CampaignSpec::decode(b).is_ok()
    });
}

#[test]
fn shard_snapshots_decode_within_bounds() {
    let registry = full_registry();
    let mut shard = ShardState::new(0, 64);
    // One campaign into its scheduling phase, one mid-points, one
    // untouched, and a cache holding the executed points.
    shard.submit(1, 10, faulted_spec());
    for _ in 0..3 {
        shard.step(&registry);
    }
    let mut second = faulted_spec();
    second.name = "second".into();
    second.points.push(RunPoint::test("LinkTest", 4, 3));
    shard.submit(2, 10, second);
    shard.step(&registry);
    shard.step(&registry);
    shard.submit(3, 11, faulted_spec());
    let snapshot = shard.snapshot();
    let embeds = |bytes: &[u8], kind: &str| bytes.windows(kind.len()).any(|w| w == kind.as_bytes());
    assert!(
        embeds(&snapshot, "sched-campaign"),
        "a campaign must be in its scheduling phase"
    );
    sweep("ShardState", &snapshot, true, |b| {
        ShardState::new(9, 4).restore(b).is_ok()
    });
}

#[test]
fn scheduler_states_and_workflow_stores_decode_within_bounds() {
    let sched = Scheduler::new(
        Machine::juwels_booster().partition(96),
        NetModel::juwels_booster(),
        SchedulerConfig::new(
            QueuePolicy::ConservativeBackfill,
            PlacementPolicy::Contiguous,
            9,
        ),
    );
    let jobs: Vec<Job> = (0..6u32)
        .map(|i| {
            Job::new(i, &format!("job{i}"), 8 + 8 * (i % 4), 2.0 + 0.3 * i as f64)
                .with_submit(0.25 * i as f64)
                .with_retry(RetryPolicy::new(16, 0.05).with_multiplier(1.0))
                .with_checkpointing(0.4, 0.02)
        })
        .collect();
    let plan = FaultPlan::new(9)
        .with_slow_node_window(5, 4.0, 1.0, 3.0)
        .with_rank_crash(40, 2.5);
    let mut state = sched.begin(&jobs);
    sched.advance(&mut state, &jobs, &plan, 2.7);
    sweep("CampaignState", &state.snapshot(), true, |b| {
        sched.resume(b, &jobs).is_ok()
    });

    let store = WorkflowCheckpoint::new();
    for (wp, succeeded) in [(0, true), (1, false), (2, true)] {
        store.record(
            wp,
            "execute",
            CompletedStep {
                attempt: wp + 1,
                succeeded,
                outputs: output1("fom", "17.25"),
            },
        );
    }
    sweep("WorkflowCheckpoint", &store.snapshot(), true, |b| {
        WorkflowCheckpoint::new().restore(b).is_ok()
    });
}

#[test]
fn application_restart_files_decode_within_bounds() {
    let mut chain = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 7);
    chain.run(2);
    sweep("HmcChain", &chain.snapshot(), true, |b| {
        chain.restore(b).is_ok()
    });

    // These two are built on a rank, so they are swept on it.
    World::per_node(Machine::juwels_booster().partition(1)).run(|comm| {
        let mut md = MdSystem::lattice(comm, 8.0, 8, 2.0, 11);
        md.prepare(comm).unwrap();
        sweep("MdSystem", &md.snapshot(), true, |b| md.restore(b).is_ok());
        let mut water = ShallowWater::gaussian(comm, 8, 8);
        sweep("ShallowWater", &water.snapshot(), true, |b| {
            water.restore(b).is_ok()
        });
    });
}

/// A spec the decoder accepts may still name a partition of any size,
/// and `Scheduler::begin` keeps a set entry per node of it: `validate`
/// is where a partition is capped. A forged `Submit` for all 10⁹ nodes
/// of a backend whose device and memory products still fit is `Rejected`
/// without anything being sized by the claim; and with 10⁹ or 2³⁰
/// written over every 4-byte window of a spec in turn — its two node
/// counts among them — what still validates begins its scheduler within
/// the budget.
#[test]
fn forged_partition_sizes_are_rejected_or_begin_within_bounds() {
    let registry = full_registry();
    let budget = |input: &[u8]| FIXED_BUDGET + PER_INPUT_BYTE * input.len();

    let mut forged = faulted_spec();
    (forged.backend.nodes, forged.nodes) = (1_000_000_000, 1_000_000_000);
    forged.backend.node.gpus_per_node = 1;
    forged.backend.node.gpu.memory_bytes = 1 << 30;
    let bytes = Frame::Submit { spec: forged }.encode();
    LARGEST.with(|l| l.set(0));
    let Ok(Frame::Submit { spec }) = Frame::decode(&bytes) else {
        panic!("a node count is the validator's to refuse, not the decoder's");
    };
    let mut server = Server::new(1, 4);
    let rejection = server
        .submit(1, spec, &registry)
        .expect_err("a 10^9-node partition");
    assert!(
        matches!(&rejection.reason, RejectReason::Invalid { what } if what.contains("partition")),
        "refused as invalid: {rejection:?}"
    );
    assert!(server.drain(&registry).unwrap().is_empty() && server.idle());
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= budget(&bytes),
        "one allocation of {largest} bytes"
    );

    let valid = faulted_spec().encode();
    let (mut refused, mut begun) = (0, 0);
    for at in 0..valid.len() - 3 {
        for forged in [1_000_000_000u32, 1 << 30] {
            let mut bytes = valid.clone();
            bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            LARGEST.with(|l| l.set(0));
            match CampaignSpec::decode(&bytes) {
                Ok(spec) if spec.validate(&registry).is_ok() => {
                    let config = SchedulerConfig::new(spec.policy, spec.placement, spec.seed);
                    let scheduler = Scheduler::new(spec.machine(), spec.backend.net, config);
                    assert!(scheduler.begin(&[]).now() == 0.0);
                    begun += 1;
                }
                _ => refused += 1,
            }
            let largest = LARGEST.with(Cell::get);
            assert!(
                largest <= budget(&bytes),
                "bytes {at}..{} = {forged}: one allocation of {largest} bytes",
                at + 4
            );
        }
    }
    assert!(refused > 0 && begun > 0, "{refused} refused, {begun} begun");
}

/// A shard holding one campaign mid-points and, last in its queue, one
/// between two scheduler slices with a completion already streamed.
fn shard_between_two_slices(registry: &Registry) -> ShardState {
    let mut shard = ShardState::new(0, 64);
    let mut first = faulted_spec();
    first.points.push(RunPoint::test("LinkTest", 4, 3));
    // A point the cache already holds: what a restored shard executes
    // next costs a lookup unless a forgery changed its key.
    first.points.push(RunPoint::test("OSU", 2, 2));
    shard.submit(1, 10, first);
    shard.submit(2, 10, faulted_spec());
    // Round-robin: two points each, then campaign 1's third point and
    // campaign 2's first slice.
    for _ in 0..6 {
        shard.step(registry);
    }
    shard
}

/// The progress a campaign's bytes claim is derived — the next point
/// from the rows, the streamed completions from the scheduler state —
/// and a claim the rest of the bytes do not back is `Malformed` where
/// it arrives: taken at its word, `streamed_done` = 2^40 restored fine
/// and panicked in the next slice (`range start index … out of range`),
/// and a smaller lie streamed `JobDone`s twice.
#[test]
fn forged_progress_fields_are_malformed_at_restore() {
    let registry = full_registry();
    let mut shard = shard_between_two_slices(&registry);
    let untouched = shard.clone();
    let payload = open(SHARD_KIND, &shard.snapshot()).unwrap();
    // `streamed_done` is the last campaign's — and so the payload's —
    // last field.
    let tail = payload.len() - 8;
    let finished = u64::from_le_bytes(payload[tail..].try_into().unwrap());
    assert!(finished > 0, "zero must be a forgery here");
    for forged in [1u64 << 40, 0, finished + 1] {
        let mut bytes = payload.clone();
        bytes[tail..].copy_from_slice(&forged.to_le_bytes());
        let sealed = seal(SHARD_KIND, &bytes);
        LARGEST.with(|l| l.set(0));
        let refusal = shard.restore(&sealed);
        assert!(
            matches!(refusal, Err(CkptError::Malformed { .. })),
            "streamed_done = {forged} of {finished}: {refusal:?}"
        );
        assert!(LARGEST.with(Cell::get) <= FIXED_BUDGET + PER_INPUT_BYTE * sealed.len());
        assert_eq!(shard, untouched, "a refused forgery changes nothing");
    }
}

/// Decode → execute, not decode alone: every 8-byte window of a shard
/// snapshot is forged in turn, and whatever still restores is then
/// driven for 64 units — the genuine shard is idle after a handful; a
/// forged slice width or horizon may ask for millions. Nothing on that
/// path may panic.
#[test]
fn forged_shard_snapshots_that_restore_also_drain() {
    let registry = full_registry();
    let shard = shard_between_two_slices(&registry);
    let payload = open(SHARD_KIND, &shard.snapshot()).unwrap();
    let (mut refused, mut driven) = (0, 0);
    for at in 0..payload.len() - 7 {
        for forged in [1u64 << 60, 1 << 32, payload.len() as u64 + 1] {
            let mut bytes = payload.clone();
            bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let sealed = seal(SHARD_KIND, &bytes);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut restored = ShardState::new(9, 4);
                if restored.restore(&sealed).is_err() {
                    return false;
                }
                for _ in 0..64 {
                    restored.step(&registry);
                }
                true
            }));
            match outcome {
                Ok(true) => driven += 1,
                Ok(false) => refused += 1,
                Err(_) => panic!(
                    "payload bytes {at}..{} = {forged}: restore → step panicked",
                    at + 8
                ),
            }
        }
    }
    assert!(
        refused > 0 && driven > 0,
        "{refused} refused, {driven} driven"
    );
}

/// Decoded backends name their machine and their device, names are
/// interned (leaked) once each, and the bytes come off the wire: the
/// table is capped, so a session that invents names runs into a typed
/// refusal instead of growing the process for good. 5 000 specs with
/// pairwise distinct names: a prefix of them decodes, the rest is
/// `Malformed` and the heap stops growing — and a backend whose names
/// are already known still decodes.
#[test]
fn invented_backend_names_cannot_grow_the_intern_table() {
    let known = faulted_spec().encode();
    assert!(CampaignSpec::decode(&known).is_ok());
    // Names are spliced into the encoding, four digits each: nothing
    // here allocates per spec but the decoder.
    let mut template = faulted_spec();
    (template.backend.name, template.backend.node.gpu.name) = ("machine ####", "device ####");
    let mut bytes = template.encode();
    let digits_of = |name: &str| {
        let at = bytes.windows(name.len()).position(|w| w == name.as_bytes());
        at.expect("the encoding spells the name") + name.len() - 4
    };
    let slots = [digits_of("machine ####"), digits_of("device ####")];
    let (mut accepted, mut live_at_2000) = (0, 0);
    for i in 0..5_000 {
        for at in slots {
            bytes[at..at + 4].copy_from_slice(format!("{i:04}").as_bytes());
        }
        if i == 2_000 {
            live_at_2000 = LIVE.with(Cell::get);
        }
        match CampaignSpec::decode(&bytes) {
            Ok(spec) => {
                assert_eq!(spec.backend.name, format!("machine {i:04}"));
                assert_eq!(accepted, i, "a name was interned after one was refused");
                accepted += 1;
            }
            Err(e) => assert!(matches!(e, CkptError::Malformed { .. }), "spec {i}: {e:?}"),
        }
    }
    // Two names a spec, 1 024 names in all; the sweeps of this binary
    // run beside this test and their forged names are interned too.
    assert!((256..=512).contains(&accepted), "{accepted} specs decoded");
    let grown = LIVE.with(Cell::get) - live_at_2000;
    assert!(grown <= 0, "3 000 refused specs left {grown} bytes behind");
    assert!(
        CampaignSpec::decode(&known).is_ok(),
        "known names still decode"
    );
}
