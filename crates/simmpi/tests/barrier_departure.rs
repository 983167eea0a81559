//! A rank that leaves — by panicking or by returning early — must not
//! hang the peers that wait for it in `barrier()` or in a collective:
//! `World::run` has to join. Each world runs on its own thread under a watchdog; a world that
//! is still blocked after five seconds fails the test instead of hanging
//! the suite.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use jubench_cluster::Machine;
use jubench_simmpi::{Comm, ReduceOp, SimError, World};

/// Run `program` on a four-rank world; `Ok` holds each rank's clock after
/// the run, `Err` the message `World::run` panicked with.
fn run_watched(program: impl Fn(&mut Comm) + Send + Sync + 'static) -> Result<Vec<f64>, String> {
    let (done, watchdog) = mpsc::channel();
    std::thread::spawn(move || {
        let world = World::new(Machine::juwels_booster().partition(1));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            world.run(|comm| {
                program(comm);
                comm.now()
            })
        }));
        let _ = done.send(match outcome {
            Ok(ranks) => Ok(ranks.into_iter().map(|r| r.value).collect()),
            Err(panic) => Err(panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into())),
        });
    });
    watchdog
        .recv_timeout(Duration::from_secs(5))
        .expect("the world is still blocked in barrier() after 5 s")
}

#[test]
fn a_rank_that_panics_releases_the_barrier_and_the_world_joins() {
    let outcome = run_watched(|comm| {
        if comm.rank() == 2 {
            panic!("injected failure");
        }
        comm.barrier();
    });
    let message = outcome.expect_err("the panic still propagates");
    assert!(message.contains("rank 2 panicked"), "{message}");
}

#[test]
fn a_rank_that_returns_early_counts_as_arrived() {
    let clocks = run_watched(|comm| {
        comm.advance_compute(f64::from(comm.rank() + 1));
        if comm.rank() == 2 {
            return;
        }
        // Two rounds: the departure holds for every later generation.
        comm.barrier();
        comm.barrier();
    })
    .expect("nothing panicked");
    // Rank 2 left at its own time; the others met at their maximum,
    // whether or not rank 2's departure preceded their arrival.
    assert_eq!(clocks[2], 3.0);
    for rank in [0, 1, 3] {
        assert_eq!(clocks[rank], 4.0, "rank {rank}");
    }
}

/// A collective a rank that left can strand its peers in, by name.
type Collective = (&'static str, fn(&mut Comm) -> Result<(), SimError>);

/// Each collective, with a one-element payload per rank.
const COLLECTIVES: [Collective; 3] = [
    ("allreduce", |comm| {
        comm.allreduce_scalar(1.0, ReduceOp::Sum).map(drop)
    }),
    ("allgather", |comm| comm.allgather_f64(&[1.0]).map(drop)),
    ("alltoall", |comm| {
        let send = vec![vec![1.0]; comm.size() as usize];
        comm.alltoall_f64(send).map(drop)
    }),
];

#[test]
fn a_rank_that_panics_before_a_collective_releases_its_peers() {
    for (name, collective) in COLLECTIVES {
        // World::run reports one panic only, so the peers log what they
        // got instead of asserting it.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let outcome = run_watched(move |comm| {
            if comm.rank() == 2 {
                panic!("injected failure");
            }
            let got = collective(comm);
            log.lock().unwrap().push((comm.rank(), got));
        });
        let message = outcome.expect_err("the panic still propagates");
        assert!(message.contains("rank 2 panicked"), "{name}: {message}");
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_by_key(|&(rank, _)| rank);
        let gone = Err(SimError::PeerGone { from: 2 });
        assert_eq!(
            seen,
            [(0, gone.clone()), (1, gone.clone()), (3, gone)],
            "{name}"
        );
    }
}

#[test]
fn a_rank_that_returns_before_a_collective_releases_its_peers() {
    for (name, collective) in COLLECTIVES {
        let clocks = run_watched(move |comm| {
            comm.advance_compute(f64::from(comm.rank() + 1));
            if comm.rank() == 2 {
                return;
            }
            let err = collective(comm);
            assert_eq!(err, Err(SimError::PeerGone { from: 2 }), "{name}");
        })
        .unwrap_or_else(|message| panic!("{name}: {message}"));
        // A collective that cannot complete moves no clock.
        assert_eq!(clocks, [1.0, 2.0, 3.0, 4.0], "{name}");
    }
}
