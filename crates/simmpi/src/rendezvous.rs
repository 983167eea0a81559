//! The rendezvous: where the ranks of a world meet for a barrier or a
//! collective.
//!
//! A collective is one meeting, not a chain of messages. Each rank
//! deposits its clock and its buffer and parks; the last rank to arrive
//! replays the named algorithm (ring allreduce, ring allgather, pairwise
//! alltoall) step by step for every rank at once — the same `f64`
//! operations in the same order, the same per-message wire times and
//! causality waits — and each rank takes back its clock, its result, its
//! per-message tally and, in a traced world, its per-message events. A
//! rank therefore blocks once per collective instead of once per message.
//!
//! A barrier is the max-sync case of the same meeting. The rendezvous
//! knows its participants: a rank whose [`Comm`](crate::Comm) is dropped —
//! it returned, or it panicked — [`leaves`](Rendezvous::leave). A barrier
//! counts it as arrived from then on; a collective, which needs every
//! rank's data, fails with [`SimError::PeerGone`] instead, for the ranks
//! already parked in it and for every later one. A replay that panics
//! hands its waiters `PeerGone` too before the panic goes on. No rank is
//! left parked.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};

use jubench_cluster::NetModel;
use jubench_trace::EventKind;

use crate::clock::VirtualClock;
use crate::comm::{link_time, ReduceOp, Traffic};
use crate::error::SimError;
use crate::partition::block_range;
use crate::rankmap::RankMap;

/// What a rank brings to a meeting, and — the same variant — what it takes
/// back.
#[derive(Clone)]
pub(crate) enum Entry {
    /// Synchronise clocks to their maximum.
    Barrier,
    /// In: this rank's buffer. Out: the reduction over all ranks.
    Allreduce { buf: Vec<f64>, op: ReduceOp },
    /// In: this rank's contribution. Out: every contribution in rank
    /// order.
    Allgather { buf: Vec<f64> },
    /// In: `bufs[i]` goes to rank `i`. Out: `bufs[i]` came from rank `i`.
    Alltoall { bufs: Vec<Vec<f64>> },
}

impl Entry {
    fn name(&self) -> &'static str {
        match self {
            Entry::Barrier => "barrier",
            Entry::Allreduce { .. } => "allreduce",
            Entry::Allgather { .. } => "allgather",
            Entry::Alltoall { .. } => "alltoall",
        }
    }
}

/// One replayed event of a rank: `(t_start, t_end, kind)`. The rank stamps
/// it with its own sequence number when it takes it back.
pub(crate) type Replayed = (f64, f64, EventKind);

/// What a meeting gives one rank back.
pub(crate) struct Exit {
    pub(crate) clock: VirtualClock,
    pub(crate) entry: Entry,
    /// The messages the replay sent and received on this rank's behalf.
    pub(crate) traffic: Traffic,
    /// Those messages' `Send`/`Recv` events, in this rank's order; empty
    /// in an untraced world.
    pub(crate) events: Vec<Replayed>,
}

/// The ranks of one world meet here. See the module documentation.
pub(crate) struct Rendezvous {
    map: RankMap,
    net: NetModel,
    /// Record per-message events for the ranks (the world has a sink).
    traced: bool,
    state: Mutex<State>,
}

struct State {
    /// Ranks that have not left.
    present: usize,
    /// Of those, the ones waiting in the current generation.
    waiting: usize,
    /// Completed generations. A waiter is released once it moves on; it
    /// takes its exit before the next generation can complete, since that
    /// one needs it to arrive or leave first.
    generation: u64,
    /// The first rank that left: the peer a collective that can no longer
    /// complete names.
    gone: Option<u32>,
    /// One per rank.
    slots: Vec<Slot>,
}

#[derive(Default)]
struct Slot {
    /// This rank's clock and entry in the current generation.
    arrival: Option<(VirtualClock, Entry)>,
    /// What the last generation it waited in left it, until it takes it.
    exit: Option<Result<Exit, SimError>>,
    /// The parked thread to wake when the generation completes.
    waker: Option<Thread>,
}

/// What the rank that completes a generation still has to do once it drops
/// the lock: wake the waiters, then re-raise a panicking replay.
struct Release {
    wakers: Vec<Thread>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Release {
    fn finish(self) {
        for waker in self.wakers {
            waker.unpark();
        }
        if let Some(panic) = self.panic {
            resume_unwind(panic);
        }
    }
}

impl Rendezvous {
    pub(crate) fn new(size: usize, map: RankMap, net: NetModel, traced: bool) -> Self {
        Rendezvous {
            map,
            net,
            traced,
            state: Mutex::new(State {
                present: size,
                waiting: 0,
                generation: 0,
                gone: None,
                slots: (0..size).map(|_| Slot::default()).collect(),
            }),
        }
    }

    /// The lock is never held across user code, and a replay runs under
    /// `catch_unwind`, so a poisoned state is still a consistent one (and
    /// `leave` runs in a `Drop`, which must not panic).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Meet the other ranks with `clock` and `entry`; returns once every
    /// rank still present has arrived.
    ///
    /// # Panics
    ///
    /// If ranks wait in a different operation: the program is not SPMD.
    pub(crate) fn meet(
        &self,
        rank: u32,
        clock: VirtualClock,
        entry: Entry,
    ) -> Result<Exit, SimError> {
        let mut s = self.lock();
        let size = s.slots.len();
        let barrier = matches!(entry, Entry::Barrier);
        if !barrier && s.present < size {
            let from = s.gone.expect("a rank that left is recorded");
            return Err(SimError::PeerGone { from });
        }
        if let Some((_, other)) = s.slots.iter().find_map(|slot| slot.arrival.as_ref()) {
            if std::mem::discriminant(other) != std::mem::discriminant(&entry) {
                let waiting = other.name();
                drop(s);
                panic!(
                    "rank {rank} entered {} while other ranks wait in {waiting}",
                    entry.name()
                );
            }
        }
        let me = rank as usize;
        s.slots[me].arrival = Some((clock, entry));
        s.waiting += 1;
        if s.waiting == s.present {
            let release = self.complete(&mut s, rank);
            let exit = s.slots[me].exit.take();
            drop(s);
            release.finish();
            return exit.expect("the replay leaves every arrival an exit");
        }
        s.slots[me].waker = Some(thread::current());
        let generation = s.generation;
        drop(s);
        loop {
            thread::park();
            let mut s = self.lock();
            if s.generation != generation {
                return s.slots[me]
                    .exit
                    .take()
                    .expect("a completed generation leaves every waiter an exit");
            }
        }
    }

    /// `rank` is gone for good. A barrier it was the last one missing from
    /// completes; a collective fails for everyone parked in it.
    pub(crate) fn leave(&self, rank: u32) {
        let mut s = self.lock();
        s.present -= 1;
        s.gone.get_or_insert(rank);
        if s.waiting == 0 {
            return;
        }
        let barrier = s
            .slots
            .iter()
            .any(|slot| matches!(slot.arrival, Some((_, Entry::Barrier))));
        let release = if !barrier {
            self.fail(&mut s, rank)
        } else if s.waiting == s.present {
            self.complete(&mut s, rank)
        } else {
            return;
        };
        drop(s);
        // Only a collective's replay can panic, and none runs here.
        for waker in release.wakers {
            waker.unpark();
        }
    }

    /// Everyone present has arrived: replay the generation for every
    /// arrival and leave each its exit. `by` is the rank completing it; if
    /// its replay panics, every arrival gets `PeerGone { from: by }` and
    /// `by` re-raises the panic.
    fn complete(&self, s: &mut State, by: u32) -> Release {
        let arrivals: Vec<(usize, VirtualClock, Entry)> = s
            .slots
            .iter_mut()
            .enumerate()
            .filter_map(|(r, slot)| slot.arrival.take().map(|(c, e)| (r, c, e)))
            .collect();
        let ranks: Vec<usize> = arrivals.iter().map(|a| a.0).collect();
        match catch_unwind(AssertUnwindSafe(|| self.replay(arrivals))) {
            Ok(exits) => hand_out(s, ranks.into_iter().zip(exits.into_iter().map(Ok)), None),
            Err(panic) => {
                let gone = ranks
                    .into_iter()
                    .map(|r| (r, Err(SimError::PeerGone { from: by })));
                hand_out(s, gone, Some(panic))
            }
        }
    }

    /// End the generation without a result: every arrival gets
    /// `PeerGone { from }`.
    fn fail(&self, s: &mut State, from: u32) -> Release {
        let ranks: Vec<usize> = (0..s.slots.len())
            .filter(|&r| s.slots[r].arrival.take().is_some())
            .collect();
        let gone = ranks
            .into_iter()
            .map(|r| (r, Err(SimError::PeerGone { from })));
        hand_out(s, gone, None)
    }

    /// Run the generation's operation for its arrivals (in rank order).
    fn replay(&self, arrivals: Vec<(usize, VirtualClock, Entry)>) -> Vec<Exit> {
        let mut clocks = Vec::with_capacity(arrivals.len());
        let mut entries = Vec::with_capacity(arrivals.len());
        for (_, clock, entry) in arrivals {
            clocks.push(clock);
            entries.push(entry);
        }
        let mut wire = Wire::new(&self.map, &self.net, clocks, self.traced);
        let entries: Vec<Entry> = match entries[0] {
            Entry::Barrier => {
                let max = wire.clocks.iter().fold(0.0, |m: f64, c| m.max(c.now()));
                for clock in &mut wire.clocks {
                    clock.sync_to(max);
                }
                entries
            }
            Entry::Allreduce { .. } => {
                let (mut bufs, ops): (Vec<Vec<f64>>, Vec<ReduceOp>) = entries
                    .into_iter()
                    .map(|e| match e {
                        Entry::Allreduce { buf, op } => (buf, op),
                        _ => unreachable!("one operation per generation"),
                    })
                    .unzip();
                ring_allreduce(&mut wire, &mut bufs, &ops);
                let back = bufs.into_iter().zip(ops);
                back.map(|(buf, op)| Entry::Allreduce { buf, op }).collect()
            }
            Entry::Allgather { .. } => {
                let locals: Vec<Vec<f64>> = entries
                    .into_iter()
                    .map(|e| match e {
                        Entry::Allgather { buf } => buf,
                        _ => unreachable!("one operation per generation"),
                    })
                    .collect();
                let buf = ring_allgather(&mut wire, &locals);
                vec![Entry::Allgather { buf }; locals.len()]
            }
            Entry::Alltoall { .. } => {
                let sends: Vec<Vec<Vec<f64>>> = entries
                    .into_iter()
                    .map(|e| match e {
                        Entry::Alltoall { bufs } => bufs,
                        _ => unreachable!("one operation per generation"),
                    })
                    .collect();
                let recvs = pairwise_alltoall(&mut wire, sends);
                recvs
                    .into_iter()
                    .map(|bufs| Entry::Alltoall { bufs })
                    .collect()
            }
        };
        let Wire {
            clocks,
            traffic,
            events,
            ..
        } = wire;
        let mut events = events.into_iter();
        clocks
            .into_iter()
            .zip(entries)
            .zip(traffic)
            .map(|((clock, entry), traffic)| Exit {
                clock,
                entry,
                traffic,
                events: events.next().unwrap_or_default(),
            })
            .collect()
    }
}

/// Close the current generation: leave each rank its exit, and collect the
/// threads to wake.
fn hand_out(
    s: &mut State,
    exits: impl Iterator<Item = (usize, Result<Exit, SimError>)>,
    panic: Option<Box<dyn Any + Send>>,
) -> Release {
    let mut wakers = Vec::with_capacity(s.waiting);
    for (r, exit) in exits {
        let slot = &mut s.slots[r];
        slot.exit = Some(exit);
        wakers.extend(slot.waker.take());
    }
    s.waiting = 0;
    s.generation += 1;
    Release { wakers, panic }
}

/// The message layer of a replay: every rank's clock, tally and events,
/// advanced one collective step at a time exactly as the message path
/// advances them one message at a time.
struct Wire<'a> {
    map: &'a RankMap,
    net: &'a NetModel,
    clocks: Vec<VirtualClock>,
    traffic: Vec<Traffic>,
    /// Per rank; empty in an untraced world.
    events: Vec<Vec<Replayed>>,
    /// The post time of each rank's message in the current step.
    sent_at: Vec<f64>,
}

impl<'a> Wire<'a> {
    fn new(map: &'a RankMap, net: &'a NetModel, clocks: Vec<VirtualClock>, traced: bool) -> Self {
        let p = clocks.len();
        Wire {
            map,
            net,
            traffic: vec![Traffic::default(); p],
            events: if traced {
                vec![Vec::new(); p]
            } else {
                Vec::new()
            },
            sent_at: vec![0.0; p],
            clocks,
        }
    }

    /// One step: every rank `r` sends `bytes(r)` to `dst(r)`, then receives
    /// the message `src(r)` sent it in this step (`dst(src(r)) == r`).
    /// Sends never wait, so all of a step's sends precede its receives.
    fn step(
        &mut self,
        dst: impl Fn(usize) -> usize,
        src: impl Fn(usize) -> usize,
        bytes: impl Fn(usize) -> u64,
    ) {
        let traced = !self.events.is_empty();
        for r in 0..self.clocks.len() {
            let (to, n) = (dst(r), bytes(r));
            let (transfer, regime) = link_time(self.map, self.net, r as u32, to as u32, n);
            let clock = &mut self.clocks[r];
            let t0 = clock.now();
            clock.advance_comm(transfer);
            self.sent_at[r] = clock.now();
            self.traffic[r].msgs_send += 1;
            self.traffic[r].bytes_send += n;
            if traced {
                self.events[r].push((
                    t0,
                    clock.now(),
                    EventKind::Send {
                        peer: to as u32,
                        bytes: n,
                        regime,
                        degraded: false,
                    },
                ));
            }
        }
        for r in 0..self.clocks.len() {
            let (from, n) = (src(r), bytes(src(r)));
            let (transfer, regime) = link_time(self.map, self.net, r as u32, from as u32, n);
            let sent_at = self.sent_at[from];
            let clock = &mut self.clocks[r];
            let t0 = clock.now();
            let wait_s = (sent_at - t0).max(0.0);
            clock.recv_until(sent_at, transfer);
            self.traffic[r].msgs_recv += 1;
            self.traffic[r].bytes_recv += n;
            if traced {
                self.events[r].push((
                    t0,
                    clock.now(),
                    EventKind::Recv {
                        peer: from as u32,
                        bytes: n,
                        regime,
                        wait_s,
                        transfer_s: transfer,
                    },
                ));
            }
        }
    }
}

/// `(&mut v[a], &v[b])` for `a != b`.
fn pair<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// Ring allreduce (reduce-scatter, then allgather of the reduced chunks)
/// of `p > 1` non-empty buffers of one length: rank `r` sends to
/// `r + 1` and folds what `r − 1` sent into its own values with its own
/// `op`.
fn ring_allreduce(wire: &mut Wire, bufs: &mut [Vec<f64>], ops: &[ReduceOp]) {
    let p = bufs.len();
    let n = bufs[0].len();
    assert!(
        bufs.iter().all(|b| b.len() == n),
        "allreduce buffers differ in length"
    );
    let chunk = |i: usize| block_range(n, p, i);
    let bytes = |i: usize| (chunk(i).len() * 8) as u64;
    let right = |r: usize| (r + 1) % p;
    let left = |r: usize| (r + p - 1) % p;
    // Reduce-scatter. A rank's write (chunk r − s − 1) is never the chunk
    // its right neighbour reads from it in the same step (chunk r − s).
    for s in 0..p - 1 {
        wire.step(right, left, |r| bytes((r + p - s) % p));
        for r in 0..p {
            let range = chunk((r + p - s - 1) % p);
            let (mine, incoming) = pair(bufs, r, left(r));
            for (dst, src) in mine[range.clone()].iter_mut().zip(&incoming[range]) {
                *dst = ops[r].apply(*dst, *src);
            }
        }
    }
    // Allgather of the reduced chunks.
    for s in 0..p - 1 {
        wire.step(right, left, |r| bytes((r + 1 + p - s) % p));
        for r in 0..p {
            let range = chunk((r + p - s) % p);
            let (mine, incoming) = pair(bufs, r, left(r));
            mine[range.clone()].copy_from_slice(&incoming[range]);
        }
    }
}

/// Ring allgather of `p > 1` contributions of one length: every block
/// travels `p − 1` hops to the right. Returns the concatenation in rank
/// order.
fn ring_allgather(wire: &mut Wire, locals: &[Vec<f64>]) -> Vec<f64> {
    let p = locals.len();
    let n = locals[0].len();
    assert!(
        locals.iter().all(|b| b.len() == n),
        "allgather contributions differ in length"
    );
    for _ in 0..p - 1 {
        wire.step(|r| (r + 1) % p, |r| (r + p - 1) % p, |_| (n * 8) as u64);
    }
    locals.concat()
}

/// Pairwise alltoall of `p > 1` ranks: in round `k`, rank `r` sends its
/// buffer for `r + k` and receives the one `r − k` holds for it.
fn pairwise_alltoall(wire: &mut Wire, mut sends: Vec<Vec<Vec<f64>>>) -> Vec<Vec<Vec<f64>>> {
    let p = sends.len();
    for k in 1..p {
        let dst = |r: usize| (r + k) % p;
        wire.step(
            dst,
            |r| (r + p - k) % p,
            |r| (sends[r][dst(r)].len() * 8) as u64,
        );
    }
    (0..p)
        .map(|r| {
            (0..p)
                .map(|from| std::mem::take(&mut sends[from][r]))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use jubench_cluster::{Machine, Placement, Roofline};

    use super::*;

    fn rendezvous(size: usize) -> Arc<Rendezvous> {
        let machine = Machine::juwels_booster().partition(1);
        let map = RankMap::Uniform {
            placement: Placement::per_gpu(machine),
            device: Roofline::new(machine.node.gpu),
        };
        Arc::new(Rendezvous::new(size, map, machine.net, false))
    }

    fn at(t: f64) -> VirtualClock {
        let mut clock = VirtualClock::new();
        clock.advance_compute(t);
        clock
    }

    /// Run `f(rank)` on one thread per rank; the outcomes in rank order.
    fn on_threads<T: Send + 'static>(
        size: usize,
        f: impl Fn(u32) -> T + Send + Sync + 'static,
    ) -> Vec<std::thread::Result<T>> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..size as u32)
            .map(|rank| {
                let f = Arc::clone(&f);
                thread::spawn(move || f(rank))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    }

    #[test]
    fn a_barrier_returns_the_maximum() {
        let rv = rendezvous(3);
        let now = on_threads(3, move |rank| {
            let exit = rv.meet(rank, at(f64::from(rank)), Entry::Barrier);
            exit.unwrap().clock.now()
        });
        for t in now {
            assert_eq!(t.unwrap(), 2.0);
        }
    }

    #[test]
    fn a_barrier_resets_between_generations() {
        let rv = rendezvous(2);
        let now = on_threads(2, move |rank| {
            let (first, second) = if rank == 0 { (5.0, 1.0) } else { (3.0, 2.0) };
            let a = rv.meet(rank, at(first), Entry::Barrier).unwrap();
            let b = rv.meet(rank, at(second), Entry::Barrier).unwrap();
            (a.clock.now(), b.clock.now())
        });
        for t in now {
            assert_eq!(t.unwrap(), (5.0, 2.0));
        }
    }

    #[test]
    fn a_panicking_replay_releases_the_parked_ranks() {
        // Contributions of different lengths: whichever rank arrives last
        // panics in the replay.
        let rv = rendezvous(3);
        let outcomes = on_threads(3, move |rank| {
            let buf = vec![1.0; rank as usize];
            rv.meet(rank, at(0.0), Entry::Allgather { buf }).map(drop)
        });
        let panicked: Vec<usize> = (0..3).filter(|&r| outcomes[r].is_err()).collect();
        assert_eq!(panicked.len(), 1, "exactly the replaying rank panics");
        let from = panicked[0] as u32;
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            if rank != from as usize {
                assert_eq!(outcome.unwrap(), Err(SimError::PeerGone { from }));
            }
        }
    }
}
