//! The [`World`]: construction of communicators and thread-based execution
//! of rank closures.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use jubench_cluster::{Machine, NetModel, Placement, Roofline};
use jubench_faults::FaultPlan;
use jubench_trace::TraceSink;

use crate::clock::ClockStats;
use crate::comm::Comm;
use crate::rankmap::RankMap;
use crate::rendezvous::Rendezvous;

/// Result of one rank's execution: the closure's return value plus the
/// rank's final virtual-clock statistics.
#[derive(Debug, Clone)]
pub struct RankResult<T> {
    pub rank: u32,
    pub value: T,
    pub clock: ClockStats,
}

/// A simulated machine (or MSA machine pair) on which rank programs can
/// be launched.
#[derive(Clone)]
pub struct World {
    map: RankMap,
    net: NetModel,
    /// Fault injection: a seeded, declarative schedule of faults every
    /// communicator consults at operation boundaries — degraded/flapping
    /// links, slow nodes, message drops, rank crashes. `None` (and the
    /// empty plan) is the unfaulted machine.
    plan: Option<Arc<FaultPlan>>,
    /// Opt-in observability: every communicator records structured events
    /// here. `None` (the default) keeps all instrumentation hooks no-ops.
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("map", &self.map)
            .field("net", &self.net)
            .field("fault_plan", &self.plan)
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

impl World {
    /// One rank per GPU (the normal Booster launch configuration). The
    /// machine's own network model drives the communication clocks, so
    /// worlds on different catalog backends time differently.
    pub fn new(machine: Machine) -> Self {
        World {
            map: RankMap::Uniform {
                placement: Placement::per_gpu(machine),
                device: Roofline::new(machine.node.gpu),
            },
            net: machine.net,
            plan: None,
            sink: None,
        }
    }

    /// One rank per node (CPU-only codes: NAStJA, DynQCD).
    pub fn per_node(machine: Machine) -> Self {
        World {
            map: RankMap::Uniform {
                placement: Placement::per_node(machine),
                device: Roofline::new(jubench_cluster::GpuSpec::epyc_rome_node()),
            },
            net: machine.net,
            plan: None,
            sink: None,
        }
    }

    /// An MSA world spanning the Cluster and Booster modules (§II-B): the
    /// first `cluster_nodes` ranks are CPU-node ranks, the rest GPU ranks.
    pub fn msa(cluster_nodes: u32, booster_nodes: u32) -> Self {
        World {
            map: RankMap::msa(cluster_nodes, booster_nodes),
            net: NetModel::juwels_booster(),
            plan: None,
            sink: None,
        }
    }

    /// Inject a full fault plan: every communicator of subsequent runs
    /// consults it at operation boundaries. Replaces any previous plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(Arc::new(plan));
        self
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// Override the kernel efficiencies of the device roofline (uniform
    /// worlds only).
    pub fn with_efficiencies(mut self, flop: f64, bw: f64) -> Self {
        if let RankMap::Uniform { device, .. } = &mut self.map {
            *device = device.with_efficiencies(flop, bw);
        }
        self
    }

    /// Install a trace sink: every communicator of subsequent runs records
    /// compute spans, point-to-point transfers, and collectives into it.
    /// Without a recorder installed the instrumentation hooks are no-ops.
    pub fn with_recorder(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Number of ranks this world launches.
    pub fn ranks(&self) -> u32 {
        self.map.ranks()
    }

    /// The rank map (placement + devices).
    pub fn rank_map(&self) -> &RankMap {
        &self.map
    }

    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// Launch one thread per rank, run `f`, and collect the results in rank
    /// order. Panics in a rank are propagated with the rank number.
    ///
    /// Rank programs block on each other (channels, the rendezvous),
    /// so they execute on counted *dedicated* threads via
    /// [`jubench_pool::run_dedicated`], never on the bounded work-stealing
    /// pool — a pool with fewer workers than ranks would deadlock the
    /// first collective.
    pub fn run<T, F>(&self, f: F) -> Vec<RankResult<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let n = self.ranks() as usize;
        assert!(n >= 1, "world needs at least one rank");
        // channels[from][to]
        let mut senders: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut receivers: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rx_matrix: Vec<Vec<Option<_>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (from, row) in senders.iter_mut().enumerate() {
            for to in 0..n {
                let (s, r) = channel();
                row.push(s);
                rx_matrix[to][from] = Some(r);
            }
        }
        for (to, row) in rx_matrix.into_iter().enumerate() {
            receivers[to] = row.into_iter().map(|r| r.unwrap()).collect();
        }

        let rendezvous = Arc::new(Rendezvous::new(n, self.map, self.net, self.sink.is_some()));
        // Each rank claims its own channel endpoints out of this handoff
        // table; `run_dedicated` shares one `Fn(u32)` across all ranks.
        let endpoints: Vec<Mutex<Option<(Vec<_>, Vec<_>)>>> = senders
            .drain(..)
            .zip(receivers.drain(..))
            .map(|pair| Mutex::new(Some(pair)))
            .collect();

        let outcomes = jubench_pool::run_dedicated(n as u32, |rank| {
            let (tx, rx) = endpoints[rank as usize]
                .lock()
                .unwrap()
                .take()
                .expect("rank endpoints claimed once");
            let mut comm = Comm::new(
                rank,
                n as u32,
                tx,
                rx,
                self.map,
                self.net,
                Arc::clone(&rendezvous),
            )
            .with_fault_plan(self.plan.clone())
            .with_sink(self.sink.clone());
            let value = f(&mut comm);
            RankResult {
                rank,
                value,
                clock: comm.stats(),
            }
        });

        outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, outcome)| match outcome {
                Ok(res) => res,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "unknown panic".into());
                    panic!("rank {rank} panicked: {msg}");
                }
            })
            .collect()
    }

    /// Run and return the virtual makespan: the maximum rank clock total,
    /// together with the maximum compute and communication shares.
    pub fn run_timed<T, F>(&self, f: F) -> (Vec<RankResult<T>>, ClockStats)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let results = self.run(f);
        let makespan = makespan(&results);
        (results, makespan)
    }
}

/// Aggregate per-rank clocks into a makespan: total = max over ranks of the
/// rank totals; the compute/comm split is taken from the critical rank.
pub fn makespan<T>(results: &[RankResult<T>]) -> ClockStats {
    results
        .iter()
        .map(|r| r.clock)
        .max_by(|a, b| a.total_s().partial_cmp(&b.total_s()).unwrap())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;

    fn small_world(nodes: u32) -> World {
        World::new(Machine::juwels_booster().partition(nodes))
    }

    #[test]
    fn ranks_counts() {
        assert_eq!(small_world(2).ranks(), 8);
        assert_eq!(
            World::per_node(Machine::juwels_booster().partition(3)).ranks(),
            3
        );
    }

    #[test]
    fn ring_message_round_trip() {
        let w = small_world(1); // 4 ranks
        let results = w.run(|comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            comm.send_f64(right, &[comm.rank() as f64]).unwrap();
            let got = comm.recv_f64(left).unwrap();
            got[0]
        });
        for r in &results {
            let left = (r.rank + 4 - 1) % 4;
            assert_eq!(r.value, left as f64);
            assert!(r.clock.comm_s > 0.0);
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let w = small_world(2); // 8 ranks
        let results = w.run(|comm| {
            let mut buf: Vec<f64> = (0..10).map(|i| (comm.rank() * 10 + i) as f64).collect();
            comm.allreduce_f64(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        // Element i: sum over r of (10 r + i) = 10*28 + 8 i.
        for r in &results {
            for (i, v) in r.value.iter().enumerate() {
                assert_eq!(*v, 280.0 + 8.0 * i as f64, "rank {} elem {}", r.rank, i);
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let w = small_world(1);
        let results = w.run(|comm| {
            let mx = comm
                .allreduce_scalar(comm.rank() as f64, ReduceOp::Max)
                .unwrap();
            let mn = comm
                .allreduce_scalar(comm.rank() as f64, ReduceOp::Min)
                .unwrap();
            (mx, mn)
        });
        for r in &results {
            assert_eq!(r.value, (3.0, 0.0));
        }
    }

    #[test]
    fn allreduce_with_buffer_smaller_than_ranks() {
        let w = small_world(2); // 8 ranks, 3-element buffer
        let results = w.run(|comm| {
            let mut buf = vec![1.0, 2.0, 3.0];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for r in &results {
            assert_eq!(r.value, vec![8.0, 16.0, 24.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let w = small_world(1);
        let results = w.run(|comm| comm.allgather_f64(&[comm.rank() as f64; 2]).unwrap());
        for r in &results {
            assert_eq!(r.value, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        }
    }

    #[test]
    fn alltoall_delivers_personalized_buffers() {
        let w = small_world(1);
        let results = w.run(|comm| {
            let p = comm.size();
            let send: Vec<Vec<f64>> = (0..p)
                .map(|to| vec![(comm.rank() * 100 + to) as f64])
                .collect();
            comm.alltoall_f64(send).unwrap()
        });
        for r in &results {
            for (from, buf) in r.value.iter().enumerate() {
                assert_eq!(buf, &vec![(from as u32 * 100 + r.rank) as f64]);
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let w = small_world(2);
        let results = w.run(|comm| {
            let mut buf = if comm.rank() == 5 {
                vec![42.0, 7.0]
            } else {
                Vec::new()
            };
            comm.broadcast_f64(5, &mut buf).unwrap();
            buf
        });
        for r in &results {
            assert_eq!(r.value, vec![42.0, 7.0]);
        }
    }

    #[test]
    fn gather_collects_at_root() {
        let w = small_world(1);
        let results = w.run(|comm| comm.gather_f64(2, &[comm.rank() as f64]).unwrap());
        for r in &results {
            if r.rank == 2 {
                let all = r.value.as_ref().unwrap();
                assert_eq!(all.len(), 4);
                for (i, b) in all.iter().enumerate() {
                    assert_eq!(b, &vec![i as f64]);
                }
            } else {
                assert!(r.value.is_none());
            }
        }
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let w = small_world(1);
        let results = w.run(|comm| {
            // Rank 3 computes for 10 virtual seconds, others are idle.
            if comm.rank() == 3 {
                comm.advance_compute(10.0);
            }
            comm.barrier();
            comm.now()
        });
        for r in &results {
            assert!(
                (r.value - 10.0).abs() < 1e-9,
                "rank {} at {}",
                r.rank,
                r.value
            );
        }
    }

    #[test]
    fn receive_respects_causality() {
        let w = small_world(1);
        let results = w.run(|comm| {
            if comm.rank() == 0 {
                comm.advance_compute(5.0);
                comm.send_f64(1, &[1.0]).unwrap();
                0.0
            } else if comm.rank() == 1 {
                comm.recv_f64(0).unwrap();
                comm.now()
            } else {
                0.0
            }
        });
        // Rank 1 cannot finish its receive before rank 0's virtual send
        // time (5.0 + transfer).
        assert!(results[1].value > 5.0);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let w = small_world(1);
        let results = w.run(|comm| {
            if comm.rank() == 0 {
                comm.send_u64(1, &[42]).unwrap();
                Ok(vec![])
            } else if comm.rank() == 1 {
                comm.recv_f64(0)
            } else {
                Ok(vec![])
            }
        });
        assert!(matches!(
            results[1].value,
            Err(crate::error::SimError::TypeMismatch { from: 0, .. })
        ));
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let w = small_world(1);
        let results = w.run(|comm| {
            if comm.rank() == 0 {
                comm.send_f64_tag(1, 7, &[1.0]).unwrap();
                Ok(vec![])
            } else if comm.rank() == 1 {
                comm.recv_f64_tag(0, 9)
            } else {
                Ok(vec![])
            }
        });
        assert!(matches!(
            results[1].value,
            Err(crate::error::SimError::TagMismatch {
                from: 0,
                expected: 9,
                found: 7
            })
        ));
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let w = small_world(1);
        let results = w.run(|comm| comm.send_f64(99, &[1.0]));
        assert!(matches!(
            results[0].value,
            Err(crate::error::SimError::InvalidRank { rank: 99, size: 4 })
        ));
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_is_propagated_with_rank() {
        let w = small_world(1);
        w.run(|comm| {
            if comm.rank() == 2 {
                panic!("injected failure");
            }
        });
    }

    #[test]
    fn makespan_is_max_rank_clock() {
        let w = small_world(1);
        let (_, span) = w.run_timed(|comm| {
            comm.advance_compute(comm.rank() as f64);
        });
        assert_eq!(span.compute_s, 3.0);
    }

    #[test]
    fn recorder_reproduces_clock_stats_exactly() {
        use jubench_trace::{Recorder, TraceEvent};
        let rec = Arc::new(Recorder::new());
        let w = small_world(2).with_recorder(rec.clone());
        let results = w.run(|comm| {
            comm.advance_compute(0.5 * (comm.rank() + 1) as f64);
            let peer = comm.rank() ^ 1;
            comm.sendrecv_f64(peer, &[comm.rank() as f64; 100]).unwrap();
            let mut buf = vec![comm.rank() as f64; 16];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum).unwrap();
            comm.barrier();
        });
        let events = rec.take_events();
        assert!(!events.is_empty());
        for r in &results {
            let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.rank == r.rank).collect();
            let compute: f64 = mine.iter().map(|e| e.compute_seconds()).sum();
            let comm: f64 = mine.iter().map(|e| e.comm_seconds()).sum();
            assert!(
                (compute - r.clock.compute_s).abs() < 1e-12,
                "rank {} compute {} vs {}",
                r.rank,
                compute,
                r.clock.compute_s
            );
            assert!(
                (comm - r.clock.comm_s).abs() < 1e-9,
                "rank {} comm {} vs {}",
                r.rank,
                comm,
                r.clock.comm_s
            );
        }
    }

    #[test]
    fn untraced_world_records_nothing_and_behaves_identically() {
        let run = |w: &World| {
            w.run(|comm| {
                let peer = comm.rank() ^ 1;
                comm.sendrecv_f64(peer, &[1.0; 64]).unwrap();
                comm.now()
            })
        };
        let plain = small_world(1);
        let rec = Arc::new(jubench_trace::Recorder::new());
        let traced = small_world(1).with_recorder(rec.clone());
        let a = run(&plain);
        let b = run(&traced);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
            assert_eq!(x.clock, y.clock);
        }
        assert!(!rec.is_empty(), "traced world recorded events");
    }

    #[test]
    fn degraded_link_is_flagged_in_trace() {
        use jubench_trace::EventKind;
        let rec = Arc::new(jubench_trace::Recorder::new());
        let w = small_world(1)
            .with_fault_plan(FaultPlan::new(0).with_degraded_link(0, 1, 8.0))
            .with_recorder(rec.clone());
        w.run(|comm| {
            if comm.rank() == 0 {
                comm.send_f64(1, &[1.0; 32]).unwrap();
                comm.send_f64(2, &[1.0; 32]).unwrap();
            } else if comm.rank() == 1 || comm.rank() == 2 {
                comm.recv_f64(0).unwrap();
            }
        });
        let events = rec.take_events();
        let degraded_of = |peer: u32| {
            events
                .iter()
                .find_map(|e| match e.kind {
                    EventKind::Send {
                        peer: p, degraded, ..
                    } if e.rank == 0 && p == peer => Some(degraded),
                    _ => None,
                })
                .unwrap()
        };
        assert!(degraded_of(1), "0->1 crosses the degraded pair");
        assert!(!degraded_of(2), "0->2 is healthy");
    }

    #[test]
    fn slow_node_stretches_compute_spans() {
        let w = small_world(2); // 8 ranks on 2 nodes (4 ranks each)
        let faulted = w
            .clone()
            .with_fault_plan(FaultPlan::new(1).with_slow_node(1, 4.0));
        let results = faulted.run(|comm| {
            comm.advance_compute(1.0);
            comm.now()
        });
        for r in &results {
            let expect = if r.rank >= 4 { 4.0 } else { 1.0 };
            assert_eq!(r.value, expect, "rank {}", r.rank);
        }
    }

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let run = |w: &World| {
            w.run(|comm| {
                comm.advance_compute(0.3 * (comm.rank() + 1) as f64);
                let mut buf = vec![comm.rank() as f64; 32];
                comm.allreduce_f64(&mut buf, ReduceOp::Sum).unwrap();
                comm.stats()
            })
        };
        let plain = run(&small_world(2));
        let empty = run(&small_world(2).with_fault_plan(FaultPlan::new(99)));
        for (a, b) in plain.iter().zip(&empty) {
            assert_eq!(a.value, b.value);
            assert_eq!(a.clock, b.clock);
        }
    }

    #[test]
    fn dropped_message_times_out_and_charges_virtual_time() {
        // Certain drop 0 → 1: the receiver gets a tombstone, not a payload.
        let w = small_world(1).with_fault_plan(
            FaultPlan::new(5)
                .with_message_drop(0, 1, 1.0)
                .with_recv_timeout(0.25),
        );
        let results = w.run(|comm| {
            if comm.rank() == 0 {
                comm.send_f64(1, &[1.0; 8]).map(|_| 0.0)
            } else if comm.rank() == 1 {
                let err = comm.recv_f64(0).unwrap_err();
                assert_eq!(err, crate::error::SimError::Timeout { from: 0 });
                Ok(comm.now())
            } else {
                Ok(0.0)
            }
        });
        // Rank 1 waited until the (lost) send's post time plus the timeout.
        let t = results[1].value.clone().unwrap();
        assert!(t > 0.25, "timeout charged virtual time, got {t}");
    }

    #[test]
    fn reliable_pair_survives_drops() {
        let policy = jubench_faults::RetryPolicy::new(20, 0.01);
        let w = small_world(1).with_fault_plan(FaultPlan::new(7).with_message_drop(0, 1, 0.5));
        let results = w.run(move |comm| {
            if comm.rank() == 0 {
                let attempts = comm.send_f64_reliable(1, &[42.0; 4], policy).unwrap();
                (attempts, vec![])
            } else if comm.rank() == 1 {
                let (data, attempts) = comm.recv_f64_reliable(0, policy).unwrap();
                (attempts, data)
            } else {
                (0, vec![])
            }
        });
        let (send_attempts, _) = &results[0].value;
        let (recv_attempts, data) = &results[1].value;
        assert_eq!(data, &vec![42.0; 4]);
        assert_eq!(send_attempts, recv_attempts, "both sides stay in step");
        assert!(*send_attempts >= 1 && *send_attempts <= 20);
    }

    #[test]
    fn exhausted_retries_error_on_both_sides() {
        let policy = jubench_faults::RetryPolicy::new(3, 0.01);
        let w = small_world(1).with_fault_plan(FaultPlan::new(7).with_message_drop(0, 1, 1.0));
        let results = w.run(move |comm| {
            if comm.rank() == 0 {
                comm.send_f64_reliable(1, &[1.0], policy).map(|_| ())
            } else if comm.rank() == 1 {
                comm.recv_f64_reliable(0, policy).map(|_| ())
            } else {
                Ok(())
            }
        });
        use crate::error::SimError;
        assert_eq!(
            results[0].value,
            Err(SimError::RetriesExhausted {
                peer: 1,
                attempts: 3
            })
        );
        assert_eq!(
            results[1].value,
            Err(SimError::RetriesExhausted {
                peer: 0,
                attempts: 3
            })
        );
    }

    #[test]
    fn crashed_rank_fails_operations_and_peers_see_it_gone() {
        let w = small_world(1).with_fault_plan(FaultPlan::new(0).with_rank_crash(2, 1.0));
        let results = w.run(|comm| {
            if comm.rank() == 2 {
                comm.advance_compute(2.0); // sail past the crash time
                let err = comm.send_f64(0, &[1.0]).unwrap_err();
                Err(err)
            } else if comm.rank() == 0 {
                // Rank 2's send never happened; its channel closes when it
                // returns.
                Err(comm.recv_f64(2).unwrap_err())
            } else {
                Ok(())
            }
        });
        use crate::error::SimError;
        assert_eq!(results[2].value, Err(SimError::RankCrashed { rank: 2 }));
        assert_eq!(results[0].value, Err(SimError::PeerGone { from: 2 }));
    }

    #[test]
    fn crash_arrival_detection_matches_cached_scalar_semantics() {
        // Detection happens at the first operation boundary with
        // now >= at_s, the Crash marker carries the plan's at_s
        // verbatim, and it is emitted exactly once.
        use jubench_trace::{EventKind, Recorder};
        let at_s = 1.0;
        let rec = Arc::new(Recorder::new());
        let w = small_world(1)
            .with_fault_plan(FaultPlan::new(0).with_rank_crash(2, at_s))
            .with_recorder(rec.clone());
        let results = w.run(|comm| {
            if comm.rank() == 2 {
                // Three op boundaries past the crash time: only the first
                // may emit the marker.
                comm.advance_compute(0.75); // now < at_s: survives
                comm.send_f64(3, &[0.5]).expect("before the crash");
                comm.advance_compute(0.75); // now = 1.5 >= at_s
                let e1 = comm.send_f64(3, &[1.0]).unwrap_err();
                let e2 = comm.send_f64(3, &[2.0]).unwrap_err();
                (comm.now(), Some((e1, e2)))
            } else if comm.rank() == 3 {
                let got = comm.recv_f64(2).expect("pre-crash send arrives");
                assert_eq!(got, vec![0.5]);
                (comm.now(), None)
            } else {
                (comm.now(), None)
            }
        });
        use crate::error::SimError;
        let (t_detect, errs) = &results[2].value;
        let (e1, e2) = errs.clone().unwrap();
        assert_eq!(e1, SimError::RankCrashed { rank: 2 });
        assert_eq!(e2, SimError::RankCrashed { rank: 2 });
        assert!(*t_detect >= at_s);
        let crashes: Vec<_> = rec
            .take_events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Crash { .. }))
            .collect();
        assert_eq!(crashes.len(), 1, "marker emitted exactly once");
        assert_eq!(crashes[0].rank, 2);
        assert!(matches!(crashes[0].kind, EventKind::Crash { at_s: a } if a == at_s));
    }

    #[test]
    fn fault_runs_are_reproducible_per_seed() {
        let run = |seed: u64| {
            let w =
                small_world(1).with_fault_plan(FaultPlan::new(seed).with_message_drop(0, 1, 0.5));
            let policy = jubench_faults::RetryPolicy::new(50, 0.01);
            w.run(move |comm| {
                if comm.rank() == 0 {
                    comm.send_f64_reliable(1, &[1.0; 16], policy).unwrap();
                } else if comm.rank() == 1 {
                    comm.recv_f64_reliable(0, policy).unwrap();
                }
                comm.stats()
            })
        };
        let a = run(11);
        let b = run(11);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.clock, y.clock);
        }
        // A different seed draws a different drop pattern (with 50 %
        // drops over 50 attempts this differs with overwhelming odds).
        let c = run(12);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.clock != y.clock),
            "different seeds should perturb the run"
        );
    }

    #[test]
    fn sendrecv_exchanges_between_pairs() {
        let w = small_world(1);
        let results = w.run(|comm| {
            let peer = comm.rank() ^ 1;
            comm.sendrecv_f64(peer, &[comm.rank() as f64]).unwrap()[0]
        });
        for r in &results {
            assert_eq!(r.value, (r.rank ^ 1) as f64);
        }
    }

    #[test]
    fn inter_node_comm_costs_more_than_intra_node() {
        // Same exchange volume; 8 ranks on 2 nodes vs 4 ranks on 1 node.
        let data = vec![0.0f64; 1 << 16];
        let intra = {
            let w = small_world(1);
            let d = data.clone();
            let (_, span) = w.run_timed(move |comm| {
                let peer = comm.rank() ^ 1; // same node always
                comm.sendrecv_f64(peer, &d).unwrap();
            });
            span.comm_s
        };
        let inter = {
            let w = small_world(2);
            let (_, span) = w.run_timed(move |comm| {
                let peer = comm.rank() ^ 4; // always the other node
                comm.sendrecv_f64(peer, &data).unwrap();
            });
            span.comm_s
        };
        assert!(inter > 2.0 * intra, "inter {inter} vs intra {intra}");
    }
}
