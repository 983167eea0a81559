//! Property-style tests on the core invariants of the suite's substrates.
//!
//! Previously driven by `proptest`; now a deterministic sweep over seeded
//! pseudo-random cases (the suite carries no external dependencies so it
//! builds in offline containers). Each test exercises the same invariant
//! over dozens of generated inputs.

use jubench::cluster::{
    balanced_dims3, balanced_dims4, pattern_time, CommPattern, Machine, NetModel, Placement,
};
use jubench::kernels::{
    cg::{cg_solve, DenseOp},
    fft_1d, ifft_1d, lu_factor, lu_solve, rank_rng, thomas_solve,
    tridiag::tridiag_apply,
    Matrix, C64,
};
use jubench::prelude::*;

/// FFT round trip is the identity for any power-of-two length.
#[test]
fn fft_round_trip() {
    for case in 0..64u64 {
        let mut rng = rank_rng(0xF0 + case, 0);
        let log_n = rng.gen_range(1usize..9);
        let n = 1usize << log_n;
        let mut data: Vec<C64> = (0..n)
            .map(|_| C64::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect();
        let original = data.clone();
        fft_1d(&mut data);
        ifft_1d(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-9, "case {case}");
        }
    }
}

/// Parseval: the FFT conserves energy (up to the 1/n convention).
#[test]
fn fft_parseval() {
    for case in 0..64u64 {
        let mut rng = rank_rng(0x9E + case, 0);
        let log_n = rng.gen_range(1usize..9);
        let n = 1usize << log_n;
        let data: Vec<C64> = (0..n)
            .map(|_| C64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = data;
        fft_1d(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() <= 1e-9 * time_energy.max(1.0),
            "case {case}"
        );
    }
}

/// LU solves random well-conditioned systems.
#[test]
fn lu_solves_diagonally_dominant_systems() {
    for case in 0..48u64 {
        let mut rng = rank_rng(0x1B + case, 1);
        let n = rng.gen_range(2usize..24);
        let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        for i in 0..n {
            a[(i, i)] += n as f64; // diagonal dominance
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| a.row(i).iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let f = lu_factor(&a).expect("diagonally dominant ⇒ nonsingular");
        let x = lu_solve(&f, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "case {case}");
        }
    }
}

/// The Thomas solver inverts diagonally dominant tridiagonal systems.
#[test]
fn thomas_inverts() {
    for case in 0..48u64 {
        let mut rng = rank_rng(0x7A + case, 2);
        let n = rng.gen_range(1usize..64);
        let lower: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let upper: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| 3.0 + lower[i].abs() + upper[i].abs())
            .collect();
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let rhs = tridiag_apply(&lower, &diag, &upper, &x_true);
        let x = thomas_solve(&lower, &diag, &upper, &rhs);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "case {case}");
        }
    }
}

/// CG converges on SPD systems built as AᵀA + n·I.
#[test]
fn cg_converges_on_spd() {
    for case in 0..32u64 {
        let mut rng = rank_rng(0xC6 + case, 3);
        let n = rng.gen_range(2usize..16);
        let m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += m[(k, i)] * m[(k, j)];
                }
                a[(i, j)] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x = vec![0.0; n];
        let res = cg_solve(&DenseOp(a), &b, &mut x, 1e-10, 10 * n + 20);
        assert!(
            res.converged,
            "case {case}: residual {}",
            res.relative_residual
        );
    }
}

/// Balanced factorizations always multiply back to n.
#[test]
fn balanced_dims_factorize() {
    for n in 1u32..2048 {
        let d3 = balanced_dims3(n);
        assert_eq!(d3.iter().product::<u32>(), n);
        let d4 = balanced_dims4(n);
        assert_eq!(d4.iter().product::<u32>(), n);
    }
}

/// Communication pattern costs are non-negative, finite, and increase
/// (weakly) with payload size.
#[test]
fn pattern_costs_are_monotone_in_bytes() {
    for case in 0..64u64 {
        let mut rng = rank_rng(0xAB + case, 4);
        let nodes = rng.gen_range(1u32..936);
        let kb = rng.gen_range(1u64..4096);
        let machine = Machine::juwels_booster().partition(nodes);
        let placement = Placement::per_gpu(machine);
        let net = NetModel::juwels_booster();
        let small = CommPattern::AllReduce { bytes: kb * 1024 };
        let large = CommPattern::AllReduce { bytes: kb * 2048 };
        let t_small = pattern_time(small, &placement, &net);
        let t_large = pattern_time(large, &placement, &net);
        assert!(t_small.is_finite() && t_small >= 0.0, "case {case}");
        assert!(t_large >= t_small, "case {case}");
    }
}

/// The congestion factor is bounded and monotone non-increasing.
#[test]
fn congestion_bounds() {
    let net = NetModel::juwels_booster();
    let mut rng = rank_rng(0xC0, 5);
    for case in 0..128 {
        let a = rng.gen_range(1u32..936);
        let b = rng.gen_range(1u32..936);
        let (lo, hi) = (a.min(b), a.max(b));
        let f_lo = net.congestion_factor(lo);
        let f_hi = net.congestion_factor(hi);
        assert!((net.congestion_floor..=1.0).contains(&f_lo), "case {case}");
        assert!(f_hi <= f_lo, "case {case}");
    }
}

/// Memory-variant sizing: fractions are ordered and the best fit never
/// exceeds the proposed memory.
#[test]
fn variant_best_fit_fits() {
    for gib in 1u64..512 {
        let proposed = gib << 30;
        let reference = 40u64 << 30;
        if let Some(v) = MemoryVariant::best_fit(&MemoryVariant::ALL, reference, proposed) {
            assert!(v.target_bytes(reference) <= proposed);
            // No larger offered variant would also fit.
            for bigger in MemoryVariant::ALL.into_iter().filter(|b| *b > v) {
                assert!(bigger.target_bytes(reference) > proposed);
            }
        } else {
            assert!(MemoryVariant::Tiny.target_bytes(reference) > proposed);
        }
    }
}

/// JUQCS memory law: monotone, exact powers of two.
#[test]
fn juqcs_memory_law() {
    use jubench::apps_quantum::{max_qubits, state_bytes};
    for n in 1u32..100 {
        assert_eq!(state_bytes(n), 16u128 << n);
        assert_eq!(max_qubits(state_bytes(n)), n);
        assert_eq!(max_qubits(state_bytes(n) - 1), n - 1);
    }
}

/// Parameter substitution is idempotent: expanding twice gives the same
/// resolution.
#[test]
fn parameter_substitution_idempotent() {
    let names = ["x", "abc", "zzzzzz", "q"];
    let nums = ["0", "42", "9999"];
    for a in names {
        for b in nums {
            let mut ps = ParameterSet::new();
            ps.set("base", a);
            ps.set("num", b);
            ps.set("combo", "${base}-${num}");
            let once = ps.expand(&[]).unwrap();
            let twice = ps.expand(&[]).unwrap();
            assert_eq!(&once, &twice);
            assert_eq!(once[0]["combo"].clone(), format!("{a}-{b}"));
        }
    }
}

/// Archive manifests verify their own content for arbitrary members.
#[test]
fn archive_manifest_round_trip() {
    use jubench::jube::Archive;
    for case in 0..32u64 {
        let mut rng = rank_rng(0xA0 + case, 6);
        let member_count = rng.gen_range(1usize..6);
        let names: Vec<String> = (0..member_count)
            .map(|i| {
                let len = rng.gen_range(1usize..12);
                let mut s: String = (0..len)
                    .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
                    .collect();
                s.push((b'a' + (i % 26) as u8) as char); // force uniqueness
                s
            })
            .collect();
        let payload: Vec<u8> = (0..rng.gen_range(0usize..256))
            .map(|_| rng.gen_range(0u8..255))
            .collect();
        let mut a = Archive::new();
        for (i, name) in names.iter().enumerate() {
            let mut content = payload.clone();
            content.push(i as u8);
            a.add(name, content);
        }
        let manifest = a.manifest();
        assert!(a.verify(&manifest).is_empty(), "case {case}");
        // Any bit flip in a member is caught.
        let mut tampered = Archive::new();
        for (i, name) in names.iter().enumerate() {
            let mut content = payload.clone();
            content.push(i as u8);
            if i == 0 {
                content.push(0xFF);
            }
            tampered.add(name, content);
        }
        assert!(!tampered.verify(&manifest).is_empty(), "case {case}");
    }
}

/// The nekRS settling model predicts synthetic runs within 10 %.
#[test]
fn settling_model_predicts() {
    use jubench::apps_cfd::perf_model::{predict_run, synthetic_profile, StepProfile};
    for case in 0..32u64 {
        let mut rng = rank_rng(0x5E + case, 7);
        let initial = rng.gen_range(50.0..300.0);
        let asymptote = rng.gen_range(10.0..45.0);
        let decay = rng.gen_range(0.7..0.96);
        let truth = synthetic_profile(600, initial, asymptote, decay);
        let true_total: f64 = truth.iterations.iter().sum();
        let prefix = StepProfile {
            iterations: truth.iterations[..60].to_vec(),
        };
        let (predicted, _) = predict_run(&prefix, 600).unwrap();
        assert!(
            (predicted - true_total).abs() / true_total < 0.10,
            "case {case}"
        );
    }
}

/// exp of a traceless anti-Hermitian matrix is special unitary for
/// arbitrary entries.
#[test]
fn su3_exponential_is_special_unitary() {
    use jubench::apps_lattice::hmc::{exp_matrix, project_ta};
    use jubench::kernels::C64;
    for case in 0..32u64 {
        let mut rng = rank_rng(0x53 + case, 8);
        let mut m = [[C64::ZERO; 3]; 3];
        for row in &mut m {
            for entry in row.iter_mut() {
                *entry = C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
            }
        }
        let u = exp_matrix(&project_ta(&m));
        assert!(u.unitarity_error() < 1e-10, "case {case}");
        assert!((u.det() - C64::ONE).abs() < 1e-10, "case {case}");
    }
}

/// Baseline stores round-trip arbitrary positive values at full precision.
#[test]
fn baseline_store_round_trip() {
    use jubench::continuous::BaselineStore;
    let mut rng = rank_rng(0xBA, 9);
    for case in 0..64 {
        // Log-uniform over [1e-6, 1e12).
        let value = 10f64.powf(rng.gen_range(-6.0..12.0));
        let mut store = BaselineStore::new();
        store.set(BenchmarkId::NekRs, value);
        let back = BaselineStore::from_text(&store.to_text()).unwrap();
        assert_eq!(back.get(BenchmarkId::NekRs), Some(value), "case {case}");
    }
}

/// Distributed allreduce equals the sequential reduction for any data.
#[test]
fn allreduce_matches_sequential() {
    for case in 0..8u64 {
        let mut rng = rank_rng(0xA1 + case, 10);
        let values: Vec<f64> = (0..4).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let w = World::new(Machine::juwels_booster().partition(1)); // 4 ranks
        let vals = values.clone();
        let results = w.run(move |comm| {
            let mut buf = [vals[comm.rank() as usize]];
            comm.allreduce_f64(&mut buf, ReduceOp::Sum).unwrap();
            buf[0]
        });
        let expect: f64 = values.iter().sum();
        for r in &results {
            assert!((r.value - expect).abs() < 1e-9, "case {case}");
        }
    }
}

/// Running under an **empty** fault plan is bit-identical to running with
/// no plan at all: every guard in the runtime must leave the arithmetic
/// untouched when no fault applies.
///
/// A plan also keeps the data collectives on the message ring, while a
/// world without one meets in the rendezvous, which replays the ring for
/// all ranks at once. So the ring is the replay's oracle: rank by rank,
/// the returned values (to the bit), both clock shares, the trace events
/// and the `simmpi/*` tallies must agree — on 1 to 16 ranks, per-GPU,
/// per-node and MSA rank maps, buffers of 0, 1, fewer than `p` and a
/// non-multiple of `p` elements, every reduction operator, and entry
/// clocks that differ per rank.
#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    use jubench::trace::TraceEvent;
    use std::sync::Arc;
    let booster = Machine::juwels_booster();
    let worlds = [
        World::new(booster.partition(1)),
        World::new(booster.partition(2)),
        World::new(booster.partition(4)),
        World::per_node(booster.partition(1)),
        World::per_node(booster.partition(2)),
        World::per_node(booster.partition(3)),
        World::per_node(booster.partition(5)),
        World::per_node(booster.partition(16)),
        World::msa(2, 1),
        World::msa(3, 2),
    ];
    for (case, world) in worlds.into_iter().enumerate() {
        let case = case as u64;
        let mut rng = rank_rng(0xFA + case, 12);
        let compute_s = rng.gen_range(1e-4..1e-2);
        let elems = rng.gen_range(1usize..256);
        let workload = move |comm: &mut Comm| {
            let (r, p) = (comm.rank() as usize, comm.size() as usize);
            // Mixed magnitudes, so a reassociated sum changes bits.
            let mut rng = rank_rng(0xFB + case, r as u32);
            let mut draw = move |len: usize| -> Vec<f64> {
                (0..len)
                    .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powf(rng.gen_range(-6.0..6.0)))
                    .collect()
            };
            let mut out = Vec::new();
            comm.advance_compute(compute_s * (r + 1) as f64);
            comm.send_f64(((r + 1) % p) as u32, &vec![1.0; elems])
                .unwrap();
            out.extend(comm.recv_f64(((r + p - 1) % p) as u32).unwrap());
            for len in [0, 1, p - 1, 2 * p + 1, elems] {
                for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                    comm.advance_compute(compute_s * ((r * 7 + len) % 5) as f64);
                    let mut buf = draw(len);
                    comm.allreduce_f64(&mut buf, op).unwrap();
                    out.extend(buf);
                }
                comm.advance_compute(compute_s * ((r * 3 + len) % 4) as f64);
                out.extend(comm.allgather_f64(&draw(len)).unwrap());
                let send = (0..p).map(|to| draw((r + to + len) % (p + 2))).collect();
                out.extend(comm.alltoall_f64(send).unwrap().concat());
            }
            comm.barrier();
            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            (bits, comm.tally().clone())
        };
        let run = |world: World| {
            let rec = Arc::new(Recorder::new());
            let ranks = world.with_recorder(rec.clone()).run(workload);
            (ranks, rec.take_events())
        };
        let (bare, bare_events) = run(world.clone());
        let (planned, planned_events) = run(world.with_fault_plan(FaultPlan::new(case)));
        for (a, b) in bare.iter().zip(&planned) {
            let rank = a.rank;
            let (va, vb) = (&a.value.0, &b.value.0);
            let first = va.iter().zip(vb).position(|(x, y)| x != y);
            assert!(
                va.len() == vb.len() && first.is_none(),
                "case {case} rank {rank}: value {first:?} of {} differs",
                va.len()
            );
            assert_eq!(
                a.clock.compute_s.to_bits(),
                b.clock.compute_s.to_bits(),
                "case {case} rank {rank}"
            );
            assert_eq!(
                a.clock.comm_s.to_bits(),
                b.clock.comm_s.to_bits(),
                "case {case} rank {rank}"
            );
            assert_eq!(a.value.1, b.value.1, "case {case} rank {rank}: tally");
            let of = |events: &[TraceEvent]| {
                let mine: Vec<_> = events.iter().filter(|e| e.rank == rank).collect();
                format!("{mine:?}")
            };
            assert_eq!(
                of(&bare_events),
                of(&planned_events),
                "case {case} rank {rank}: events"
            );
        }
        assert_eq!(bare_events.len(), planned_events.len(), "case {case}");
    }
}

/// Placement never double-books a node: in fault-free runs every job has
/// one attempt, and any two attempts overlapping in time hold disjoint
/// node sets drawn from the machine.
#[test]
fn scheduler_never_double_books_a_node() {
    use jubench::sched::JobOutcome;
    for case in 0..24u64 {
        let mut rng = rank_rng(0x5C + case, 13);
        let cells = rng.gen_range(2u32..8);
        let machine = Machine::juwels_booster().partition(cells * 48);
        let jobs: Vec<Job> = (0..rng.gen_range(4u32..16))
            .map(|i| {
                Job::new(i, &format!("j{i}"), rng.gen_range(1u32..120), {
                    rng.gen_range(0.1..4.0)
                })
                .with_comm_fraction(rng.gen_range(0.0..0.9))
                .with_priority(rng.gen_range(0u32..3) as i32)
                .with_submit(rng.gen_range(0.0..2.0))
            })
            .collect();
        for placement in PlacementPolicy::ALL {
            let schedule = Scheduler::new(
                machine,
                NetModel::juwels_booster(),
                SchedulerConfig::new(QueuePolicy::ConservativeBackfill, placement, case),
            )
            .run(&jobs, &FaultPlan::new(0));
            let done: Vec<_> = schedule
                .records
                .iter()
                .filter(|r| r.outcome == JobOutcome::Finished)
                .collect();
            for r in &done {
                assert_eq!(r.attempts.len(), 1, "fault-free: one attempt");
                assert_eq!(r.allocation.len(), r.nodes as usize, "case {case}");
                assert!(r.allocation.iter().all(|&n| n < machine.nodes));
            }
            for (i, a) in done.iter().enumerate() {
                for b in &done[i + 1..] {
                    let (sa, ea) = (a.attempts[0].start_s, a.end_s.unwrap());
                    let (sb, eb) = (b.attempts[0].start_s, b.end_s.unwrap());
                    if sa < eb && sb < ea {
                        assert!(
                            a.allocation.iter().all(|n| !b.allocation.contains(n)),
                            "case {case}: jobs {} and {} overlap in time and nodes",
                            a.id,
                            b.id
                        );
                    }
                }
            }
        }
    }
}

/// Conservative backfill never delays a higher-priority job: with every
/// job eligible at t = 0 and placement-independent runtimes, each job
/// starts exactly when it would have if all lower-priority jobs were
/// dropped from the queue.
#[test]
fn backfill_never_delays_higher_priority_starts() {
    for case in 0..24u64 {
        let mut rng = rank_rng(0xBF + case, 14);
        let machine = Machine::juwels_booster().partition(rng.gen_range(2u32..6) * 48);
        // comm_fraction 0 ⇒ runtime is independent of where a job lands,
        // so dropping the low-priority jobs perturbs nothing else.
        let jobs: Vec<Job> = (0..rng.gen_range(4u32..14))
            .map(|i| {
                Job::new(i, &format!("j{i}"), rng.gen_range(1u32..96), {
                    rng.gen_range(0.1..4.0)
                })
                .with_priority(rng.gen_range(0u32..3) as i32)
            })
            .collect();
        let run = |set: &[Job]| {
            Scheduler::new(
                machine,
                NetModel::juwels_booster(),
                SchedulerConfig::new(
                    QueuePolicy::ConservativeBackfill,
                    PlacementPolicy::Contiguous,
                    case,
                ),
            )
            .run(set, &FaultPlan::new(0))
        };
        let full = run(&jobs);
        for cut in [1i32, 2] {
            let high: Vec<Job> = jobs.iter().filter(|j| j.priority >= cut).cloned().collect();
            let filtered = run(&high);
            for r in &filtered.records {
                let in_full = full.records.iter().find(|f| f.id == r.id).unwrap();
                let (a, b) = (in_full.start_s().unwrap(), r.start_s().unwrap());
                assert!(
                    (a - b).abs() < 1e-9,
                    "case {case} cut {cut}: job {} starts at {a} with backfill, {b} without",
                    r.id
                );
            }
        }
    }
}

/// `par_map_indexed` is exactly-once and order-preserving: for random
/// task counts, payloads, and pool widths, every task executes exactly
/// once and the results come back in submission order — nothing lost,
/// duplicated, or reordered.
#[test]
fn par_map_indexed_is_exactly_once_in_order() {
    use jubench::pool::{par_map_indexed, with_threads};
    use std::sync::atomic::{AtomicUsize, Ordering};
    for case in 0..48u64 {
        let mut rng = rank_rng(0xDE + case, 15);
        let n = rng.gen_range(0usize..200);
        let threads = rng.gen_range(1usize..9);
        let payloads: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1 << 20)).collect();
        let executions = AtomicUsize::new(0);
        let out = with_threads(threads, || {
            par_map_indexed(n, |i| {
                executions.fetch_add(1, Ordering::Relaxed);
                // A payload-dependent result that would expose index mixups.
                payloads[i].wrapping_mul(31).wrapping_add(i as u64)
            })
        });
        assert_eq!(
            executions.load(Ordering::Relaxed),
            n,
            "case {case}: every task exactly once"
        );
        let expected: Vec<u64> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| p.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        assert_eq!(out, expected, "case {case}: submission order preserved");
    }
}

/// A panicking task propagates its payload out of `par_map_indexed`, no
/// task ever runs more than once, and the (cached, shared) pool stays
/// usable for the next map. At one thread the map is a plain sequential
/// iteration, so the panic stops it at the bomb; at two or more threads
/// every spawned task still settles before the scope re-raises.
#[test]
fn par_map_indexed_survives_panicking_tasks() {
    use jubench::pool::{par_map_indexed, with_threads};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    for case in 0..24u64 {
        let mut rng = rank_rng(0xBE + case, 16);
        let n = rng.gen_range(2usize..80);
        let threads = rng.gen_range(1usize..9);
        let bomb = rng.gen_range(0usize..n);
        let executions: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_threads(threads, || {
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map_indexed(n, |i| {
                    executions[i].fetch_add(1, Ordering::Relaxed);
                    if i == bomb {
                        panic!("bomb at {i}");
                    }
                    i
                })
            }))
            .expect_err("panic must propagate to the caller");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload carried through");
            assert_eq!(msg, format!("bomb at {bomb}"), "case {case}");
            for (i, count) in executions.iter().enumerate() {
                let ran = count.load(Ordering::Relaxed);
                assert!(ran <= 1, "case {case}: task {i} ran {ran} times");
                let must_run = threads > 1 || i <= bomb;
                assert_eq!(
                    ran, must_run as usize,
                    "case {case}: task {i} (bomb {bomb}, {threads} threads)"
                );
            }
            // Same pool instance (the per-width pool is cached): it must
            // execute the next map as if nothing happened.
            let out = par_map_indexed(n, |i| i * 2);
            assert_eq!(
                out,
                (0..n).map(|i| i * 2).collect::<Vec<_>>(),
                "case {case}"
            );
        });
    }
}

/// Snapshot → restore → snapshot is the byte identity for arbitrary
/// mid-campaign scheduler states: random machines, job sets (mixed
/// checkpointing specs), fault plans, and stop times.
#[test]
fn campaign_snapshot_restore_snapshot_is_byte_identity() {
    use jubench::sched::Scheduler;
    for case in 0..16u64 {
        let mut rng = rank_rng(0xCA + case, 17);
        let nodes = rng.gen_range(2u32..6) * 48;
        let machine = Machine::juwels_booster().partition(nodes);
        let jobs: Vec<Job> = (0..rng.gen_range(3u32..12))
            .map(|i| {
                let mut j = Job::new(i, &format!("j{i}"), rng.gen_range(1u32..96), {
                    rng.gen_range(0.5..4.0)
                })
                .with_comm_fraction(rng.gen_range(0.0..0.8))
                .with_priority(rng.gen_range(0u32..3) as i32)
                .with_submit(rng.gen_range(0.0..2.0))
                .with_retry(RetryPolicy::new(rng.gen_range(1u32..8), 0.05));
                if rng.gen_bool(0.5) {
                    j = j.with_checkpointing(rng.gen_range(0.1..1.5), rng.gen_range(0.001..0.1));
                }
                j
            })
            .collect();
        let plan = FaultPlan::periodic_drains(
            case,
            nodes,
            rng.gen_range(1.0..6.0),
            rng.gen_range(0.1..1.0),
            20.0,
            4.0,
        );
        let sched = Scheduler::new(
            machine,
            NetModel::juwels_booster(),
            SchedulerConfig::new(
                QueuePolicy::ConservativeBackfill,
                PlacementPolicy::ALL[case as usize % 2],
                case,
            ),
        );
        let mut state = sched.begin(&jobs);
        sched.advance(&mut state, &jobs, &plan, rng.gen_range(0.0..8.0));
        let snap = state.snapshot();
        let mut restored = sched.begin(&jobs);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "case {case}");
        assert_eq!(restored.now(), state.now(), "case {case}");
        assert_eq!(restored.log(), state.log(), "case {case}");
    }
}

/// Snapshot → restore → snapshot is the byte identity for arbitrary HMC
/// chain states, and the restored chain continues bit-identically.
#[test]
fn hmc_snapshot_restore_snapshot_is_byte_identity() {
    use jubench::apps_lattice::HmcChain;
    for case in 0..8u64 {
        let mut rng = rank_rng(0x4C + case, 18);
        let beta = rng.gen_range(4.0..6.5);
        let steps = rng.gen_range(2u32..6);
        let dt = rng.gen_range(0.05..0.2);
        let mut chain = HmcChain::cold([2, 2, 2, 2], beta, steps, dt, case);
        chain.run(rng.gen_range(0u64..4));
        let snap = chain.snapshot();
        // Restore into a chain built with different parameters: the
        // snapshot must fully determine the state.
        let mut restored = HmcChain::cold([2, 2, 2, 2], 1.0, 1, 0.5, 999);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "case {case}");
        chain.run(2);
        restored.run(2);
        assert_eq!(restored.snapshot(), chain.snapshot(), "case {case}");
    }
}

/// Registry merge is order-independent: folding any permutation of a
/// set of per-thread shard snapshots — in any association — yields the
/// identical aggregate. This is the property that makes the metrics
/// snapshot deterministic even though shard registration order depends
/// on thread scheduling.
#[test]
fn metrics_merge_is_order_independent() {
    use jubench::metrics::registry::HIST_BUCKETS;
    use jubench::metrics::{HistogramSnapshot, MetricsSnapshot, ScopeStat};
    let names = [
        "pool/steals",
        "sched/backfill_scans",
        "simmpi/bytes/send",
        "ckpt/seal_ns",
        "trace/events_recorded",
    ];
    for case in 0..32u64 {
        let mut rng = rank_rng(0x3E + case, 19);
        let shards: Vec<MetricsSnapshot> = (0..rng.gen_range(2usize..7))
            .map(|_| {
                let mut s = MetricsSnapshot::default();
                for name in names {
                    if rng.gen_bool(0.7) {
                        s.counters
                            .insert(name.to_string(), rng.gen_range(0u64..1000));
                    }
                    if rng.gen_bool(0.5) {
                        let g = rng.gen_range(0u64..100) as i64 - 50;
                        s.gauges.insert(name.to_string(), g);
                    }
                    if rng.gen_bool(0.5) {
                        let mut counts = vec![0u64; HIST_BUCKETS];
                        let (mut count, mut sum) = (0u64, 0u64);
                        let (mut min, mut max) = (u64::MAX, 0u64);
                        for _ in 0..rng.gen_range(1usize..16) {
                            let v = rng.gen_range(0u64..1 << 30);
                            counts[rng.gen_range(0usize..HIST_BUCKETS)] += 1;
                            count += 1;
                            sum += v;
                            min = min.min(v);
                            max = max.max(v);
                        }
                        s.histograms.insert(
                            name.to_string(),
                            HistogramSnapshot {
                                counts,
                                count,
                                sum,
                                min,
                                max,
                            },
                        );
                    }
                    if rng.gen_bool(0.5) {
                        s.scopes.insert(
                            name.to_string(),
                            ScopeStat {
                                count: rng.gen_range(1u64..50),
                                inclusive_ns: rng.gen_range(0u64..1 << 40),
                                exclusive_ns: rng.gen_range(0u64..1 << 40),
                            },
                        );
                    }
                }
                s
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = MetricsSnapshot::default();
            for &i in order {
                acc.merge(&shards[i]);
            }
            acc
        };
        let identity: Vec<usize> = (0..shards.len()).collect();
        let reference = fold(&identity);
        // Shuffled orders.
        for _ in 0..4 {
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0usize..i + 1));
            }
            assert_eq!(fold(&order), reference, "case {case}: order {order:?}");
        }
        // A different association: pairwise tree merge.
        let mut level = shards.clone();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    let mut acc = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        acc.merge(b);
                    }
                    acc
                })
                .collect();
        }
        assert_eq!(level[0], reference, "case {case}: tree merge");
    }
}

/// The event queue pops in the `(time, class, rank, seq)` total order
/// for arbitrary pushes — duplicated timestamps, shared classes and
/// ranks, negative-zero times — never in push or heap-internal order.
#[test]
fn event_queue_pop_is_the_total_order() {
    use jubench::events::EventQueue;
    for case in 0..48u64 {
        let mut rng = rank_rng(0xE0 + case, 20);
        let n = rng.gen_range(1usize..128);
        // A small time domain forces plenty of exact collisions.
        let times = [0.0, -0.0, 0.5, 1.0, 1.0 + 1e-15, 3.25];
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(
                times[rng.gen_range(0usize..times.len())],
                rng.gen_range(0u8..4),
                rng.gen_range(0u32..4),
                i,
            );
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped.len(), n, "case {case}: nothing lost");
        for w in popped.windows(2) {
            assert!(
                w[0].key < w[1].key,
                "case {case}: {:?} !< {:?}",
                w[0].key,
                w[1].key
            );
        }
    }
}

/// Tie-breaking is a property of the keys, not of heap insertion order:
/// pushing the same explicitly-numbered events in any permutation pops
/// the identical sequence.
#[test]
fn event_tie_break_is_stable_under_push_permutation() {
    use jubench::events::EventQueue;
    for case in 0..32u64 {
        let mut rng = rank_rng(0xF2 + case, 22);
        let n = rng.gen_range(2usize..64);
        let events: Vec<(f64, u8, u32, u64)> = (0..n)
            .map(|i| {
                (
                    f64::from(rng.gen_range(0u8..3)), // heavy collisions
                    rng.gen_range(0u8..2),
                    rng.gen_range(0u32..2),
                    i as u64,
                )
            })
            .collect();
        let drain = |order: &[usize]| -> Vec<(u64, usize)> {
            let mut q = EventQueue::new();
            for &i in order {
                let (t, class, rank, seq) = events[i];
                q.push_with_seq(t, class, rank, seq, i);
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.key.seq, e.payload))
                .collect()
        };
        let identity: Vec<usize> = (0..n).collect();
        let reference = drain(&identity);
        for _ in 0..4 {
            let mut order = identity.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0usize..i + 1));
            }
            assert_eq!(drain(&order), reference, "case {case}: order {order:?}");
        }
    }
}

/// The event engine is slice-invariant on randomly generated campaigns
/// whose fault instants deliberately collide — crashes, drain windows,
/// and submissions sharing exact timestamps — so the per-instant
/// handler order (finish, crash, undrain, drain, submit, start) is
/// pinned under every generated collision pattern even when an advance
/// window splits the colliding instant off from its neighbours.
/// Slicing through snapshots is the cross-check.
#[test]
fn sliced_campaigns_agree_on_colliding_fault_instants() {
    use jubench::sched::Scheduler;
    for case in 0..16u64 {
        let mut rng = rank_rng(0xEC + case, 23);
        let nodes = rng.gen_range(2u32..5) * 48;
        let machine = Machine::juwels_booster().partition(nodes);
        // Integer-grid times maximize exact collisions between job
        // events and fault instants.
        let jobs: Vec<Job> = (0..rng.gen_range(4u32..14))
            .map(|i| {
                let mut j = Job::new(i, &format!("j{i}"), rng.gen_range(1u32..96), {
                    f64::from(rng.gen_range(1u8..5))
                })
                .with_comm_fraction(0.0)
                .with_priority(rng.gen_range(0u32..3) as i32)
                .with_submit(f64::from(rng.gen_range(0u8..4)))
                .with_retry(RetryPolicy::new(rng.gen_range(2u32..8), 0.05));
                if rng.gen_bool(0.3) {
                    j = j.with_checkpointing(rng.gen_range(0.5..1.5), rng.gen_range(0.01..0.1));
                }
                j
            })
            .collect();
        let mut plan = FaultPlan::new(case);
        for _ in 0..rng.gen_range(1usize..4) {
            let from = f64::from(rng.gen_range(1u8..6));
            plan = plan.with_slow_node_window(
                rng.gen_range(0u32..nodes),
                2.0,
                from,
                from + f64::from(rng.gen_range(1u8..3)),
            );
        }
        if rng.gen_bool(0.5) {
            plan =
                plan.with_rank_crash(rng.gen_range(0u32..nodes), f64::from(rng.gen_range(1u8..6)));
        }
        let sched = Scheduler::new(
            machine,
            NetModel::juwels_booster(),
            SchedulerConfig::new(
                QueuePolicy::ConservativeBackfill,
                PlacementPolicy::ALL[case as usize % 2],
                case,
            ),
        );
        let straight = sched.run(&jobs, &plan);
        // Advance in windows deliberately landing on the integer grid
        // (and just off it), snapshotting across each boundary.
        let mut state = sched.begin(&jobs);
        let mut until = 0.0;
        loop {
            until += if (until as u64).is_multiple_of(2) {
                1.0
            } else {
                0.5
            };
            let mut s = sched
                .resume(&state.snapshot(), &jobs)
                .expect("case snapshot restores");
            let done = sched.advance(&mut s, &jobs, &plan, until);
            state = s;
            if done {
                break;
            }
        }
        let sliced = sched.finish(state);
        assert_eq!(straight.log, sliced.log, "case {case}: logs diverged");
        assert_eq!(straight.makespan_s, sliced.makespan_s, "case {case}");
    }
}

/// Gate application preserves the norm for arbitrary phase angles.
#[test]
fn quantum_gates_are_unitary() {
    for case in 0..8u64 {
        let mut rng = rank_rng(0x9A + case, 11);
        let theta = rng.gen_range(-std::f64::consts::TAU..std::f64::consts::TAU);
        let qubit = rng.gen_range(0u32..6);
        use jubench::apps_quantum::statevector::{DistStateVector, Gate1};
        let w = World::new(Machine::juwels_booster().partition(1));
        let results = w.run(move |comm| {
            let mut sv = DistStateVector::zero_state(comm, 6);
            for q in 0..6 {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            sv.apply(comm, qubit, Gate1::phase(theta)).unwrap();
            sv.norm_sqr(comm).unwrap()
        });
        for r in &results {
            assert!((r.value - 1.0).abs() < 1e-10, "case {case}");
        }
    }
}

fn every_fault_plan() -> FaultPlan {
    FaultPlan::new(11)
        .with_degraded_link(0, 1, 3.5)
        .with_flapping_link(2, 3, 2.5, 5.5, 0.625)
        .with_slow_node_window(4, 1.75, 6.5, 9.5)
        .with_message_drop(5, 6, 0.375)
        .with_rank_crash(7, 42.0)
        .with_recv_timeout(0.2)
}

/// Every rule `FaultPlan`'s builders assert, broken one field at a time
/// in an encoded `Submit`: the frame is refused as `Malformed`, never a
/// panic in a builder, and the untouched frame still decodes.
#[test]
fn forged_fault_fields_in_a_submit_are_malformed() {
    use jubench::serve::{CampaignSpec, Frame, RunPoint, WireError};
    let mut spec =
        CampaignSpec::new("mallory", "forged", 16, 9).with_point(RunPoint::test("STREAM", 1, 1));
    spec.plan = every_fault_plan();
    let good = Frame::Submit { spec }.encode();
    assert!(Frame::decode(&good).is_ok());
    // Each valid value occurs exactly once in the frame, so its bit
    // pattern locates the field.
    let forgeries: [(f64, &[f64]); 9] = [
        (0.2, &[0.0, -1.0, f64::NAN]),     // recv timeout > 0
        (3.5, &[0.5, f64::NAN]),           // degraded-link factor ≥ 1
        (2.5, &[0.5, f64::NAN]),           // flapping factor ≥ 1
        (5.5, &[0.0, -5.0, f64::NAN]),     // flapping period > 0
        (0.625, &[-0.1, 1.5, f64::NAN]),   // up fraction in [0, 1]
        (1.75, &[0.0, f64::NAN]),          // slow-node factor ≥ 1
        (6.5, &[9.5, 10.0, f64::NAN]),     // window from < until (= 9.5)
        (0.375, &[-0.25, 1.25, f64::NAN]), // drop probability in [0, 1]
        (42.0, &[-1.0, f64::NAN]),         // crash time ≥ 0
    ];
    for (valid, bad_values) in forgeries {
        let pattern = valid.to_bits().to_le_bytes();
        let hits: Vec<usize> = (0..good.len() - 7)
            .filter(|&at| good[at..at + 8] == pattern)
            .collect();
        assert_eq!(hits.len(), 1, "{valid} must locate exactly one field");
        for &bad in bad_values {
            let mut forged = good.clone();
            forged[hits[0]..hits[0] + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert!(
                matches!(Frame::decode(&forged), Err(WireError::Malformed(_))),
                "{valid} forged to {bad} must be refused as malformed"
            );
        }
    }
}

/// `Frame::decode` on arbitrarily corrupted bytes — truncations, bit
/// flips, spliced garbage, pure noise — returns a typed error or a
/// valid frame, never panics; and whatever it accepts re-encodes to
/// bytes that decode back to the same frame.
#[test]
fn wire_decode_survives_arbitrary_corruption() {
    use jubench::serve::{CampaignSpec, CancelReason, Frame, RunPoint};
    // One fault of each kind and a non-default timeout, so flips land
    // in every field `FaultPlan` has a rule about.
    let mut faulted =
        CampaignSpec::new("fuzz", "faulted", 16, 9).with_point(RunPoint::test("STREAM", 1, 1));
    faulted.plan = every_fault_plan();
    let pool: Vec<Frame> = vec![
        Frame::Submit {
            spec: CampaignSpec::new("fuzz", "campaign", 16, 9)
                .with_point(RunPoint::test("STREAM", 1, 1))
                .with_deadline(250.0),
        },
        Frame::Submit { spec: faulted },
        Frame::Drain,
        Frame::Stats {
            prefix: "serve/".into(),
        },
        Frame::Bye,
        Frame::Accepted {
            campaign: 7,
            shard: 3,
        },
        Frame::Row {
            campaign: 7,
            index: 2,
            cells: vec!["STREAM".into(), "pass".into()],
        },
        Frame::JobDone {
            campaign: 7,
            job: 2,
            end_s: 41.5,
        },
        Frame::Done {
            campaign: 7,
            table: "| a | b |".into(),
            chrome_trace: "[]".into(),
            report: "ok".into(),
        },
        Frame::Cancelled {
            campaign: 7,
            reason: CancelReason::ShardFailed { restarts: 3 },
        },
        Frame::StatsReply {
            prometheus: "# TYPE x counter\nx 1\n".into(),
        },
    ];
    for case in 0..512u64 {
        let mut rng = rank_rng(0xF8A2 + case, 24);
        let mut bytes = pool[rng.gen_range(0usize..pool.len())].encode();
        match rng.gen_range(0u8..4) {
            // Truncate at an arbitrary point.
            0 => bytes.truncate(rng.gen_range(0usize..bytes.len() + 1)),
            // Flip one to eight random bits.
            1 => {
                for _ in 0..rng.gen_range(1usize..9) {
                    let at = rng.gen_range(0usize..bytes.len());
                    bytes[at] ^= 1 << rng.gen_range(0u8..8);
                }
            }
            // Splice a run of random bytes over a random range.
            2 => {
                let at = rng.gen_range(0usize..bytes.len());
                let len = rng.gen_range(1usize..17).min(bytes.len() - at);
                for b in &mut bytes[at..at + len] {
                    *b = (rng.next_u64() & 0xFF) as u8;
                }
            }
            // Replace the whole buffer with noise.
            _ => {
                bytes = (0..rng.gen_range(0usize..64))
                    .map(|_| (rng.next_u64() & 0xFF) as u8)
                    .collect();
            }
        }
        // Compared as bytes: a flip may turn a spec's f64 into a NaN,
        // which round-trips bit-exactly but is not equal to itself.
        if let Ok(frame) = Frame::decode(&bytes) {
            let encoded = frame.encode();
            let roundtrip = Frame::decode(&encoded).map(|f| f.encode());
            assert_eq!(
                roundtrip,
                Ok(encoded),
                "case {case}: accepted frames round-trip"
            );
        }
    }
}

/// `read_frame` on streams whose length prefix lies — promising more
/// than MAX_FRAME_BYTES, more than the peer ever delivers, or fewer
/// bytes than the body needs — returns a typed error; it never panics
/// and never blocks past the peer's hangup.
#[test]
fn read_frame_rejects_length_lies_without_hanging() {
    use jubench::serve::{read_frame, DuplexPipe, Frame, Transport, WireError, MAX_FRAME_BYTES};
    for case in 0..96u64 {
        let mut rng = rank_rng(0x11E5 + case, 25);
        let body = Frame::Accepted {
            campaign: case,
            shard: 1,
        }
        .encode();
        let (mut client, mut server) = DuplexPipe::pair();
        let kind = rng.gen_range(0u8..3);
        match kind {
            // An oversized promise is rejected before any body read.
            0 => {
                let len = MAX_FRAME_BYTES + 1 + rng.gen_range(0u32..1 << 16);
                client.write_all(&len.to_le_bytes()).unwrap();
                client.shutdown();
                assert_eq!(
                    read_frame(&mut server),
                    Err(WireError::Oversized(len)),
                    "case {case}"
                );
            }
            // A prefix promising more than the peer delivers: the
            // mid-body hangup is a torn frame, not a clean goodbye.
            1 => {
                let promised = body.len() as u32 + 1 + rng.gen_range(0u32..512);
                client.write_all(&promised.to_le_bytes()).unwrap();
                let deliver = rng.gen_range(0usize..body.len() + 1);
                client.write_all(&body[..deliver]).unwrap();
                client.shutdown();
                assert_eq!(
                    read_frame(&mut server),
                    Err(WireError::Truncated { expected: promised }),
                    "case {case}"
                );
            }
            // A prefix promising fewer bytes than the body needs: the
            // short body must fail decoding, not panic.
            _ => {
                let promised = rng.gen_range(0usize..body.len()) as u32;
                client.write_all(&promised.to_le_bytes()).unwrap();
                client.write_all(&body).unwrap();
                client.shutdown();
                assert!(
                    read_frame(&mut server).is_err(),
                    "case {case}: short body decoded"
                );
            }
        }
    }
}

/// Frames routed through a faulty transport — truncated after a random
/// byte count, or with a random bit flipped in flight — come out as
/// clean frames or typed errors. No panic, no hang: the reader always
/// reaches the fault or the end of the stream.
#[test]
fn faulty_transports_yield_typed_frames_or_errors() {
    use jubench::serve::{
        read_frame, write_frame, DuplexPipe, FaultyTransport, Frame, Transport, WireFault,
    };
    for case in 0..96u64 {
        let mut rng = rank_rng(0xFA17 + case, 26);
        let frames: Vec<Frame> = (0..rng.gen_range(1u64..6))
            .map(|i| Frame::Row {
                campaign: i,
                index: i as u32,
                cells: vec![format!("cell{i}"), "pass".into()],
            })
            .collect();
        let total: usize = frames.iter().map(|f| f.encode().len() + 4).sum();
        let fault = if rng.gen_bool(0.5) {
            WireFault::TruncateAfter {
                bytes: rng.gen_range(0u64..total as u64 + 1),
            }
        } else {
            WireFault::FlipBit {
                at_byte: rng.gen_range(0u64..total as u64),
                bit: rng.gen_range(0u8..8),
            }
        };
        let (client, mut server) = DuplexPipe::pair();
        let mut faulty = FaultyTransport::new(client, fault);
        for frame in &frames {
            if write_frame(&mut faulty, frame).is_err() {
                break; // the truncation point closed the stream mid-write
            }
        }
        faulty.shutdown();
        let mut delivered = 0usize;
        // The loop ends on the first typed error (Transport, Truncated,
        // or Malformed) — the fault guarantees one arrives.
        while read_frame(&mut server).is_ok() {
            delivered += 1;
            assert!(
                delivered <= frames.len(),
                "case {case}: more frames out than in"
            );
        }
    }
}
