//! Micro-benchmarks of the application proxies' hot kernels — the
//! measured analogue of each app's dominant cost center from Table I.

use jubench_apps_ai::nn::{synthetic_task, MlpClassifier};
use jubench_apps_cfd::sem::{DiffMatrix, Element3};
use jubench_apps_lattice::{dirac::StaggeredDirac, LocalLattice};
use jubench_apps_neuro::CableCell;
use jubench_apps_quantum::statevector::{DistStateVector, Gate1};
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_cluster::Machine;
use jubench_kernels::rank_rng;
use jubench_simmpi::World;

fn bench_app_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("app_kernels");
    group.sample_size(20);

    // JUQCS: distributed gate application on the highest (global) qubit.
    // The gate reads and writes all 2¹⁴ complex amplitudes (16 B each).
    group.bytes_per_iter(2 * (1 << 14) * 16);
    group.bench_function("juqcs_global_gate_14q_4ranks", |b| {
        let world = World::new(Machine::juwels_booster().partition(1));
        b.iter(|| {
            let results = world.run(|comm| {
                let mut sv = DistStateVector::zero_state(comm, 14);
                sv.apply(comm, 13, Gate1::h()).unwrap();
                sv.bytes_exchanged
            });
            results[0].value
        });
    });

    // Chroma: the Wilson/staggered Dirac application with 4D halos.
    // 16 ranks × 2⁴ local sites, each 48-byte color vector read and the
    // result written.
    group.bytes_per_iter(2 * 16 * 16 * 48);
    group.bench_function("chroma_dirac_apply_16ranks", |b| {
        let world = World::new(Machine::juwels_booster().partition(4));
        b.iter(|| {
            let results = world.run(|comm| {
                let mut rng = rank_rng(7, comm.rank());
                let lat = LocalLattice::hot(comm, [2, 2, 2, 2], [2, 2, 2, 2], &mut rng).unwrap();
                let dirac = StaggeredDirac { mass: 0.8 };
                let mut f = lat.new_field();
                for v in f.v.iter_mut() {
                    v.0[0] = jubench_kernels::C64::ONE;
                }
                lat.exchange_fermion(comm, &mut f).unwrap();
                let mut out = vec![jubench_apps_lattice::ColorVector::ZERO; lat.volume()];
                dirac.apply(&lat, &f, &mut out);
                out[0].0[0].re
            });
            results[0].value
        });
    });

    // Arbor: one cable-cell time step (channels + Hines solve). The four
    // f64 state arrays (v, m, h, n) are read and written per compartment.
    group.bytes_per_iter(2 * 256 * 4 * 8);
    group.bench_function("arbor_cell_step_256comp", |b| {
        let mut cell = CableCell::new(256);
        b.iter(|| {
            cell.soma_current = 10.0;
            cell.step(0.025)
        });
    });

    // nekRS: the tensor-product stiffness action at polynomial order 9.
    // The element holds (9+1)³ nodes, read once and written once.
    group.bytes_per_iter(2 * 10 * 10 * 10 * 8);
    group.bench_function("nekrs_stiffness_order9", |b| {
        let dm = DiffMatrix::new(9);
        let el = Element3 { dm: &dm, h: 0.1 };
        let len = el.nodes_per_element();
        let u: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut out = vec![0.0; len];
        b.iter(|| {
            el.stiffness(&u, &mut out);
            out[0]
        });
    });

    // Megatron: one data-parallel training step of the proxy network.
    // The 16→64→4 MLP's 1348 parameters are touched in forward, backward,
    // and update passes; the 64-sample batch activates 84 units each.
    group.bytes_per_iter((3 * 1348 + 64 * 84) * 8);
    group.bench_function("megatron_mlp_train_step", |b| {
        let (x, labels) = synthetic_task(64, 16, 4, 1);
        let mut mlp = MlpClassifier::new(16, 64, 4, 2);
        b.iter(|| {
            mlp.zero_grad();
            mlp.train_step(&x, &labels)
        });
    });
}

criterion_group!(benches, bench_app_kernels);
criterion_main!(benches);
