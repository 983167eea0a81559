//! Regenerates the §II procurement arithmetic: the TCO/value-for-money
//! table for two hypothetical proposals and the High-Scaling
//! ratio/variant selections.

use jubench_bench::banner;
use jubench_bench::harness::Criterion;
use jubench_bench::{criterion_group, criterion_main};
use jubench_cluster::{GpuSpec, Machine, NodeSpec};
use jubench_core::{BenchmarkId, MemoryVariant, TimeMetric};
use jubench_procurement::{
    exascale_partition_nodes, Commitment, HighScalingAssessment, Proposal, ReferenceSet, TcoModel,
};

fn reference() -> ReferenceSet {
    let mut r = ReferenceSet::new();
    r.add(BenchmarkId::Arbor, TimeMetric(498.0), 8, 1.0);
    r.add(BenchmarkId::Juqcs, TimeMetric(17.1), 8, 1.0);
    r.add(BenchmarkId::NekRs, TimeMetric(13.9), 8, 1.5);
    r.add(BenchmarkId::MegatronLm, TimeMetric(7314.0), 96, 2.0);
    r
}

fn proposal(name: &str, speedup: f64, gpu: GpuSpec, nodes: u32, price: f64) -> Proposal {
    let r = reference();
    Proposal {
        name: name.into(),
        machine: Machine {
            name: "proposal",
            nodes,
            node: NodeSpec {
                gpu,
                ..NodeSpec::juwels_booster()
            },
            ..Machine::juwels_booster()
        },
        price_eur: price,
        commitments: r
            .ids()
            .into_iter()
            .map(|id| Commitment {
                id,
                committed: TimeMetric(r.reference(id).unwrap().0 / speedup),
                nodes_used: 4,
            })
            .collect(),
    }
}

fn regenerate() {
    banner("§II — TCO value-for-money and High-Scaling assessment (regenerated)");
    let r = reference();
    let proposals = [
        proposal("A (breadth)", 3.1, GpuSpec::next_gen_96gb(), 4800, 480.0e6),
        proposal(
            "B (big memory)",
            3.6,
            GpuSpec {
                name: "BigMem-128GB",
                fp64_flops: 45.0e12,
                memory_bytes: 128 << 30,
                mem_bw: 5.2e12,
            },
            3600,
            510.0e6,
        ),
    ];
    for p in &proposals {
        let tco = TcoModel::eurohpc_defaults(p.price_eur);
        let eval = p.evaluate(&r, &tco).unwrap();
        let exa_nodes = exascale_partition_nodes(&p.machine);
        let hs = HighScalingAssessment::build(
            BenchmarkId::Arbor,
            MemoryVariant::ALL.as_slice(),
            p.machine.node.gpu.memory_bytes,
            TimeMetric(600.0),
            TimeMetric(600.0 / eval.mean_speedup),
        )
        .unwrap();
        println!(
            "  {:<16} speedup {:>5.2}x  TCO {:>6.0} M€  value {:>8.1}/M€  exa-partition {:>5} nodes  HS: {} ratio {:.3}",
            eval.name,
            eval.mean_speedup,
            eval.tco_total_eur / 1e6,
            eval.value_for_money,
            exa_nodes,
            hs.variant,
            hs.ratio()
        );
    }
    println!();
}

fn bench_procurement(c: &mut Criterion) {
    regenerate();
    let r = reference();
    let p = proposal("A", 3.1, GpuSpec::next_gen_96gb(), 4800, 480.0e6);
    let tco = TcoModel::eurohpc_defaults(p.price_eur);
    c.benchmark_group("bench")
        .bench_function("proposal_evaluation", |b| {
            b.iter(|| p.evaluate(&r, &tco).unwrap().value_for_money)
        });
}

criterion_group!(benches, bench_procurement);
criterion_main!(benches);
