//! Regenerate Table I (benchmarks → domains and Berkeley dwarfs) and
//! Table II (application features and execution targets) from the suite
//! metadata, then run the seven synthetic benchmarks (§IV-B) once at
//! test scale and list their figures of merit.
//!
//! Run with: `cargo run --release --example suite_overview`

use jubench::prelude::*;
use jubench::scaling::{render_table1, render_table2};
use jubench::synthetic::{Graph500, Hpcg, Hpl, Ior, LinkTest, Osu, Stream};

fn banner(title: &str) {
    println!("\n================================================================");
    println!("  {title}");
    println!("================================================================\n");
}

fn main() {
    println!("Table I — relation of benchmarks to domains and Berkeley dwarfs");
    println!("(* = prepared for the procurement but not used)\n");
    println!("{}", render_table1());
    println!("Table II — application features and execution targets\n");
    println!("{}", render_table2());

    banner("Synthetic benchmark FOMs (regenerated)");
    let runs: Vec<(&str, Fom)> = vec![
        (
            "Graph500",
            Graph500 { scale: 10 }.run(&RunConfig::test(4)).unwrap().fom,
        ),
        ("HPCG", Hpcg { n: 12 }.run(&RunConfig::test(4)).unwrap().fom),
        ("HPL", Hpl { n: 64 }.run(&RunConfig::test(4)).unwrap().fom),
        (
            "IOR easy",
            Ior::easy().run(&RunConfig::test(65)).unwrap().fom,
        ),
        (
            "IOR hard",
            Ior::hard().run(&RunConfig::test(65)).unwrap().fom,
        ),
        ("LinkTest", LinkTest.run(&RunConfig::test(936)).unwrap().fom),
        ("OSU", Osu.run(&RunConfig::test(2)).unwrap().fom),
        (
            "STREAM",
            Stream { n: 500_000 }.run(&RunConfig::test(1)).unwrap().fom,
        ),
    ];
    for (name, fom) in runs {
        println!("  {name:<10} {:>14.4e} {}", fom.value(), fom.unit());
    }
    println!();
}
