//! The repo benchmark (see `../BENCHMARK.json` and `README.md`).
//!
//! ```text
//! jubench-benchmark [run|trace] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! jubench-benchmark all [--smoke] [--seed N] [--seconds S]
//! jubench-benchmark aa [--seed N] [--seconds S]
//! ```
//!
//! Every command pins the process to one CPU first (see `host.rs`).
//! `run` (the default) measures one workload untraced and prints every
//! end-to-end metric, read at nominal host speed with the wall-clock
//! reading beside it; `trace` (or `--trace 1`) repeats
//! the same inputs with spans recorded and prints every per-layer
//! metric. Either way the last line of standard output is one JSON
//! object.

mod host;
mod layers;
mod population;
mod span;
mod stats;
mod traced;
mod workloads;

use stats::{median, peak_rss_mb, tail};
use workloads::{Config, Run, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2024;
/// Measured seconds when `--seconds` is not given (= `run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Runs per set in `aa`.
const AA_RUNS: usize = 3;

/// Where the traced run writes `<workload>.trace.json`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The end-to-end metrics: name, unit, and the share of the parent's
/// median by which each may worsen (`BENCHMARK.json` carries the same
/// table; a unit test keeps the two in step).
const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("campaigns_per_s", "1/s", 0.25),
    ("points_per_s", "1/s", 0.25),
    ("done_latency_p50_ms", "ms", 0.25),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of one untraced run, in `BENCHMARK.json`
/// order: at nominal host speed (`scaled`, what the result line carries)
/// or as the wall clock read them.
fn end_to_end(run: &Run, scaled: bool) -> Vec<Metric> {
    let t = &run.tally;
    let values = [
        if scaled {
            run.setup.nominal_s
        } else {
            run.setup.wall_s
        },
        t.rate(run.span_s, |r| r.done, t.done, scaled),
        t.rate(run.span_s, |r| r.rows, t.rows, scaled),
        t.latency_p50_ms(scaled),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all measured digits (`{}` on an `f64`
/// prints the shortest string that round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The end-to-end metrics with their wall-clock readings beside them.
fn print_end_to_end(metrics: &[Metric], wall: &[Metric], host_speed: f64) {
    for (m, w) in metrics.iter().zip(wall) {
        println!(
            "  {:<34} {:>16.6} {:<4} (wall clock {:.6})",
            m.name, m.value, m.unit, w.value
        );
    }
    println!(
        "  {:<34} {host_speed:>16.6} of nominal (median over rounds)",
        "host speed"
    );
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match args.command.as_str() {
        "run" | "all" | "aa" => {}
        "trace" => args.trace = true,
        other => return Err(format!("unknown command `{other}` (run, trace, all, aa)")),
    }
    Ok(args)
}

/// One untraced run with its end-to-end metrics.
struct Measured {
    run: Run,
    metrics: Vec<Metric>,
    /// Every output check passed.
    correct: bool,
}

/// Run one workload untraced and print its metrics.
fn run_untraced(name: &str, cfg: &Config) -> Result<Measured, String> {
    let run = workloads::run(name, cfg)?;
    let metrics = end_to_end(&run, true);
    let t = &run.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "{name}: seed {} span {:.3} s, {} campaigns attempted, {} failed, {} rounds, \
         {} latency samples from {} batches",
        cfg.seed,
        run.span_s,
        t.attempted,
        t.failed,
        t.rounds.len(),
        t.latencies_ms.len(),
        t.batches,
    );
    print_end_to_end(&metrics, &end_to_end(&run, false), t.host_speed());
    // Not bounded: stalls of the sandbox move the tail by 10-20 % from
    // run to run, so it is printed for the reader, not gated on.
    let (q, tail_ms) = tail(&t.latencies_ms, t.batches as usize);
    println!(
        "  {:<34} {tail_ms:>16.6} ms (p{:.1}, not bounded)",
        "done_latency_tail_ms",
        100.0 * q
    );
    println!(
        "  {:<34} {:>16.6} ratio",
        "failed_frac",
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for (name, value) in &run.counts {
        println!("  {name:<34} {value:>16.6} (exact)");
    }
    println!("  artifact_digest {:032x}", t.artifact_digest());
    for e in &t.errors {
        println!("  CHECK FAILED: {e}");
    }
    Ok(Measured {
        run,
        metrics,
        correct,
    })
}

/// Run one workload traced: Part A from its spans, Part B from the
/// isolated layer calls. Prints the share table and every per-layer
/// metric, and writes the spans to `out/<workload>.trace.json`.
fn run_traced(name: &str, cfg: &Config) -> Result<(traced::Traced, Vec<Metric>, bool), String> {
    let traced = traced::run(name, cfg)?;
    let registry = jubench::scaling::full_registry();
    let mut metrics: Vec<Metric> = traced::METRICS
        .iter()
        .map(|(metric, unit)| Metric {
            name: metric.to_string(),
            unit,
            value: traced.values[metric],
        })
        .collect();
    metrics.extend(layers::measure(&registry, cfg.seconds)?);
    metrics.push(Metric {
        name: "bench.peak_rss_mb".to_string(),
        unit: "MB",
        value: peak_rss_mb(),
    });

    let t = &traced.tally;
    let correct = t.failed == 0 && t.attempted > 0;
    println!(
        "{name} (traced): seed {}, {} campaigns attempted, {} failed, {} spans",
        cfg.seed,
        t.attempted,
        t.failed,
        traced.tracer.spans().len()
    );
    print!("{}", span::render_shares(name, traced.tracer.spans()));
    print_metrics(&metrics);
    for e in &t.errors {
        println!("  CHECK FAILED: {e}");
    }
    let path = format!("{OUT_DIR}/{name}.trace.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, span::chrome_json(traced.tracer.spans())))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("  spans written to {path}");
    Ok((traced, metrics, correct))
}

/// `aa`: two sets of [`AA_RUNS`] runs of every workload at one seed,
/// interleaved (the sets take turns going first, the workload order
/// flips every pass), compared the way the driver compares parent and
/// change. Fails if a metric's medians differ by more than its bound,
/// or any artifact digest or exact count differs at all.
fn run_aa(cfg: &Config) -> Result<bool, String> {
    // runs[workload][set] = that set's runs.
    let mut runs: Vec<[Vec<Measured>; 2]> =
        WORKLOADS.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    for pass in 0..AA_RUNS {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        for w in order {
            for turn in 0..2 {
                let set = (pass + turn) % 2;
                println!("-- pass {pass}, set {}", ["A", "B"][set]);
                runs[w][set].push(run_untraced(WORKLOADS[w], cfg)?);
            }
        }
    }

    let mut ok = true;
    println!(
        "\nA/A at seed {}, medians of {AA_RUNS} runs: set A, set B, gap / bound",
        cfg.seed
    );
    for (name, sets) in WORKLOADS.iter().zip(&runs) {
        let all = || sets.iter().flatten();
        ok &= all().all(|m| m.correct);
        for (i, (metric, _, bound)) in END_TO_END.iter().enumerate() {
            let of = |set: usize| {
                median(
                    &sets[set]
                        .iter()
                        .map(|m| m.metrics[i].value)
                        .collect::<Vec<_>>(),
                )
            };
            let (a, b) = (of(0), of(1));
            let gap = (a - b).abs() / a.min(b);
            let within = gap <= *bound;
            ok &= within;
            println!(
                "  {name:<17} {metric:<22} {a:>14.4} {b:>14.4} {gap:>7.4} / {bound:.2} {}",
                if within { "ok" } else { "EXCEEDS" }
            );
        }
        let first = &sets[0][0].run;
        let exact = all().all(|m| {
            m.run.tally.artifact_digest() == first.tally.artifact_digest()
                && m.run.counts == first.counts
        });
        ok &= exact;
        println!(
            "  {name:<17} artifact_digest {:032x}, exact counts {:?}: {}",
            first.tally.artifact_digest(),
            first.counts,
            if exact {
                "identical in all runs"
            } else {
                "DIFFER"
            }
        );
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    // Before any thread exists: the program's threads inherit the mask.
    match host::pin_to_one_cpu() {
        Some(cpu) => println!(
            "pinned to CPU {cpu}, available parallelism {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        None => println!("could not pin to one CPU: running unpinned, readings are noisier"),
    }
    let mut cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        setup_repeats: SETUP_REPEATS,
    };
    match args.command.as_str() {
        "all" => {
            if args.smoke {
                cfg.seconds /= 20.0;
                cfg.setup_repeats = 1;
            }
            let mut all_correct = true;
            for name in WORKLOADS {
                all_correct &= run_untraced(name, &cfg)?.correct;
            }
            Ok(all_correct)
        }
        "aa" => run_aa(&cfg),
        _ => {
            let name = args
                .workload
                .as_deref()
                .ok_or("--workload <name> is required")?;
            let (attempted, failed, metrics, correct) = if args.trace {
                let (traced, metrics, correct) = run_traced(name, &cfg)?;
                (
                    traced.tally.attempted,
                    traced.tally.failed,
                    metrics,
                    correct,
                )
            } else {
                let m = run_untraced(name, &cfg)?;
                (
                    m.run.tally.attempted,
                    m.run.tally.failed,
                    m.metrics,
                    m.correct,
                )
            };
            println!("{}", result_json(correct, attempted, failed, &metrics));
            Ok(correct)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root, which this package implements.
    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    /// The `"name": "…"` values of one top-level list of the contract.
    fn contract_names(list: &str) -> Vec<String> {
        let start = CONTRACT.find(&format!("\"{list}\"")).expect("list present");
        let body = &CONTRACT[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_form_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "serve_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("serve_warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(
            parse_args(&args(&["trace", "--workload", "x"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&args(&["all", "--smoke"])).unwrap().smoke);
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["bogus"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s".to_string(),
                unit: "s",
                value: 0.8127,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn workloads_and_end_to_end_metrics_match_the_contract() {
        assert_eq!(contract_names("workloads"), WORKLOADS);
        assert!(CONTRACT.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
        let names: Vec<&str> = END_TO_END.iter().map(|(name, _, _)| *name).collect();
        assert_eq!(contract_names("end_to_end"), names);
        for (name, unit, bound) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let at = CONTRACT
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} in contract"));
            let rest = &CONTRACT[at..];
            let rest = &rest[..rest.find('}').expect("entry closes")];
            assert!(
                rest.contains(&format!("\"bound\": {bound}")),
                "{name}: {rest}"
            );
        }
    }

    #[test]
    fn per_layer_metrics_match_the_contract_and_are_well_named() {
        let registry = jubench::scaling::full_registry();
        let mut ours: Vec<String> = traced::METRICS.iter().map(|(n, _)| n.to_string()).collect();
        ours.extend(layers::names(&registry).into_iter().map(|(name, _)| name));
        ours.push("bench.peak_rss_mb".to_string());
        assert_eq!(contract_names("per_layer"), ours);
        assert!(ours.len() <= 128);
        let mut unique = ours.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ours.len(), "a name is used once");
        for name in ours.iter().chain(contract_names("end_to_end").iter()) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
