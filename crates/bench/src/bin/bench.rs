//! The `bench` tool: turn harness record streams into `BENCH_<n>.json`
//! baselines and gate new measurements against them.
//!
//! ```text
//! bench merge   <OUT.json> <IN.jsonl>...           # fold record streams
//! bench compare <BASELINE.json> <NEW.json>         # regression gate
//!               [--tolerance 0.25] [--report-only]
//! bench show    <BENCH.json>                       # print a report
//! ```
//!
//! `merge` reads the JSON-lines streams the harness appends under
//! `JUBENCH_BENCH_JSON`, dedups by benchmark id (last record wins), and
//! writes the sorted `BENCH_<n>.json` document. `compare` prints the
//! per-benchmark delta table and exits non-zero when any benchmark
//! regressed beyond the tolerance — unless `--report-only`, the mode CI
//! uses where shared-runner jitter makes hard-failing unhelpful.

use std::process::ExitCode;

use jubench_metrics::gate::DEFAULT_TOLERANCE;
use jubench_metrics::{compare, PerfReport};

const USAGE: &str = "usage:
  bench merge   <OUT.json> <IN.jsonl>...
  bench compare <BASELINE.json> <NEW.json> [--tolerance F] [--report-only]
  bench show    <BENCH.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("merge") => merge(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("show") => show(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load(path: &str) -> Result<PerfReport, String> {
    PerfReport::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn merge(args: &[String]) -> Result<ExitCode, String> {
    let [out, inputs @ ..] = args else {
        return Err(USAGE.to_string());
    };
    if inputs.is_empty() {
        return Err(USAGE.to_string());
    }
    let mut records = Vec::new();
    for path in inputs {
        let report = PerfReport::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        records.extend(report.records);
    }
    let report = PerfReport::new(records);
    std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} ({} benchmarks)", out, report.records.len());
    Ok(ExitCode::SUCCESS)
}

/// What `bench compare` was asked to do.
#[derive(Debug, PartialEq)]
struct CompareArgs {
    baseline: String,
    new: String,
    tolerance: f64,
    report_only: bool,
}

/// Parse `compare`'s arguments. A tolerance that cannot gate — NaN,
/// infinite or negative, where `n > b·(1 + t)` is never true or means
/// something else — is refused, not passed through.
fn parse_compare(args: &[String]) -> Result<CompareArgs, String> {
    let mut paths = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut report_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report-only" => report_only = true,
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--tolerance needs a finite fraction >= 0 (e.g. 0.25)\n{USAGE}")
                    })?;
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline, new] = <[String; 2]>::try_from(paths).map_err(|_| USAGE.to_string())?;
    Ok(CompareArgs {
        baseline,
        new,
        tolerance,
        report_only,
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_compare(args)?;
    let gate = compare(&load(&args.baseline)?, &load(&args.new)?, args.tolerance);
    print!("{}", gate.render());
    Ok(if gate.passed() || args.report_only {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn show(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(USAGE.to_string());
    };
    let report = load(path)?;
    print!("{}", compare(&report, &report, DEFAULT_TOLERANCE).render());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CompareArgs, String> {
        parse_compare(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_tolerance_that_cannot_gate_is_refused() {
        for bad in ["nan", "inf", "-inf", "-0.1", "x"] {
            let err = parse(&["a.json", "b.json", "--tolerance", bad]).unwrap_err();
            assert!(err.ends_with(USAGE), "{bad}: {err}");
        }
        assert!(parse(&["a.json", "b.json", "--tolerance"]).is_err());
    }

    #[test]
    fn a_finite_tolerance_and_the_flags_are_accepted() {
        let args = parse(&["a.json", "--tolerance", "0.1", "b.json", "--report-only"]).unwrap();
        assert_eq!(
            args,
            CompareArgs {
                baseline: "a.json".into(),
                new: "b.json".into(),
                tolerance: 0.1,
                report_only: true,
            }
        );
        assert_eq!(parse(&["a", "b"]).unwrap().tolerance, DEFAULT_TOLERANCE);
        assert_eq!(
            parse(&["a", "b", "--tolerance", "0"]).unwrap().tolerance,
            0.0
        );
        assert_eq!(parse(&["a"]).unwrap_err(), USAGE);
        assert_eq!(parse(&["a", "b", "c"]).unwrap_err(), USAGE);
    }
}
