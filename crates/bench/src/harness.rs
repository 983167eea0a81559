//! A minimal wall-clock timing harness with a Criterion-shaped API.
//!
//! Implements exactly the surface the bench targets use — `Criterion`,
//! `benchmark_group`, the group's `sample_size` / `bytes_per_iter` /
//! `bench_function`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros — so the figure/table benches compile
//! without any external crate.
//!
//! Each benchmark is warmed up *individually* (repeated passes until the
//! warm-up budget elapses, so caches and page tables are hot per target,
//! not per group), then timed over its resolved sample count: the
//! `JUBENCH_BENCH_SAMPLES` environment variable (CI smoke runs) when set,
//! else the group's [`BenchmarkGroup::sample_size`] (default 20).
//!
//! Beyond the human-readable summary line, every benchmark emits a
//! structured [`PerfRecord`] (median/p10/p90 nanoseconds, sample count,
//! and the group's [`BenchmarkGroup::bytes_per_iter`] when declared).
//! When the `JUBENCH_BENCH_JSON` environment variable names a file,
//! records are appended there as JSON lines; `bench merge` folds those
//! streams into the `BENCH_<n>.json` baseline artifact (see
//! `jubench_metrics::perf`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use jubench_metrics::perf::fmt_ns;
use jubench_metrics::PerfRecord;

/// Environment variable overriding every sample count (smoke runs).
pub const SAMPLES_ENV: &str = "JUBENCH_BENCH_SAMPLES";

/// Environment variable naming the JSON-lines record sink.
pub const JSON_ENV: &str = "JUBENCH_BENCH_JSON";

/// The harness entry point: hands out named benchmark groups.
#[derive(Debug)]
pub struct Criterion {
    warm_up: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up: Duration::from_millis(10),
        }
    }
}

impl Criterion {
    /// Per-benchmark warm-up budget (default 10 ms; zero means exactly
    /// one warm-up pass).
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("-- group: {name}");
        BenchmarkGroup {
            group: name.to_string(),
            sample_size: 20,
            warm_up: self.warm_up,
            bytes_per_iter: None,
        }
    }
}

/// A named collection of benchmarks sharing a sample count, warm-up
/// budget, and (sticky) bytes-per-iteration declaration.
pub struct BenchmarkGroup {
    group: String,
    sample_size: usize,
    warm_up: Duration,
    bytes_per_iter: Option<u64>,
}

/// `JUBENCH_BENCH_SAMPLES` as a sample count, when set and valid.
fn env_samples() -> Option<usize> {
    let raw = std::env::var(SAMPLES_ENV).ok()?;
    let n = raw.trim().parse::<usize>().ok()?;
    (n >= 2).then_some(n)
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark of this group (Criterion's
    /// meaning; `JUBENCH_BENCH_SAMPLES` overrides it).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declare the payload bytes one iteration of the subsequent
    /// benchmarks in this group processes (sticky until changed); lands
    /// in [`PerfRecord::bytes_per_iter`].
    pub fn bytes_per_iter(&mut self, bytes: u64) -> &mut Self {
        self.bytes_per_iter = Some(bytes);
        self
    }

    /// Run and report one benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let record = self.measure(name, f);
        println!(
            "{}: median {}  (p10 {}, p90 {}, {} samples)",
            record.id,
            fmt_ns(record.median_ns),
            fmt_ns(record.p10_ns),
            fmt_ns(record.p90_ns),
            record.samples,
        );
        emit_record(&record);
        self
    }

    /// Warm up and time one benchmark into its record.
    fn measure(&self, name: &str, mut f: impl FnMut(&mut Bencher)) -> PerfRecord {
        let samples = env_samples().unwrap_or(self.sample_size);
        let mut bencher = Bencher {
            samples: Vec::with_capacity(samples),
        };
        // Per-benchmark warm-up: repeat passes until the budget elapses
        // (at least one), so each target starts from hot caches and
        // faulted-in pages regardless of its position in the group.
        let warm_start = Instant::now();
        loop {
            f(&mut bencher);
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }
        // One more discarded pass immediately adjacent to the timed
        // loop: the budget loop above can satisfy its deadline mid-pass
        // and leave caches cold again by the time sampling starts, which
        // shows up as first-sample outliers dragging p90 away from the
        // median (tables/render_table1 in BENCH_0.json caught exactly
        // this).
        f(&mut bencher);
        bencher.samples.clear();
        for _ in 0..samples {
            f(&mut bencher);
        }
        let ns: Vec<u64> = bencher
            .samples
            .iter()
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .collect();
        PerfRecord::from_samples(format!("{}/{name}", self.group), &ns, self.bytes_per_iter)
    }
}

/// Append one record to the `JUBENCH_BENCH_JSON` JSON-lines sink, when
/// configured. Appending (not rewriting) lets every bench binary of a
/// `cargo bench` run share one stream; `bench merge` dedups by id,
/// keeping the last record.
fn emit_record(record: &PerfRecord) {
    let Ok(path) = std::env::var(JSON_ENV) else {
        return;
    };
    if path.trim().is_empty() {
        return;
    }
    use std::io::Write as _;
    let line = format!("{}\n", record.to_json());
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path.trim())
    {
        Ok(mut file) => {
            if let Err(e) = file.write_all(line.as_bytes()) {
                eprintln!("warning: could not append to {JSON_ENV}={path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not open {JSON_ENV}={path}: {e}"),
    }
}

/// Passed to each benchmark closure; records one timing sample per call.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time one execution of `f`.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = Instant::now();
        black_box(f());
        self.samples.push(start.elapsed());
    }
}

/// Declare the list of benchmark functions of this target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($fun:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $fun(&mut c); )+
        }
    };
}

/// Entry point: run every declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(sample_size: usize) -> BenchmarkGroup {
        let mut c = Criterion::default();
        c.warm_up_time(Duration::ZERO);
        let mut group = c.benchmark_group("t");
        group.sample_size(sample_size);
        group
    }

    #[test]
    fn bench_function_reports_and_runs() {
        let mut runs = 0;
        group(3).bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
            });
        });
        // 2 warm-up passes (zero budget + adjacent pass) + 3 samples.
        assert_eq!(runs, 5);
    }

    #[test]
    fn warm_up_is_per_benchmark_not_per_group() {
        let mut group = group(2);
        let mut first = 0;
        let mut second = 0;
        group.bench_function("first", |b| b.iter(|| first += 1));
        group.bench_function("second", |b| b.iter(|| second += 1));
        // Each target got its own warm-up passes on top of its samples.
        assert_eq!(first, 4);
        assert_eq!(second, 4);
    }

    #[test]
    fn bytes_per_iter_is_sticky_and_lands_in_the_record() {
        let mut group = group(2);
        let plain = group.measure("plain", |b| b.iter(|| 1 + 1));
        assert_eq!((plain.id.as_str(), plain.bytes_per_iter), ("t/plain", None));
        group.bytes_per_iter(4096);
        for name in ["tp", "again"] {
            let record = group.measure(name, |b| b.iter(|| 1 + 1));
            assert_eq!(record.bytes_per_iter, Some(4096), "{name}");
        }
    }
}
