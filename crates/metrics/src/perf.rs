//! Structured benchmark records and the `BENCH_<n>.json` report format.
//!
//! The in-repo Criterion-shaped harness (`jubench-bench`) emits one
//! [`PerfRecord`] per benchmark — median/p10/p90 wall time over its
//! samples, plus bytes-per-iteration where the target declared a
//! throughput. Records stream out as JSON lines (one self-contained
//! object per line, safe to append from several bench binaries) and are
//! merged into one [`PerfReport`], the `BENCH_<n>.json` artifact that the
//! regression gate ([`crate::gate`]) compares across commits.
//!
//! ## `BENCH_<n>.json` schema (`jubench-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "jubench-bench/v1",
//!   "benchmarks": [
//!     {"id": "kernels/laplacian_grid3_24", "median_ns": 23474, "p10_ns": 23337,
//!      "p90_ns": 23490, "samples": 3, "bytes_per_iter": 221184}
//!   ]
//! }
//! ```
//!
//! `id` is `group/name`, unique and sorted; `bytes_per_iter` is `null`
//! when the target declared no throughput.

use crate::json::{escape, JsonValue};

/// Schema identifier written into every `BENCH_<n>.json`.
pub const BENCH_SCHEMA: &str = "jubench-bench/v1";

/// One benchmark's measured wall-time summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfRecord {
    /// `group/name`, unique within a report.
    pub id: String,
    /// Median wall time of one iteration, nanoseconds.
    pub median_ns: u64,
    /// 10th / 90th percentile wall times, nanoseconds.
    pub p10_ns: u64,
    pub p90_ns: u64,
    /// Number of timed samples the percentiles were computed over.
    pub samples: u32,
    /// Payload bytes processed per iteration, when the target declared a
    /// throughput — turns the record into a bandwidth figure.
    pub bytes_per_iter: Option<u64>,
}

impl PerfRecord {
    /// Summarize raw per-sample nanosecond timings (need not be sorted).
    pub fn from_samples(id: impl Into<String>, ns: &[u64], bytes_per_iter: Option<u64>) -> Self {
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        let pick = |q: f64| {
            if sorted.is_empty() {
                0
            } else {
                let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
                sorted[idx]
            }
        };
        PerfRecord {
            id: id.into(),
            median_ns: pick(0.5),
            p10_ns: pick(0.1),
            p90_ns: pick(0.9),
            samples: sorted.len() as u32,
            bytes_per_iter,
        }
    }

    /// One self-contained JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let bytes = self
            .bytes_per_iter
            .map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"id\": \"{}\", \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}, \"samples\": {}, \"bytes_per_iter\": {}}}",
            escape(&self.id),
            self.median_ns,
            self.p10_ns,
            self.p90_ns,
            self.samples,
            bytes,
        )
    }

    /// Decode one record object.
    pub fn from_json(v: &JsonValue) -> Result<PerfRecord, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record missing {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("record field {k:?} is not a non-negative integer"))
        };
        Ok(PerfRecord {
            id: field("id")?
                .as_str()
                .ok_or("record field \"id\" is not a string")?
                .to_string(),
            median_ns: num("median_ns")?,
            p10_ns: num("p10_ns")?,
            p90_ns: num("p90_ns")?,
            samples: u32::try_from(num("samples")?)
                .map_err(|_| "record field \"samples\" is not a non-negative integer")?,
            bytes_per_iter: match v.get("bytes_per_iter") {
                None | Some(JsonValue::Null) => None,
                Some(b) => Some(
                    b.as_u64()
                        .ok_or("record field \"bytes_per_iter\" is not an integer")?,
                ),
            },
        })
    }
}

/// A nanosecond duration in the largest unit that keeps it ≥ 1, three
/// decimals (`12 ns`, `1.500 µs`, `2.000 ms`, `3.000 s`) — how the harness
/// summary line and the gate table print a median.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A full `BENCH_<n>.json` document: the sorted, deduplicated record set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfReport {
    pub records: Vec<PerfRecord>,
}

impl PerfReport {
    /// Build a report from records in any order; sorts by id and keeps
    /// the *last* record per id (so a re-run of one bench binary
    /// supersedes its earlier lines in an appended stream).
    pub fn new(records: Vec<PerfRecord>) -> Self {
        let mut last = std::collections::BTreeMap::new();
        for r in records {
            last.insert(r.id.clone(), r);
        }
        PerfReport {
            records: last.into_values().collect(),
        }
    }

    /// Record by id.
    pub fn get(&self, id: &str) -> Option<&PerfRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Encode the `BENCH_<n>.json` document (stable: sorted ids, fixed
    /// layout — identical inputs give identical bytes).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&r.to_json());
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a `BENCH_<n>.json` document, validating the schema tag.
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        let doc = JsonValue::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (want {BENCH_SCHEMA:?})"
            ));
        }
        let items = doc
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .ok_or("missing \"benchmarks\" array")?;
        let records = items
            .iter()
            .map(PerfRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PerfReport::new(records))
    }

    /// Parse an appended JSON-lines stream (the harness's intermediate
    /// format); blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<PerfReport, String> {
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            records
                .push(PerfRecord::from_json(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
        Ok(PerfReport::new(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, median: u64) -> PerfRecord {
        PerfRecord {
            id: id.into(),
            median_ns: median,
            p10_ns: median - median / 10,
            p90_ns: median + median / 10,
            samples: 20,
            bytes_per_iter: median.is_multiple_of(2).then_some(4096),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = PerfReport::new(vec![record("b/two", 2000), record("a/one", 1001)]);
        let text = report.to_json();
        let back = PerfReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // Stable bytes: encoding the parse result reproduces the text.
        assert_eq!(back.to_json(), text);
        // Sorted by id.
        assert_eq!(back.records[0].id, "a/one");
    }

    #[test]
    fn from_samples_summarizes_percentiles() {
        let ns: Vec<u64> = (1..=100).collect();
        let r = PerfRecord::from_samples("g/n", &ns, Some(1 << 20));
        assert_eq!(r.samples, 100);
        assert_eq!(r.median_ns, 51);
        assert_eq!(r.p10_ns, 11);
        assert_eq!(r.p90_ns, 90);
        assert_eq!(r.bytes_per_iter, Some(1 << 20));
    }

    #[test]
    fn jsonl_keeps_last_record_per_id() {
        let jsonl = format!(
            "{}\n\n{}\n{}\n",
            record("k/x", 500).to_json(),
            record("k/y", 600).to_json(),
            record("k/x", 900).to_json(),
        );
        let report = PerfReport::from_jsonl(&jsonl).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.get("k/x").unwrap().median_ns, 900);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = "{\"schema\": \"other/v9\", \"benchmarks\": []}";
        assert!(PerfReport::from_json(text).is_err());
    }

    /// A sample count past `u32::MAX` is refused, not wrapped
    /// (`4294967299` once read as 3).
    #[test]
    fn samples_beyond_u32_are_refused() {
        let text = record("a/x", 1000)
            .to_json()
            .replace("\"samples\": 20", "\"samples\": 4294967299");
        let err = PerfRecord::from_json(&JsonValue::parse(&text).unwrap()).unwrap_err();
        assert_eq!(
            err,
            "record field \"samples\" is not a non-negative integer"
        );
        let max = text.replace("4294967299", &u32::MAX.to_string());
        let r = PerfRecord::from_json(&JsonValue::parse(&max).unwrap()).unwrap();
        assert_eq!(r.samples, u32::MAX);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }

    #[test]
    fn null_bytes_per_iter_round_trips() {
        let r = record("a/odd", 1001);
        assert!(r.bytes_per_iter.is_none());
        let v = JsonValue::parse(&r.to_json()).unwrap();
        assert_eq!(PerfRecord::from_json(&v).unwrap(), r);
    }
}
