//! The regression gate: compare two `BENCH_*.json` reports.
//!
//! For every benchmark id in either report the gate computes the relative
//! median delta `new/baseline - 1` and classifies it against a
//! symmetric tolerance band. Self-comparison of any report yields zero
//! deltas across the board — the round-trip sanity check CI runs against
//! the committed baseline.

use crate::perf::{fmt_ns, PerfReport};

/// The tolerance `bench compare` gates with unless told otherwise. A
/// benchmark regresses when its median grows by more than this fraction
/// (improves when it shrinks by more); wall-clock medians on shared CI
/// runners jitter, so it is deliberately loose.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Classification of one benchmark's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Median grew beyond the tolerance.
    Regression,
    /// Median shrank beyond the tolerance.
    Improvement,
    /// Within the tolerance band (includes exact equality).
    Unchanged,
    /// Present only in the baseline (benchmark removed or not run).
    OnlyInBaseline,
    /// Present only in the new report (benchmark added).
    OnlyInNew,
}

/// The one tolerance band: the relative delta `new/baseline - 1` (where
/// both sides exist; 0 for `0 → 0`, `+∞` for `0 →` anything else) and
/// its class. A value stays [`DeltaKind::Unchanged`] up to and including
/// `baseline · (1 ± tolerance)` — the edge is the product, which a
/// caller can compute exactly, not the rounded quotient. A missing `new`
/// is [`DeltaKind::OnlyInBaseline`] whether or not there was a baseline:
/// nothing was measured.
pub fn classify(
    baseline: Option<f64>,
    new: Option<f64>,
    tolerance: f64,
) -> (Option<f64>, DeltaKind) {
    match (baseline, new) {
        (_, None) => (None, DeltaKind::OnlyInBaseline),
        (None, Some(_)) => (None, DeltaKind::OnlyInNew),
        (Some(b), Some(n)) => {
            let ratio = if b != 0.0 {
                n / b - 1.0
            } else if n == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            let kind = if n > b * (1.0 + tolerance) {
                DeltaKind::Regression
            } else if n < b * (1.0 - tolerance) {
                DeltaKind::Improvement
            } else {
                DeltaKind::Unchanged
            };
            (Some(ratio), kind)
        }
    }
}

/// One benchmark's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub id: String,
    pub baseline_ns: Option<u64>,
    pub new_ns: Option<u64>,
    /// `new/baseline - 1` when both sides exist and the baseline is
    /// non-zero; `+0.10` means 10 % slower.
    pub ratio: Option<f64>,
    pub kind: DeltaKind,
}

/// The gate's verdict over a full report pair.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// One row per id in either report, sorted by id.
    pub deltas: Vec<Delta>,
    pub tolerance: f64,
}

impl GateReport {
    /// Rows classified as regressions.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.kind == DeltaKind::Regression)
            .collect()
    }

    /// Rows classified as improvements.
    pub fn improvements(&self) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.kind == DeltaKind::Improvement)
            .collect()
    }

    /// The gate passes when nothing regressed beyond the tolerance.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Human-readable comparison table plus a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>9}  {}\n",
            "benchmark", "baseline", "new", "delta", "verdict"
        ));
        for d in &self.deltas {
            let fmt_side = |ns: Option<u64>| ns.map_or("-".to_string(), fmt_ns);
            let delta = d
                .ratio
                .map_or("-".to_string(), |r| format!("{:+.1}%", r * 100.0));
            let verdict = match d.kind {
                DeltaKind::Regression => "REGRESSION",
                DeltaKind::Improvement => "improvement",
                DeltaKind::Unchanged => "ok",
                DeltaKind::OnlyInBaseline => "removed",
                DeltaKind::OnlyInNew => "new",
            };
            out.push_str(&format!(
                "{:<44} {:>14} {:>14} {:>9}  {}\n",
                d.id,
                fmt_side(d.baseline_ns),
                fmt_side(d.new_ns),
                delta,
                verdict
            ));
        }
        let n_reg = self.regressions().len();
        let n_imp = self.improvements().len();
        out.push_str(&format!(
            "gate: {} — {} benchmarks, {} regression(s), {} improvement(s), tolerance ±{:.0}%\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            n_reg,
            n_imp,
            self.tolerance * 100.0
        ));
        out
    }
}

/// Compare `new` against `baseline`, classifying each median delta with
/// [`classify`] under `tolerance`.
pub fn compare(baseline: &PerfReport, new: &PerfReport, tolerance: f64) -> GateReport {
    let mut ids: Vec<&str> = baseline
        .records
        .iter()
        .chain(&new.records)
        .map(|r| r.id.as_str())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let deltas = ids
        .into_iter()
        .map(|id| {
            let b = baseline.get(id).map(|r| r.median_ns);
            let n = new.get(id).map(|r| r.median_ns);
            let (ratio, kind) = classify(b.map(|ns| ns as f64), n.map(|ns| ns as f64), tolerance);
            Delta {
                id: id.to_string(),
                baseline_ns: b,
                new_ns: n,
                ratio,
                kind,
            }
        })
        .collect();
    GateReport { deltas, tolerance }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfRecord;

    fn report(pairs: &[(&str, u64)]) -> PerfReport {
        PerfReport::new(
            pairs
                .iter()
                .map(|(id, ns)| PerfRecord {
                    id: id.to_string(),
                    median_ns: *ns,
                    p10_ns: *ns,
                    p90_ns: *ns,
                    samples: 10,
                    bytes_per_iter: None,
                })
                .collect(),
        )
    }

    #[test]
    fn self_compare_reports_zero_deltas() {
        let r = report(&[("a/x", 1000), ("b/y", 2000)]);
        let gate = compare(&r, &r, DEFAULT_TOLERANCE);
        assert!(gate.passed());
        assert!(gate.deltas.iter().all(|d| d.ratio == Some(0.0)));
        assert!(gate.deltas.iter().all(|d| d.kind == DeltaKind::Unchanged));
    }

    #[test]
    fn synthetic_slowdown_is_flagged() {
        let base = report(&[("a/x", 1000), ("b/y", 2000)]);
        let slow = report(&[("a/x", 2000), ("b/y", 2000)]);
        let gate = compare(&base, &slow, DEFAULT_TOLERANCE);
        assert!(!gate.passed());
        let regs = gate.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "a/x");
        assert!((regs[0].ratio.unwrap() - 1.0).abs() < 1e-12);
        assert!(gate.render().contains("REGRESSION"));
    }

    #[test]
    fn improvements_and_membership_changes_do_not_fail_the_gate() {
        let base = report(&[("a/x", 2000), ("gone/z", 10)]);
        let new = report(&[("a/x", 1000), ("added/w", 10)]);
        let gate = compare(&base, &new, DEFAULT_TOLERANCE);
        assert!(gate.passed());
        assert_eq!(gate.improvements().len(), 1);
        let kinds: Vec<DeltaKind> = gate.deltas.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DeltaKind::OnlyInBaseline));
        assert!(kinds.contains(&DeltaKind::OnlyInNew));
    }

    /// `new = baseline · (1 ± tolerance)` is still inside the band, also
    /// where the quotient rounds past it (`1100 / 1000 - 1` is
    /// `0.10000000000000009`).
    #[test]
    fn the_edge_of_the_band_is_unchanged() {
        let base = report(&[("a/x", 1000)]);
        for (tolerance, edges) in [(0.1, [1100, 900]), (0.25, [1250, 750])] {
            for edge in edges {
                let gate = compare(&base, &report(&[("a/x", edge)]), tolerance);
                assert_eq!(gate.deltas[0].kind, DeltaKind::Unchanged, "{edge}");
            }
            let slower = report(&[("a/x", edges[0] + 1)]);
            let gate = compare(&base, &slower, tolerance);
            assert_eq!(gate.deltas[0].kind, DeltaKind::Regression);
            let faster = report(&[("a/x", edges[1] - 1)]);
            let gate = compare(&base, &faster, tolerance);
            assert_eq!(gate.deltas[0].kind, DeltaKind::Improvement);
        }
    }

    #[test]
    fn tolerance_band_is_symmetric_and_configurable() {
        let base = report(&[("a/x", 1000)]);
        let ten_pct = report(&[("a/x", 1100)]);
        let loose = compare(&base, &ten_pct, 0.25);
        assert!(loose.passed());
        let strict = compare(&base, &ten_pct, 0.05);
        assert!(!strict.passed());
    }
}
