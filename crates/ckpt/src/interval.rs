//! Optimal checkpoint-interval formulas (Young 1974, Daly 2006) and
//! the checkpoint-write train they induce.
//!
//! With checkpoint cost `C` and node mean time between failures `M`,
//! writing checkpoints too often wastes time on I/O while writing them
//! too rarely loses work to each failure. Young's first-order optimum
//! balances the two; Daly's higher-order expansion corrects it when `C`
//! is not small against `M`. The `scaling::ckpt` study sweeps intervals
//! around these predictions and tabulates the measured makespans.
//!
//! [`WriteTimes`] turns an attempt's interval spec into the write
//! instants of the same plan, for the scheduler's trace emission.

/// Young's first-order optimal checkpoint interval: `sqrt(2 C M)`.
///
/// `cost_s` is the time to write one checkpoint; `mtbf_s` the mean time
/// between failures of the job's allocation. Both must be positive.
pub fn young_interval(cost_s: f64, mtbf_s: f64) -> f64 {
    assert!(
        cost_s > 0.0 && mtbf_s > 0.0,
        "cost and MTBF must be positive"
    );
    (2.0 * cost_s * mtbf_s).sqrt()
}

/// Daly's higher-order optimal checkpoint interval.
///
/// For `cost_s < 2 * mtbf_s` this is Young's value times a perturbation
/// series in `sqrt(cost / 2 mtbf)`, minus the checkpoint cost itself;
/// beyond that regime checkpointing cannot pay for itself within one
/// failure period and the interval saturates at the MTBF.
pub fn daly_interval(cost_s: f64, mtbf_s: f64) -> f64 {
    assert!(
        cost_s > 0.0 && mtbf_s > 0.0,
        "cost and MTBF must be positive"
    );
    if cost_s < 2.0 * mtbf_s {
        let x = (cost_s / (2.0 * mtbf_s)).sqrt();
        (2.0 * cost_s * mtbf_s).sqrt() * (1.0 + x / 3.0 + x * x / 9.0) - cost_s
    } else {
        mtbf_s
    }
}

/// The checkpoint-write train of one attempt: `writes` writes, where
/// write `j` (1-based) starts at
///
/// ```text
/// start_s + j · interval_s + (j − 1) · cost_s
/// ```
///
/// — after `j` full intervals of work and the `j − 1` earlier writes —
/// and occupies `cost_s` of wall time. Each instant is computed from
/// `j` directly (multiplied, never accumulated), so the times are
/// byte-identical to the closed-form expression whatever order or
/// subset of the train is consumed. An `Iterator` of `(start, end)`
/// spans.
#[derive(Debug, Clone)]
pub struct WriteTimes {
    start_s: f64,
    interval_s: f64,
    cost_s: f64,
    writes: u32,
    j: u32,
}

impl WriteTimes {
    /// The write train of an attempt starting at `start_s` under an
    /// (`interval_s`, `cost_s`) spec, planning `writes` writes.
    pub fn new(start_s: f64, interval_s: f64, cost_s: f64, writes: u32) -> Self {
        WriteTimes {
            start_s,
            interval_s,
            cost_s,
            writes,
            j: 0,
        }
    }

    fn span(&self, j: u32) -> (f64, f64) {
        let j = j as u64;
        let w_start = self.start_s + j as f64 * self.interval_s + (j - 1) as f64 * self.cost_s;
        (w_start, w_start + self.cost_s)
    }
}

impl Iterator for WriteTimes {
    /// `(write start, write end)` in virtual seconds.
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        if self.j >= self.writes {
            return None;
        }
        self.j += 1;
        Some(self.span(self.j))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.writes - self.j) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for WriteTimes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_times_match_the_closed_form() {
        let spans: Vec<(f64, f64)> = WriteTimes::new(2.5, 1.0, 0.01, 3).collect();
        let expect: Vec<(f64, f64)> = (1..=3u64)
            .map(|j| {
                let s = 2.5 + j as f64 * 1.0 + (j - 1) as f64 * 0.01;
                (s, s + 0.01)
            })
            .collect();
        assert_eq!(spans, expect);
    }

    #[test]
    fn empty_write_train_is_exhausted() {
        let train = WriteTimes::new(1.0, 1.0, 0.1, 0);
        assert_eq!(train.len(), 0);
        assert_eq!(train.count(), 0);
    }

    #[test]
    fn young_matches_closed_form() {
        assert!((young_interval(2.0, 100.0) - 20.0).abs() < 1e-12);
        assert!((young_interval(0.5, 3600.0) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn daly_approaches_young_for_cheap_checkpoints() {
        // As C/M → 0 the correction terms vanish.
        let c = 1e-6;
        let m = 1e4;
        let y = young_interval(c, m);
        let d = daly_interval(c, m);
        assert!((d - y).abs() / y < 1e-3);
    }

    #[test]
    fn daly_saturates_at_mtbf() {
        assert_eq!(daly_interval(500.0, 100.0), 100.0);
    }

    #[test]
    fn daly_exceeds_young_minus_cost_in_normal_regime() {
        // The positive series terms mean Daly > Young − C.
        let (c, m) = (5.0, 1000.0);
        assert!(daly_interval(c, m) > young_interval(c, m) - c);
        assert!(daly_interval(c, m) < m);
    }
}
