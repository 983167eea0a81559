//! Small numeric helpers: medians and tail percentiles, the streaming
//! 128-bit artifact digest, and the process's peak resident set.

use jubench::core::fnv1a64_with;
use jubench::core::hash::FNV1A64_OFFSET;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of a latency sample whose `independent` completions are
/// independent of each other (closed-loop batches: every campaign of a
/// batch is done at the same instant): p95 when at least
/// [`TAIL_MIN_BEYOND`] independent completions lie beyond it (≥ 200);
/// otherwise the highest percentile that still has that many beyond;
/// otherwise (< 20) the median. Returns `(percentile reported, value)`.
pub fn tail(values: &[f64], independent: usize) -> (f64, f64) {
    if values.is_empty() {
        return (0.5, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = independent.min(v.len());
    let q = if n < 2 * TAIL_MIN_BEYOND {
        0.5
    } else {
        (1.0 - TAIL_MIN_BEYOND as f64 / n as f64).min(0.95)
    };
    (q, percentile_sorted(&v, q))
}

/// Streaming FNV-1a-128 in the repo's own construction
/// (`core::content_key128`: two FNV-1a-64 passes, the second seeded by
/// the inverted offset basis), so artifacts of two commits at one seed
/// compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hi: u64,
    lo: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hi: FNV1A64_OFFSET,
            lo: !FNV1A64_OFFSET,
        }
    }
}

impl Digest {
    /// Fold `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        self.hi = fnv1a64_with(self.hi, bytes);
        self.lo = fnv1a64_with(self.lo, bytes);
    }

    /// Digest of one campaign's deterministic artifacts.
    pub fn of_artifacts(table: &str, chrome_trace: &str) -> Digest {
        let mut d = Digest::default();
        d.update(table.as_bytes());
        d.update(&[0]);
        d.update(chrome_trace.as_bytes());
        d
    }

    /// Fold another digest in (campaign order matters).
    pub fn absorb(&mut self, other: Digest) {
        self.update(&other.value().to_le_bytes());
    }

    /// The 128-bit value.
    pub fn value(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p95_only_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 samples: p95 = rank 190, ten beyond.
        assert_eq!(tail(&ramp(200), 200), (0.95, 190.0));
        // 1000 samples: still p95, fifty beyond.
        assert_eq!(tail(&ramp(1000), 1000), (0.95, 950.0));
        // 100 samples: p95 would leave five beyond; fall back to p90.
        assert_eq!(tail(&ramp(100), 100), (0.9, 90.0));
        // 800 samples that completed in 100 batches are 100 completions.
        assert_eq!(tail(&ramp(800), 100), (0.9, 720.0));
        // Fewer than twenty completions support no tail: the median.
        assert_eq!(tail(&ramp(6), 6), (0.5, 3.0));
        assert_eq!(tail(&ramp(1000), 10), (0.5, 500.0));
    }

    #[test]
    fn digest_matches_the_repo_content_key() {
        let mut d = Digest::default();
        d.update(b"hello ");
        d.update(b"world");
        assert_eq!(d.value(), jubench::core::content_key128(b"hello world"));
        assert_ne!(
            Digest::of_artifacts("a", "b").value(),
            Digest::of_artifacts("ab", "").value()
        );
    }
}
