//! The sharded metrics registry and its deterministic snapshot.
//!
//! Every recording thread owns one shard — a [`MetricsSnapshot`] behind
//! its own lock, created lazily and registered globally — and a shard
//! lives exactly as long as its thread: the thread-local's destructor
//! merges it into one `retired` accumulator and unregisters it, so a
//! process that spawns threads forever (a fresh one per rank per
//! `World::run`) holds one shard per *live* thread, not one per thread
//! that ever recorded. Recording touches only the owning thread's shard
//! — one short-held lock with no cross-thread contention — and the
//! global snapshot is `retired` merged with every live shard by
//! [`MetricsSnapshot::merge`], whose operators are order-independent:
//! counters and histograms merge by sum, gauges by max, scope stats by
//! sum. Merge order — and which threads have already exited — therefore
//! cannot leak into any rendered output, which is what makes the
//! snapshot deterministic for a deterministic workload even though shard
//! *contents* are wall-clock measurements.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of power-of-two histogram buckets. Bucket `i` counts values in
/// `[2^(i-1), 2^i - 1]` (bucket 0 holds zero); 48 buckets cover every
/// nanosecond duration up to ~3.25 days.
pub const HIST_BUCKETS: usize = 48;

/// Bucket index of one observed value: `ceil(log2(v))`, clamped.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// One thread's private slice of the registry.
type Shard = Arc<Mutex<MetricsSnapshot>>;

#[derive(Default)]
struct Shards {
    /// Everything recorded by threads that have exited.
    retired: MetricsSnapshot,
    /// One shard per live recording thread.
    live: Vec<Shard>,
}

fn shards() -> &'static Mutex<Shards> {
    static SHARDS: OnceLock<Mutex<Shards>> = OnceLock::new();
    SHARDS.get_or_init(Mutex::default)
}

/// Lock `m`, poisoned or not: every update below leaves its map valid
/// at every step (an insert, a saturating add), and a thread-local
/// destructor must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's handle on its shard. Dropped when the thread exits, which
/// retires the shard. Lock order everywhere: registry, then shard.
struct Local(Shard);

impl Drop for Local {
    fn drop(&mut self) {
        let mut shards = lock(shards());
        shards.live.retain(|s| !Arc::ptr_eq(s, &self.0));
        shards.retired.merge(&lock(&self.0));
    }
}

thread_local! {
    static SHARD: Local = {
        let shard = Shard::default();
        lock(shards()).live.push(Arc::clone(&shard));
        Local(shard)
    };
}

/// Apply `update` to this thread's shard — or, when the thread is
/// already tearing its locals down and the shard is gone, straight to
/// the retired accumulator.
fn record(update: impl Fn(&mut MetricsSnapshot)) {
    if SHARD.try_with(|s| update(&mut lock(&s.0))).is_err() {
        update(&mut lock(shards()).retired);
    }
}

pub(crate) fn shard_counter_add(name: &str, delta: u64) {
    record(|m| match m.counters.get_mut(name) {
        Some(v) => *v = v.saturating_add(delta),
        None => {
            m.counters.insert(name.to_string(), delta);
        }
    });
}

pub(crate) fn shard_gauge_max(name: &str, value: i64) {
    record(|m| match m.gauges.get_mut(name) {
        Some(v) => *v = (*v).max(value),
        None => {
            m.gauges.insert(name.to_string(), value);
        }
    });
}

pub(crate) fn shard_observe(name: &str, value: u64) {
    record(|m| {
        let h = match m.histograms.get_mut(name) {
            Some(h) => h,
            None => m
                .histograms
                .entry(name.to_string())
                .or_insert(HistogramSnapshot {
                    counts: vec![0; HIST_BUCKETS],
                    count: 0,
                    sum: 0,
                    min: u64::MAX,
                    max: 0,
                }),
        };
        h.counts[bucket_of(value)] += 1;
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
        h.min = h.min.min(value);
        h.max = h.max.max(value);
    });
}

pub(crate) fn shard_scope_record(path: &str, inclusive_ns: u64, exclusive_ns: u64) {
    record(|m| {
        let stat = match m.scopes.get_mut(path) {
            Some(stat) => stat,
            None => m.scopes.entry(path.to_string()).or_default(),
        };
        stat.count += 1;
        stat.inclusive_ns = stat.inclusive_ns.saturating_add(inclusive_ns);
        stat.exclusive_ns = stat.exclusive_ns.saturating_add(exclusive_ns);
    });
}

/// Everything recorded so far: the retired accumulator merged with
/// every live shard.
pub(crate) fn global_snapshot() -> MetricsSnapshot {
    let shards = lock(shards());
    let mut snap = shards.retired.clone();
    for shard in &shards.live {
        snap.merge(&lock(shard));
    }
    snap
}

/// Clear the retired accumulator and every live shard in place (the
/// shards themselves stay registered).
pub(crate) fn global_reset() {
    let mut shards = lock(shards());
    shards.retired = MetricsSnapshot::default();
    for shard in &shards.live {
        *lock(shard) = MetricsSnapshot::default();
    }
}

/// Serializes tests that flip process-global metrics state (the enabled
/// flag, [`crate::reset`]) so they cannot race each other.
pub fn test_mutex() -> &'static Mutex<()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
}

/// Accumulated wall time of one named profiling scope path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScopeStat {
    /// Times the scope was entered.
    pub count: u64,
    /// Total wall time inside the scope, children included.
    pub inclusive_ns: u64,
    /// Wall time inside the scope minus time inside child scopes.
    pub exclusive_ns: u64,
}

/// A merged histogram: fixed power-of-two buckets plus count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `counts[i]` observations fell in `[2^(i-1), 2^i - 1]` (`counts[0]`
    /// holds zeros; the last bucket absorbs everything larger).
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    pub(crate) fn bucket_upper(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q` of the total.
    pub(crate) fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A deterministic merge of every shard — and what each shard is: the
/// exported face of the registry. All maps are `BTreeMap`s, so iteration
/// — and therefore every rendering — is name-sorted and independent of
/// recording order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub scopes: BTreeMap<String, ScopeStat>,
}

impl MetricsSnapshot {
    /// Merge another snapshot into this one. Commutative and associative
    /// (sum/max/sum operators), so any merge order yields the same value —
    /// the property `tests/proptests.rs` sweeps. The registry itself
    /// merges with nothing else: a retiring thread's shard into the
    /// retired accumulator, and both into the global snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        /// Fold `other` into `into` name by name; `op` combines the two
        /// values of a name both sides hold.
        fn fold<V: Clone>(
            into: &mut BTreeMap<String, V>,
            other: &BTreeMap<String, V>,
            op: impl Fn(&mut V, &V),
        ) {
            for (name, v) in other {
                match into.get_mut(name) {
                    Some(slot) => op(slot, v),
                    None => {
                        into.insert(name.clone(), v.clone());
                    }
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b)
        });
        fold(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(*b));
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
        fold(&mut self.scopes, &other.scopes, |a, b| {
            a.count += b.count;
            a.inclusive_ns = a.inclusive_ns.saturating_add(b.inclusive_ns);
            a.exclusive_ns = a.exclusive_ns.saturating_add(b.exclusive_ns);
        });
    }

    /// The sub-snapshot of metrics whose name starts with `prefix` —
    /// what a service endpoint exposes when a tenant asks for one
    /// subsystem's metrics (e.g. `"serve/"`) instead of the whole
    /// process.
    pub fn filter_prefix(&self, prefix: &str) -> MetricsSnapshot {
        fn keep<V: Clone>(m: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
            m.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        }
        MetricsSnapshot {
            counters: keep(&self.counters, prefix),
            gauges: keep(&self.gauges, prefix),
            histograms: keep(&self.histograms, prefix),
            scopes: keep(&self.scopes, prefix),
        }
    }

    /// Prometheus-style text exposition: `# TYPE` headers, counters and
    /// gauges as plain samples, histograms as cumulative `_bucket{le=…}`
    /// series plus `_sum`/`_count`, scopes as two counters each.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let flat = flatten(name);
            out.push_str(&format!("# TYPE {flat} counter\n{flat} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let flat = flatten(name);
            out.push_str(&format!("# TYPE {flat} gauge\n{flat} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let flat = flatten(name);
            out.push_str(&format!("# TYPE {flat} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                out.push_str(&format!(
                    "{flat}_bucket{{le=\"{}\"}} {cumulative}\n",
                    HistogramSnapshot::bucket_upper(i)
                ));
            }
            out.push_str(&format!("{flat}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{flat}_sum {}\n{flat}_count {}\n", h.sum, h.count));
        }
        for (path, s) in &self.scopes {
            let flat = format!("scope_{}", flatten(path));
            out.push_str(&format!(
                "# TYPE {flat}_inclusive_ns counter\n{flat}_inclusive_ns {}\n",
                s.inclusive_ns
            ));
            out.push_str(&format!(
                "# TYPE {flat}_exclusive_ns counter\n{flat}_exclusive_ns {}\n",
                s.exclusive_ns
            ));
        }
        out
    }

    /// Stable JSON encoding: objects keyed by metric name, name-sorted.
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        let mut out = String::from("{\n  \"counters\": {");
        push_map(&mut out, self.counters.iter(), |v| v.to_string());
        out.push_str("},\n  \"gauges\": {");
        push_map(&mut out, self.gauges.iter(), |v| v.to_string());
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}}}",
                escape(k),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.quantile_upper(0.50),
                h.quantile_upper(0.90),
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"scopes\": {");
        first = true;
        for (k, s) in &self.scopes {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"inclusive_ns\": {}, \"exclusive_ns\": {}}}",
                escape(k),
                s.count,
                s.inclusive_ns,
                s.exclusive_ns,
            ));
        }
        if !self.scopes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// The collapsed-stack self-profile: `stack;frames value` lines with
    /// exclusive nanoseconds as values, the format `flamegraph.pl` and
    /// speedscope ingest directly.
    pub(crate) fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, s) in &self.scopes {
            out.push_str(&format!("{path} {}\n", s.exclusive_ns));
        }
        out
    }
}

fn push_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    fmt: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", crate::json::escape(k), fmt(v)));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// Metric names use `/` as the namespace separator (`pool/steals`);
/// Prometheus sample names cannot, so flatten to `_`.
fn flatten(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 3);
        a.gauges.insert("g".into(), 5);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 4);
        b.gauges.insert("g".into(), 2);
        b.counters.insert("only_b".into(), 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["c"], 7);
        assert_eq!(ab.gauges["g"], 5);
    }

    #[test]
    fn snapshot_merges_across_threads() {
        let _guard = test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    crate::counter_add("t/reg_threads", 10);
                    crate::gauge_max("t/reg_peak", 21);
                    crate::observe("t/reg_obs", 100);
                });
            }
        });
        let snap = crate::snapshot();
        assert_eq!(snap.counters["t/reg_threads"], 40);
        assert_eq!(snap.gauges["t/reg_peak"], 21);
        assert_eq!(snap.histograms["t/reg_obs"].count, 4);
        assert_eq!(snap.histograms["t/reg_obs"].sum, 400);
        crate::reset();
    }

    #[test]
    fn quantiles_are_bucket_resolved() {
        let mut h = HistogramSnapshot {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        };
        let mut add = |v: u64| {
            h.counts[bucket_of(v)] += 1;
            h.count += 1;
            h.sum += v;
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        };
        for _ in 0..90 {
            add(10);
        }
        for _ in 0..10 {
            add(5000);
        }
        assert!(h.quantile_upper(0.5) <= 15);
        assert!(h.quantile_upper(0.99) >= 4096);
        assert_eq!(h.quantile_upper(1.0), 5000);
    }

    #[test]
    fn renders_are_stable_and_name_sorted() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("b/two".into(), 2);
        s.counters.insert("a/one".into(), 1);
        let text = s.render_prometheus();
        let a = text.find("a_one 1").unwrap();
        let b = text.find("b_two 2").unwrap();
        assert!(a < b);
        let json = s.to_json();
        assert!(json.find("a/one").unwrap() < json.find("b/two").unwrap());
    }
}
