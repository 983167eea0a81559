//! # jubench-metrics — wall-clock self-observability for the suite
//!
//! The suite observes the *simulated* machine through `jubench-trace`
//! (virtual-time events, run reports, Chrome traces). This crate is the
//! complementary layer that observes the suite's *own execution* in wall
//! time, so the hot paths have a measured performance trajectory instead
//! of folklore:
//!
//! - [`registry`]: a process-wide metrics registry — counters, gauges,
//!   and fixed-bucket histograms — sharded per recording thread and
//!   merged deterministically at snapshot time. A shard lives as long as
//!   its thread: at thread exit it is merged into one retired
//!   accumulator and unregistered, so a service that spawns rank threads
//!   forever keeps one shard per *live* thread and every count ever
//!   recorded. Snapshots render as a Prometheus-style text exposition
//!   and as a stable JSON encoding.
//! - [`scope`]: wall-clock profiling scopes ([`profile_scope!`]) that
//!   accumulate exclusive/inclusive nanoseconds per named scope and
//!   export a collapsed-stack (`flamegraph.pl`-compatible) self-profile.
//! - [`json`]: the string escaping the JSON exposition shares with the
//!   Chrome trace export.
//!
//! Speed is measured elsewhere: `benchmark/` is the one perf harness, and
//! `BENCHMARK.json` names its end-to-end and per-layer metrics.
//!
//! ## The hard invariant: observational only
//!
//! Metrics are *read-only observers* of the computation. No deterministic
//! output — result tables, Chrome traces, snapshots — may depend on
//! whether metrics are enabled, on their values, or on the pool width.
//! `tests/parallel_determinism.rs` enforces byte-identity of every
//! artifact with metrics on and off at 1/2/8 pool threads.
//!
//! ## Kill switch
//!
//! The registry compiles in unconditionally but can be disabled at
//! runtime: set `JUBENCH_METRICS=0` in the environment (mirroring
//! `JUBENCH_POOL_THREADS`), or call [`set_enabled`]`(false)` from code.
//! Disabled recording paths are a single relaxed atomic load.

pub mod json;
pub mod registry;
pub mod scope;

pub use registry::{HistogramSnapshot, MetricsSnapshot, ScopeStat};

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable disabling the registry at runtime when set to `0`.
pub const METRICS_ENV: &str = "JUBENCH_METRICS";

/// Tri-state enabled flag: 0 = unresolved (consult the environment),
/// 1 = disabled, 2 = enabled. [`set_enabled`] pins it programmatically.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether recording is currently enabled. Resolution order: the last
/// [`set_enabled`] call, else `JUBENCH_METRICS` (`0` disables), else on.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var(METRICS_ENV).map_or(true, |v| v.trim() != "0");
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically enable or disable recording, overriding the
/// environment. The determinism harness flips this to prove that every
/// deterministic artifact is byte-identical either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Add `delta` to the named counter (merged across threads by sum).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        registry::shard_counter_add(name, delta);
    }
}

/// Raise the named gauge to at least `value` (merged across threads by
/// max). Gauges record high-water marks — queue depths, buffer
/// capacities — so the max merge is order-independent by construction.
#[inline]
pub fn gauge_max(name: &str, value: i64) {
    if enabled() {
        registry::shard_gauge_max(name, value);
    }
}

/// Record one observation (in nanoseconds, or any non-negative unit) into
/// the named fixed-bucket histogram (merged across threads bucket-wise).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        registry::shard_observe(name, value);
    }
}

/// Everything recorded so far — by live and exited threads alike — as
/// one deterministic [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    registry::global_snapshot()
}

/// Zero every shard — counters, gauges, histograms, and scope stats.
/// Tests use this to measure one region in isolation.
pub fn reset() {
    registry::global_reset();
}

/// The collapsed-stack self-profile accumulated by [`profile_scope!`]
/// guards so far: one `stack;frames value` line per distinct stack,
/// sorted, with exclusive nanoseconds as the value — feed it straight to
/// `flamegraph.pl`.
pub fn self_profile_collapsed() -> String {
    registry::global_snapshot().render_collapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_suppresses_recording() {
        // Serialize against other tests that flip the global flag.
        let _guard = registry::test_mutex().lock().unwrap();
        reset();
        set_enabled(false);
        counter_add("t/killed", 7);
        gauge_max("t/killed_g", 7);
        observe("t/killed_h", 7);
        assert!(snapshot().counters.is_empty());
        set_enabled(true);
        counter_add("t/live", 7);
        assert_eq!(snapshot().counters.get("t/live"), Some(&7));
        reset();
    }
}
