//! The real-track store: the second cache level, one per [`Server`].
//!
//! The [`ResultCache`](crate::cache::ResultCache) is the first level: a
//! shard's own, keyed by the content address of a run point — machine
//! fingerprint included — so two backends never share a *point*. But
//! every [`Benchmark`](jubench_core::Benchmark) is three stages, and
//! the expensive one, the real execution, depends on a [`RealLayout`]
//! in which no machine appears: a point that missed the result cache
//! may still find its track here — executed by another backend's
//! campaign, on another shard.
//!
//! One once-cell per `(benchmark, layout)`: the map lock is held only to
//! find or make the cell, never while executing; whoever takes the empty
//! cell executes, and a second shard that wants the key meanwhile parks
//! on the cell instead of recomputing. An execution that fails or panics
//! leaves the cell empty, so the next caller retries.
//!
//! The store is **observational**, like the cache in front of it: what
//! a row reads of a track is a pure function of its key (the host rates
//! the compute synthetics report are not, and no row reads them), so
//! sharing changes *whether* a real execution runs, never what a row
//! says. Nothing of it is
//! snapshotted, migrated, framed or reported; it dies with its server.
//!
//! [`Server`]: crate::server::Server

use jubench_core::{BenchmarkId, RealLayout, RealTrack, SuiteError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};

/// What a server's real-track store has done so far. Every request is
/// either `executed` or `shared`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealTrackStats {
    /// Real executions run.
    pub executed: u64,
    /// Requests answered with a track another request executed.
    pub shared: u64,
    /// How many of the `shared` found their track still in flight and
    /// parked until it arrived — scheduling-dependent, unlike the other
    /// two, and zero on an inline drain.
    pub waited: u64,
}

type Key = (BenchmarkId, RealLayout);

/// One key's once-cell: empty until an execution succeeds. The guard is
/// held while executing, which is what parks a second caller.
type Cell = Mutex<Option<Arc<RealTrack>>>;

#[derive(Debug, Default)]
struct Index {
    cells: HashMap<Key, Arc<Cell>>,
    /// Keys in insertion order: the eviction order.
    order: VecDeque<Key>,
}

/// A bounded store of [`RealTrack`]s shared by the shards of one server.
#[derive(Debug)]
pub(crate) struct RealTracks {
    capacity: usize,
    index: Mutex<Index>,
    executed: AtomicU64,
    shared: AtomicU64,
    waited: AtomicU64,
}

impl RealTracks {
    /// A store of at most `capacity` tracks; 0 turns sharing off (every
    /// request executes).
    pub(crate) fn new(capacity: usize) -> Self {
        RealTracks {
            capacity,
            index: Mutex::new(Index::default()),
            executed: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            waited: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> RealTrackStats {
        // Statistics only: no other data is published through them.
        RealTrackStats {
            executed: self.executed.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
            waited: self.waited.load(Ordering::Relaxed),
        }
    }

    /// The cell of `key`, made (evicting the oldest key at capacity) if
    /// the store does not hold one. Evicting a cell in flight is
    /// harmless: its holders keep it alive, and the next request for
    /// the key executes again — to the same track.
    fn cell(&self, key: Key) -> Arc<Cell> {
        // Every update below leaves the index valid at every step, so a
        // panic elsewhere while it was held loses nothing.
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = index.cells.get(&key) {
            return Arc::clone(cell);
        }
        if index.cells.len() >= self.capacity {
            if let Some(oldest) = index.order.pop_front() {
                index.cells.remove(&oldest);
            }
        }
        let cell = Arc::new(Cell::default());
        index.order.push_back(key.clone());
        index.cells.insert(key, Arc::clone(&cell));
        cell
    }

    /// The track of `(bench, layout)`: the stored one, or `execute`'s —
    /// stored only if it succeeds.
    pub(crate) fn get_or_execute(
        &self,
        bench: BenchmarkId,
        layout: RealLayout,
        execute: impl FnOnce(&RealLayout) -> Result<RealTrack, SuiteError>,
    ) -> Result<Arc<RealTrack>, SuiteError> {
        let count = |counter: &AtomicU64, name: &str| {
            counter.fetch_add(1, Ordering::Relaxed);
            jubench_metrics::counter_add(name, 1);
        };
        if self.capacity == 0 {
            let track = Arc::new(execute(&layout)?);
            count(&self.executed, "serve/real_tracks/executed");
            return Ok(track);
        }
        let cell = self.cell((bench, layout.clone()));
        let mut parked = false;
        // A cell is poisoned by an execution that panicked under its
        // guard; the slot is written only after one returns, so it is
        // still the valid empty slot and the next caller retries.
        let mut slot = match cell.try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                parked = true;
                cell.lock().unwrap_or_else(PoisonError::into_inner)
            }
        };
        if let Some(track) = &*slot {
            count(&self.shared, "serve/real_tracks/shared");
            if parked {
                count(&self.waited, "serve/real_tracks/waited");
            }
            return Ok(Arc::clone(track));
        }
        let track = Arc::new(execute(&layout)?);
        *slot = Some(Arc::clone(&track));
        count(&self.executed, "serve/real_tracks/executed");
        Ok(track)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_core::{RealWorld, RunConfig, VerificationOutcome};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn layout(seed: u64) -> RealLayout {
        RealLayout::new(
            &RunConfig::test(8).with_seed(seed),
            RealWorld::PerGpu { ranks: 16 },
        )
    }

    /// The track a (counted) execution of `layout` produces.
    fn track_of(layout: &RealLayout) -> RealTrack {
        RealTrack {
            verification: VerificationOutcome::Exact { checked_values: 1 },
            metrics: vec![("seed".into(), layout.seed as f64)],
        }
    }

    fn counted<'a>(
        runs: &'a AtomicUsize,
    ) -> impl Fn(&RealLayout) -> Result<RealTrack, SuiteError> + 'a {
        move |layout| {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(track_of(layout))
        }
    }

    #[test]
    fn eight_threads_asking_one_key_execute_it_once() {
        let (store, runs) = (RealTracks::new(4), AtomicUsize::new(0));
        let start = Barrier::new(8);
        let tracks: Vec<Arc<RealTrack>> = std::thread::scope(|scope| {
            let asking: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store
                            .get_or_execute(BenchmarkId::Soma, layout(7), counted(&runs))
                            .unwrap()
                    })
                })
                .collect();
            asking.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(tracks.iter().all(|t| **t == track_of(&layout(7))));
        let stats = store.stats();
        assert_eq!((stats.executed, stats.shared), (1, 7));
        assert!(stats.waited <= stats.shared);
    }

    #[test]
    fn a_key_is_the_benchmark_and_the_whole_layout() {
        let (store, runs) = (RealTracks::new(8), AtomicUsize::new(0));
        let ask = |bench, layout| store.get_or_execute(bench, layout, counted(&runs)).unwrap();
        ask(BenchmarkId::Soma, layout(1));
        ask(BenchmarkId::Soma, layout(2));
        ask(BenchmarkId::Arbor, layout(1));
        let per_node = RealLayout {
            world: RealWorld::PerNode { ranks: 16 },
            ..layout(1)
        };
        ask(BenchmarkId::Soma, per_node);
        assert_eq!(runs.load(Ordering::SeqCst), 4, "four keys");
        ask(BenchmarkId::Soma, layout(1));
        assert_eq!(runs.load(Ordering::SeqCst), 4, "the first again");
    }

    /// A panic or a typed failure inside the execution leaves the cell
    /// empty: the next caller executes, and nobody meets a poisoned lock.
    #[test]
    fn a_failed_execution_is_retried_by_the_next_caller() {
        let (store, runs) = (RealTracks::new(4), AtomicUsize::new(0));
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            store.get_or_execute(BenchmarkId::Soma, layout(7), |_| panic!("kernel blew up"))
        }));
        assert!(panicked.is_err());
        let refused = store.get_or_execute(BenchmarkId::Soma, layout(7), |_| {
            Err(SuiteError::Io("staging failed".into()))
        });
        assert_eq!(
            refused.unwrap_err(),
            SuiteError::Io("staging failed".into())
        );
        assert_eq!(store.stats(), RealTrackStats::default(), "nothing stored");
        for _ in 0..2 {
            let track = store.get_or_execute(BenchmarkId::Soma, layout(7), counted(&runs));
            assert_eq!(*track.unwrap(), track_of(&layout(7)));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "executed once, then shared");
        assert_eq!((store.stats().executed, store.stats().shared), (1, 1));
    }

    #[test]
    fn capacity_zero_executes_every_call() {
        let (store, runs) = (RealTracks::new(0), AtomicUsize::new(0));
        for _ in 0..3 {
            store
                .get_or_execute(BenchmarkId::Soma, layout(7), counted(&runs))
                .unwrap();
        }
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        assert_eq!((store.stats().executed, store.stats().shared), (3, 0));
    }

    /// A seeded request stream against a store far too small for it:
    /// eviction decides how often a key executes, never what comes back.
    #[test]
    fn eviction_never_changes_a_returned_value() {
        let (store, runs) = (RealTracks::new(2), AtomicUsize::new(0));
        let mut rng = jubench_kernels::rank_rng(0x7AC5, 0);
        for _ in 0..200 {
            let seed = rng.gen_range(0u64..6);
            let track = store.get_or_execute(BenchmarkId::Soma, layout(seed), counted(&runs));
            assert_eq!(*track.unwrap(), track_of(&layout(seed)));
        }
        let stats = store.stats();
        assert_eq!(stats.executed + stats.shared, 200);
        assert_eq!(stats.executed, runs.load(Ordering::SeqCst) as u64);
        assert!(stats.executed > 6, "six keys through two cells must evict");
        assert!(stats.shared > 0, "and still share");
    }
}
