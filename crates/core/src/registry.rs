//! The suite registry: the collection of all benchmarks, queryable by id
//! and category — the programmatic equivalent of the suite's top-level Git
//! repository with one sub-repository per benchmark (§III-D).

use std::collections::BTreeMap;

use crate::benchmark::Benchmark;
use crate::meta::{BenchmarkId, Category};

/// A registry of benchmark implementations keyed by [`BenchmarkId`].
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<BenchmarkId, Box<dyn Benchmark>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a benchmark. Re-registering an id replaces the previous
    /// implementation (mirroring a submodule update) and returns `true`.
    pub fn register(&mut self, bench: Box<dyn Benchmark>) -> bool {
        self.entries.insert(bench.meta().id, bench).is_some()
    }

    pub fn get(&self, id: BenchmarkId) -> Option<&dyn Benchmark> {
        self.entries.get(&id).map(|b| b.as_ref())
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All registered benchmarks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Benchmark> {
        self.entries.values().map(|b| b.as_ref())
    }

    /// All registered benchmarks of a category. `Category::Base` also
    /// includes the High-Scaling applications, which are Base benchmarks by
    /// definition (§II-B).
    pub fn by_category(&self, category: Category) -> impl Iterator<Item = &dyn Benchmark> {
        self.iter().filter(move |b| {
            let c = b.meta().category;
            c == category || (category == Category::Base && c == Category::HighScaling)
        })
    }

    /// The ids currently registered.
    pub fn ids(&self) -> Vec<BenchmarkId> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{RealLayout, RealTrack, RealWorld, RunConfig, RunOutcome};
    use crate::error::SuiteError;
    use crate::fom::Fom;
    use crate::meta::BenchmarkMeta;
    use crate::verify::VerificationOutcome;

    struct Fake(BenchmarkId);

    impl Benchmark for Fake {
        fn meta(&self) -> BenchmarkMeta {
            self.0.meta()
        }
        fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
            Ok(RealLayout::new(cfg, RealWorld::Serial))
        }
        fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
            Ok(RealTrack {
                verification: VerificationOutcome::Exact { checked_values: 0 },
                metrics: vec![],
            })
        }
        fn cost(&self, _cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
            RunOutcome {
                fom: Fom::RuntimeSeconds(1.0),
                virtual_time_s: 1.0,
                compute_time_s: 1.0,
                comm_time_s: 0.0,
                verification: track.verification.clone(),
                metrics: vec![],
            }
        }
    }

    #[test]
    fn register_and_get() {
        let mut r = Registry::new();
        assert!(!r.register(Box::new(Fake(BenchmarkId::Arbor))));
        assert_eq!(r.len(), 1);
        assert!(r.get(BenchmarkId::Arbor).is_some());
        assert!(r.get(BenchmarkId::Hpl).is_none());
    }

    #[test]
    fn reregistering_replaces() {
        let mut r = Registry::new();
        r.register(Box::new(Fake(BenchmarkId::Hpl)));
        assert!(r.register(Box::new(Fake(BenchmarkId::Hpl))));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn base_category_includes_high_scaling() {
        let mut r = Registry::new();
        r.register(Box::new(Fake(BenchmarkId::Arbor))); // HighScaling
        r.register(Box::new(Fake(BenchmarkId::Gromacs))); // Base
        r.register(Box::new(Fake(BenchmarkId::Hpl))); // Synthetic
        let base: Vec<_> = r.by_category(Category::Base).map(|b| b.meta().id).collect();
        assert_eq!(base, vec![BenchmarkId::Arbor, BenchmarkId::Gromacs]);
        let hs: Vec<_> = r
            .by_category(Category::HighScaling)
            .map(|b| b.meta().id)
            .collect();
        assert_eq!(hs, vec![BenchmarkId::Arbor]);
        let syn: Vec<_> = r
            .by_category(Category::Synthetic)
            .map(|b| b.meta().id)
            .collect();
        assert_eq!(syn, vec![BenchmarkId::Hpl]);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut r = Registry::new();
        r.register(Box::new(Fake(BenchmarkId::Stream)));
        r.register(Box::new(Fake(BenchmarkId::Amber)));
        let ids = r.ids();
        assert_eq!(ids, vec![BenchmarkId::Amber, BenchmarkId::Stream]);
    }
}
