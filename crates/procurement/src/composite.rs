//! HEPScore-style composite score: one comparable number per machine.
//!
//! The HEP benchmark suite (Giordano et al., HEPiX benchmarking WG)
//! condenses a set of per-workload scores into a single machine score by
//! taking the *geometric* mean — the only mean for which "machine A is
//! x× machine B" is independent of the reference machine chosen to
//! normalize the workloads. The fleet study applies the same recipe to
//! the JUPITER suite: each benchmark contributes the speedup of its
//! runtime on the candidate backend over the reference backend, and a
//! weighted geometric mean condenses them into the backend's composite
//! score. Score 1.0 means "as fast as the reference across the suite";
//! 2.0 means twice as fast in the geometric-mean sense.

/// One benchmark's contribution to a composite score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreItem {
    /// Benchmark name (a [`jubench_core::BenchmarkId::name`]).
    pub name: String,
    /// Reference runtime over candidate runtime: > 1 is faster than the
    /// reference machine.
    pub speedup: f64,
    /// Relative importance of the benchmark in the composite.
    pub weight: f64,
}

/// A composite score with its per-benchmark breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeScore {
    pub items: Vec<ScoreItem>,
    /// The weighted geometric mean of the item speedups.
    pub score: f64,
}

impl CompositeScore {
    /// Condense `items` into a composite score. Returns `None` when the
    /// item list is empty, a speedup is non-positive or non-finite, or
    /// the weights do not sum to a positive value — a score over broken
    /// inputs would silently poison a procurement ranking.
    pub fn build(items: Vec<ScoreItem>) -> Option<CompositeScore> {
        if items.is_empty() {
            return None;
        }
        let total_weight: f64 = items.iter().map(|i| i.weight).sum();
        if total_weight.is_nan() || total_weight <= 0.0 {
            return None;
        }
        let mut log_sum = 0.0;
        for item in &items {
            if !item.speedup.is_finite() || item.speedup <= 0.0 || item.weight < 0.0 {
                return None;
            }
            log_sum += item.weight * item.speedup.ln();
        }
        Some(CompositeScore {
            items,
            score: (log_sum / total_weight).exp(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(name: &str, speedup: f64, weight: f64) -> ScoreItem {
        ScoreItem {
            name: name.to_string(),
            speedup,
            weight,
        }
    }

    #[test]
    fn equal_weights_give_the_plain_geometric_mean() {
        let c = CompositeScore::build(vec![item("a", 2.0, 1.0), item("b", 8.0, 1.0)]).unwrap();
        assert!((c.score - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reference_machine_scores_exactly_one() {
        let c = CompositeScore::build(vec![
            item("a", 1.0, 1.0),
            item("b", 1.0, 2.0),
            item("c", 1.0, 0.5),
        ])
        .unwrap();
        assert_eq!(c.score, 1.0);
    }

    #[test]
    fn weights_shift_the_score_toward_the_heavy_item() {
        let balanced =
            CompositeScore::build(vec![item("a", 2.0, 1.0), item("b", 0.5, 1.0)]).unwrap();
        let heavy_a =
            CompositeScore::build(vec![item("a", 2.0, 3.0), item("b", 0.5, 1.0)]).unwrap();
        assert!((balanced.score - 1.0).abs() < 1e-12);
        assert!(heavy_a.score > balanced.score);
    }

    #[test]
    fn ratio_of_scores_is_reference_independent() {
        // Score(A)/Score(B) must not depend on the normalizing machine:
        // renormalizing every speedup by a machine C (dividing by C's
        // per-benchmark speedups) leaves the ratio intact.
        let a = [(2.0, 1.0), (3.0, 2.0)];
        let b = [(1.5, 1.0), (6.0, 2.0)];
        let c = [(0.7, 1.0), (1.9, 2.0)];
        let score = |pairs: &[(f64, f64)]| {
            let items = pairs.iter().map(|&(v, w)| item("x", v, w)).collect();
            CompositeScore::build(items).unwrap().score
        };
        let plain = score(&a) / score(&b);
        let renorm_a: Vec<_> = a
            .iter()
            .zip(&c)
            .map(|(&(v, w), &(cv, _))| (v / cv, w))
            .collect();
        let renorm_b: Vec<_> = b
            .iter()
            .zip(&c)
            .map(|(&(v, w), &(cv, _))| (v / cv, w))
            .collect();
        let renorm = score(&renorm_a) / score(&renorm_b);
        assert!((plain - renorm).abs() < 1e-12);
    }

    #[test]
    fn broken_inputs_are_rejected() {
        assert!(CompositeScore::build(vec![]).is_none());
        assert!(CompositeScore::build(vec![item("a", 0.0, 1.0)]).is_none());
        assert!(CompositeScore::build(vec![item("a", -1.0, 1.0)]).is_none());
        assert!(CompositeScore::build(vec![item("a", f64::NAN, 1.0)]).is_none());
        assert!(CompositeScore::build(vec![item("a", 1.0, 0.0)]).is_none());
    }
}
