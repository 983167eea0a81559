//! The fault plan: a declarative, seeded schedule of faults in virtual
//! time.
//!
//! What makes a fault well-formed is stated once, in `Fault::check` and
//! `check_recv_timeout`, so every query may assume it (`crash_time`
//! orders `at_s` values, `link_factor` divides by `period_s`). A plan is
//! built either by the `with_*` builders, which panic through that check
//! — a bad literal is a programmer error — or from decoded parts by
//! [`FaultPlan::from_parts`], which returns it as an `Err` for the
//! decoder to refuse.

use jubench_kernels::rng::{rank_rng, DetRng};

/// Stream-family tag separating the message-drop draws from every other
/// consumer of the plan seed.
const DROP_STREAM: u64 = 0xD20F_FA17_5EED_0001;

/// Stream-family tag for the periodic-drain arrival and victim draws.
const DRAIN_STREAM: u64 = 0xD2A1_4FA1_5EED_0002;

/// One injected fault. Link faults apply to the unordered rank pair
/// `{a, b}`; message drops are directional (`from → to`); node and crash
/// faults name a node or rank directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Transfers between ranks `a` and `b` take `factor` × longer — a
    /// failing cable or mis-trained adapter, permanently degraded.
    DegradedLink { a: u32, b: u32, factor: f64 },
    /// A link that oscillates: within each `period_s` of virtual time the
    /// link is healthy for the first `up_fraction` of the period and
    /// degraded by `factor` for the remainder.
    FlappingLink {
        a: u32,
        b: u32,
        factor: f64,
        period_s: f64,
        up_fraction: f64,
    },
    /// Computation on `node` takes `factor` × longer while the virtual
    /// time is within `[from_s, until_s)` — a straggler or a thermal
    /// throttle window.
    SlowNode {
        node: u32,
        factor: f64,
        from_s: f64,
        until_s: f64,
    },
    /// Each message `from → to` is lost on the wire with `probability`;
    /// the receiver observes a virtual-time timeout instead of a payload.
    MessageDrop {
        from: u32,
        to: u32,
        probability: f64,
    },
    /// `rank` fails permanently once its virtual clock reaches `at_s`:
    /// every later communication attempt errors.
    RankCrash { rank: u32, at_s: f64 },
}

impl Fault {
    /// Why this fault is out of range, if it is. Every comparison is
    /// written so that NaN fails it.
    fn check(&self) -> Result<(), String> {
        let (ok, rule) = match *self {
            Fault::DegradedLink { factor, .. } => (factor >= 1.0, "factor ≥ 1"),
            Fault::FlappingLink {
                factor,
                period_s,
                up_fraction,
                ..
            } => (
                factor >= 1.0 && period_s > 0.0 && (0.0..=1.0).contains(&up_fraction),
                "factor ≥ 1, period > 0, up fraction in [0, 1]",
            ),
            Fault::SlowNode {
                factor,
                from_s,
                until_s,
                ..
            } => (
                factor >= 1.0 && from_s < until_s,
                "factor ≥ 1, from < until",
            ),
            Fault::MessageDrop { probability, .. } => {
                ((0.0..=1.0).contains(&probability), "probability in [0, 1]")
            }
            Fault::RankCrash { at_s, .. } => (at_s >= 0.0, "crash time ≥ 0"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{self:?} needs {rule}"))
        }
    }
}

fn check_recv_timeout(seconds: f64) -> Result<(), String> {
    if seconds > 0.0 {
        Ok(())
    } else {
        Err(format!("receive timeout must be positive, got {seconds}"))
    }
}

fn same_pair(a: u32, b: u32, x: u32, y: u32) -> bool {
    (a.min(b), a.max(b)) == (x.min(y), x.max(y))
}

/// A seeded, deterministic fault schedule for one run.
///
/// The plan is immutable data; the runtime queries it at operation
/// boundaries. An empty plan answers every query with the identity
/// (factor 1, probability 0, no crash), so running under an empty plan is
/// bit-identical to running with no plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    recv_timeout_s: f64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Virtual seconds a receiver waits on a dropped message before
    /// reporting a timeout, unless overridden by
    /// [`FaultPlan::with_recv_timeout`].
    pub const DEFAULT_RECV_TIMEOUT_S: f64 = 0.1;

    /// An empty plan under `seed`. The seed feeds every stochastic fault
    /// draw (currently: message drops).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            recv_timeout_s: Self::DEFAULT_RECV_TIMEOUT_S,
            faults: Vec::new(),
        }
    }

    /// A plan that slows a deterministically drawn subset of nodes: about
    /// `fraction` of the `nodes` are stragglers running `factor` × slower
    /// (for all of virtual time). The subset depends only on `seed`.
    pub fn random_stragglers(seed: u64, nodes: u32, fraction: f64, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let count = (fraction * nodes as f64).round() as u32;
        let mut rng = rank_rng(seed, u32::MAX);
        // Partial Fisher–Yates over the node indices.
        let mut pool: Vec<u32> = (0..nodes).collect();
        let mut plan = FaultPlan::new(seed);
        for i in 0..count.min(nodes) as usize {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
            plan = plan.with_slow_node(pool[i], factor);
        }
        plan
    }

    /// A plan of recurring node outages: failure events arrive with mean
    /// spacing `mtbf_s` (uniform seeded jitter of ±25 %), each taking a
    /// deterministically drawn node out of service — a slow-node window
    /// of `factor` lasting `drain_s` — until `horizon_s`. A failure
    /// drawn while its victim is already down is skipped, so windows on
    /// one node never overlap. Identical arguments reproduce an
    /// identical plan; the batch scheduler reads each window as a drain
    /// that preempts the jobs on the node.
    pub fn periodic_drains(
        seed: u64,
        nodes: u32,
        mtbf_s: f64,
        drain_s: f64,
        horizon_s: f64,
        factor: f64,
    ) -> Self {
        assert!(nodes > 0, "drains need at least one node to hit");
        assert!(mtbf_s > 0.0 && drain_s > 0.0 && factor >= 1.0);
        let mut rng = rank_rng(seed ^ DRAIN_STREAM, u32::MAX);
        let mut down_until = vec![0.0f64; nodes as usize];
        let mut plan = FaultPlan::new(seed);
        let mut t = 0.0;
        loop {
            t += mtbf_s * (0.75 + 0.5 * rng.gen_f64());
            if t >= horizon_s {
                break;
            }
            let node = rng.gen_range(0..nodes as usize);
            if t < down_until[node] {
                continue;
            }
            down_until[node] = t + drain_s;
            plan = plan.with_slow_node_window(node as u32, factor, t, t + drain_s);
        }
        plan
    }

    /// The plan of exactly these parts, as a decoder reassembles it — or
    /// which part is out of range.
    pub fn from_parts(seed: u64, recv_timeout_s: f64, faults: Vec<Fault>) -> Result<Self, String> {
        check_recv_timeout(recv_timeout_s)?;
        faults.iter().try_for_each(Fault::check)?;
        Ok(FaultPlan {
            seed,
            recv_timeout_s,
            faults,
        })
    }

    // ----- builders -------------------------------------------------------

    fn with(mut self, fault: Fault) -> Self {
        fault.check().unwrap_or_else(|why| panic!("{why}"));
        self.faults.push(fault);
        self
    }

    /// Permanently degrade the link between ranks `a` and `b`.
    pub fn with_degraded_link(self, a: u32, b: u32, factor: f64) -> Self {
        self.with(Fault::DegradedLink { a, b, factor })
    }

    /// Add a flapping link: healthy for `up_fraction` of each `period_s`,
    /// degraded by `factor` for the rest.
    pub fn with_flapping_link(
        self,
        a: u32,
        b: u32,
        factor: f64,
        period_s: f64,
        up_fraction: f64,
    ) -> Self {
        self.with(Fault::FlappingLink {
            a,
            b,
            factor,
            period_s,
            up_fraction,
        })
    }

    /// Slow all computation on `node` by `factor`, for all of virtual
    /// time.
    pub fn with_slow_node(self, node: u32, factor: f64) -> Self {
        self.with_slow_node_window(node, factor, 0.0, f64::INFINITY)
    }

    /// Slow computation on `node` by `factor` within the virtual-time
    /// window `[from_s, until_s)`.
    pub fn with_slow_node_window(self, node: u32, factor: f64, from_s: f64, until_s: f64) -> Self {
        self.with(Fault::SlowNode {
            node,
            factor,
            from_s,
            until_s,
        })
    }

    /// Drop each message `from → to` with `probability`.
    pub fn with_message_drop(self, from: u32, to: u32, probability: f64) -> Self {
        self.with(Fault::MessageDrop {
            from,
            to,
            probability,
        })
    }

    /// Crash `rank` once its virtual clock reaches `at_s`.
    pub fn with_rank_crash(self, rank: u32, at_s: f64) -> Self {
        self.with(Fault::RankCrash { rank, at_s })
    }

    /// Override the virtual-time receive timeout charged per dropped
    /// message.
    pub fn with_recv_timeout(mut self, seconds: f64) -> Self {
        check_recv_timeout(seconds).unwrap_or_else(|why| panic!("{why}"));
        self.recv_timeout_s = seconds;
        self
    }

    // ----- queries --------------------------------------------------------

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    pub fn recv_timeout_s(&self) -> f64 {
        self.recv_timeout_s
    }

    /// Combined slowdown factor of the link `{a, b}` at virtual time `t`
    /// (product over all matching link faults; 1.0 when healthy).
    pub fn link_factor(&self, a: u32, b: u32, t: f64) -> f64 {
        let mut f = 1.0;
        for fault in &self.faults {
            match *fault {
                Fault::DegradedLink { a: x, b: y, factor } if same_pair(a, b, x, y) => {
                    f *= factor;
                }
                Fault::FlappingLink {
                    a: x,
                    b: y,
                    factor,
                    period_s,
                    up_fraction,
                } if same_pair(a, b, x, y) => {
                    let phase = (t / period_s).fract();
                    if phase >= up_fraction {
                        f *= factor;
                    }
                }
                _ => {}
            }
        }
        f
    }

    /// Combined compute-slowdown factor of `node` at virtual time `t`.
    pub fn compute_factor(&self, node: u32, t: f64) -> f64 {
        let mut f = 1.0;
        for fault in &self.faults {
            if let Fault::SlowNode {
                node: n,
                factor,
                from_s,
                until_s,
            } = *fault
            {
                if n == node && t >= from_s && t < until_s {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Probability that a message `from → to` is dropped (combined over
    /// all matching drop faults).
    pub fn drop_probability(&self, from: u32, to: u32) -> f64 {
        let mut keep = 1.0;
        for fault in &self.faults {
            if let Fault::MessageDrop {
                from: f,
                to: t,
                probability,
            } = *fault
            {
                if f == from && t == to {
                    keep *= 1.0 - probability;
                }
            }
        }
        1.0 - keep
    }

    /// Earliest virtual crash time of `rank`, if any.
    pub fn crash_time(&self, rank: u32) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::RankCrash { rank: r, at_s } if r == rank => Some(at_s),
                _ => None,
            })
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// The unordered rank pairs with a (permanent or flapping) link
    /// fault, deduplicated and sorted — the ground truth a LinkTest scan
    /// should recover.
    pub fn degraded_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::DegradedLink { a, b, .. } | Fault::FlappingLink { a, b, .. } => {
                    Some((a.min(b), a.max(b)))
                }
                _ => None,
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Nodes with an active slow-node fault (at any time), sorted.
    pub fn slow_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                Fault::SlowNode { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The deterministic message-drop stream of `rank`: decorrelated from
    /// every other rank and from every other consumer of the plan seed.
    pub fn drop_rng(&self, rank: u32) -> DetRng {
        rank_rng(self.seed ^ DROP_STREAM, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        assert_eq!(p.link_factor(0, 1, 5.0), 1.0);
        assert_eq!(p.compute_factor(3, 5.0), 1.0);
        assert_eq!(p.drop_probability(0, 1), 0.0);
        assert_eq!(p.crash_time(0), None);
        assert!(p.degraded_pairs().is_empty());
    }

    #[test]
    fn degraded_links_are_symmetric_and_compose() {
        let p = FaultPlan::new(0)
            .with_degraded_link(0, 5, 4.0)
            .with_degraded_link(5, 0, 2.0);
        assert_eq!(p.link_factor(0, 5, 0.0), 8.0);
        assert_eq!(p.link_factor(5, 0, 123.0), 8.0);
        assert_eq!(p.link_factor(0, 4, 0.0), 1.0);
        assert_eq!(p.degraded_pairs(), vec![(0, 5)]);
    }

    #[test]
    fn flapping_link_follows_its_duty_cycle() {
        // Healthy for the first 60 % of each 10 s period.
        let p = FaultPlan::new(0).with_flapping_link(1, 2, 8.0, 10.0, 0.6);
        assert_eq!(p.link_factor(1, 2, 0.0), 1.0);
        assert_eq!(p.link_factor(1, 2, 5.9), 1.0);
        assert_eq!(p.link_factor(1, 2, 6.0), 8.0);
        assert_eq!(p.link_factor(1, 2, 9.9), 8.0);
        assert_eq!(p.link_factor(1, 2, 10.0), 1.0, "next period starts up");
        assert_eq!(p.link_factor(2, 1, 16.5), 8.0, "symmetric");
    }

    #[test]
    fn slow_node_window_bounds_apply() {
        let p = FaultPlan::new(0).with_slow_node_window(2, 3.0, 1.0, 2.0);
        assert_eq!(p.compute_factor(2, 0.5), 1.0);
        assert_eq!(p.compute_factor(2, 1.0), 3.0);
        assert_eq!(p.compute_factor(2, 1.999), 3.0);
        assert_eq!(p.compute_factor(2, 2.0), 1.0);
        assert_eq!(p.compute_factor(1, 1.5), 1.0, "other nodes healthy");
        let always = FaultPlan::new(0).with_slow_node(4, 2.0);
        assert_eq!(always.compute_factor(4, 1e9), 2.0);
    }

    #[test]
    fn drop_probability_is_directional_and_composes() {
        let p = FaultPlan::new(0)
            .with_message_drop(0, 1, 0.5)
            .with_message_drop(0, 1, 0.5);
        assert!((p.drop_probability(0, 1) - 0.75).abs() < 1e-12);
        assert_eq!(p.drop_probability(1, 0), 0.0);
    }

    #[test]
    fn crash_time_takes_the_earliest() {
        let p = FaultPlan::new(0)
            .with_rank_crash(3, 7.0)
            .with_rank_crash(3, 2.0);
        assert_eq!(p.crash_time(3), Some(2.0));
        assert_eq!(p.crash_time(2), None);
    }

    #[test]
    fn from_parts_and_the_builders_share_one_rule() {
        let built = FaultPlan::new(5)
            .with_flapping_link(2, 3, 2.0, 5.0, 0.5)
            .with_rank_crash(7, 0.0)
            .with_recv_timeout(0.2);
        let parts = FaultPlan::from_parts(5, 0.2, built.faults().to_vec());
        assert_eq!(parts, Ok(built));

        let bad_faults = [
            Fault::DegradedLink {
                a: 0,
                b: 1,
                factor: 0.5,
            },
            Fault::FlappingLink {
                a: 0,
                b: 1,
                factor: 2.0,
                period_s: 0.0,
                up_fraction: 0.5,
            },
            Fault::SlowNode {
                node: 0,
                factor: 2.0,
                from_s: 3.0,
                until_s: 3.0,
            },
            Fault::MessageDrop {
                from: 0,
                to: 1,
                probability: f64::NAN,
            },
            Fault::RankCrash {
                rank: 0,
                at_s: -1.0,
            },
        ];
        for bad in bad_faults {
            let err = FaultPlan::from_parts(5, 0.2, vec![bad.clone()]).unwrap_err();
            assert!(err.contains("needs"), "{err}");
            let built = std::panic::catch_unwind(|| FaultPlan::new(5).with(bad));
            assert!(built.is_err(), "the builder panics on the same fault");
        }
        assert!(FaultPlan::from_parts(5, 0.0, Vec::new()).is_err());
        assert!(FaultPlan::from_parts(5, f64::NAN, Vec::new()).is_err());
    }

    #[test]
    fn drop_rng_is_seed_and_rank_deterministic() {
        let p = FaultPlan::new(42);
        let mut a = p.drop_rng(0);
        let mut b = FaultPlan::new(42).drop_rng(0);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = p.drop_rng(1);
        assert_ne!(p.drop_rng(0).next_u64(), c.next_u64());
        assert_ne!(
            FaultPlan::new(43).drop_rng(0).next_u64(),
            FaultPlan::new(42).drop_rng(0).next_u64()
        );
    }

    #[test]
    fn random_stragglers_are_reproducible_and_sized() {
        let a = FaultPlan::random_stragglers(9, 16, 0.25, 4.0);
        let b = FaultPlan::random_stragglers(9, 16, 0.25, 4.0);
        assert_eq!(a, b);
        assert_eq!(a.slow_nodes().len(), 4);
        assert!(a.slow_nodes().iter().all(|&n| n < 16));
        let none = FaultPlan::random_stragglers(9, 16, 0.0, 4.0);
        assert!(none.is_empty());
        let other = FaultPlan::random_stragglers(10, 16, 0.25, 4.0);
        assert_eq!(other.slow_nodes().len(), 4);
    }

    #[test]
    fn periodic_drains_are_reproducible_and_bounded() {
        let a = FaultPlan::periodic_drains(11, 8, 5.0, 0.5, 100.0, 4.0);
        let b = FaultPlan::periodic_drains(11, 8, 5.0, 0.5, 100.0, 4.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for f in a.faults() {
            match *f {
                Fault::SlowNode {
                    node,
                    factor,
                    from_s,
                    until_s,
                } => {
                    assert!(node < 8);
                    assert_eq!(factor, 4.0);
                    assert!(from_s > 0.0 && from_s < 100.0);
                    assert!((until_s - from_s - 0.5).abs() < 1e-12);
                }
                ref other => panic!("unexpected fault {other:?}"),
            }
        }
        // ~100/5 arrivals, each within ±25 % of the MTBF spacing.
        let n = a.faults().len();
        assert!((10..=30).contains(&n), "{n} drains");
    }

    #[test]
    fn periodic_drains_never_overlap_per_node() {
        // A tight MTBF on one node forces the skip path.
        let p = FaultPlan::periodic_drains(3, 1, 0.1, 2.0, 50.0, 2.0);
        let mut windows: Vec<(f64, f64)> = p
            .faults()
            .iter()
            .map(|f| match *f {
                Fault::SlowNode {
                    from_s, until_s, ..
                } => (from_s, until_s),
                ref other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in windows.windows(2) {
            assert!(w[1].0 >= w[0].1, "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn periodic_drains_past_the_horizon_are_empty() {
        assert!(FaultPlan::periodic_drains(7, 4, 10.0, 1.0, 5.0, 2.0).is_empty());
    }

    #[test]
    fn recv_timeout_is_configurable() {
        assert_eq!(
            FaultPlan::new(0).recv_timeout_s(),
            FaultPlan::DEFAULT_RECV_TIMEOUT_S
        );
        assert_eq!(
            FaultPlan::new(0).with_recv_timeout(0.5).recv_timeout_s(),
            0.5
        );
    }
}
