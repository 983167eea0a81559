//! Per-rank virtual clocks.

use jubench_cluster::{Roofline, Work};

/// A rank's virtual clock, split into compute and communication shares.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    compute_s: f64,
    comm_s: f64,
}

/// Immutable snapshot of a clock at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockStats {
    pub compute_s: f64,
    pub comm_s: f64,
}

impl ClockStats {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Fraction of the total virtual time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total_s();
        if t == 0.0 {
            0.0
        } else {
            self.comm_s / t
        }
    }
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Advance by `seconds` of computation.
    pub fn advance_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.compute_s += seconds;
    }

    /// Advance by the roofline prediction for `work` on `device`.
    pub fn advance_work(&mut self, device: &Roofline, work: Work) {
        self.advance_compute(device.time(work));
    }

    /// Advance by `seconds` of communication.
    pub fn advance_comm(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.comm_s += seconds;
    }

    /// Wait (in communication time) until at least `target` virtual time,
    /// then advance by `transfer` seconds of communication. Returns the new
    /// time. This realizes causality: a receive completes no earlier than
    /// the matching send's post time plus the transfer time.
    ///
    /// The wait and the transfer are summed *before* the single
    /// `advance_comm` call. Splitting them into two additions would change
    /// the float rounding of the clock and ripple into every downstream
    /// artifact, so this expression must stay one add.
    pub fn recv_until(&mut self, target: f64, transfer: f64) {
        let wait = (target - self.now()).max(0.0);
        self.advance_comm(wait + transfer);
    }

    /// Synchronize to a collective completion time (e.g. a barrier): waits
    /// until `target` if it is in the future, accounting the wait as
    /// communication. A `target` already in the past is a no-op — time
    /// never runs backwards. One subtraction and one addition whatever
    /// the distance, so skipping idle time is byte-identical to stepping
    /// through it.
    pub fn sync_to(&mut self, target: f64) {
        let wait = (target - self.now()).max(0.0);
        self.advance_comm(wait);
    }

    pub fn stats(&self) -> ClockStats {
        ClockStats {
            compute_s: self.compute_s,
            comm_s: self.comm_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::GpuSpec;

    #[test]
    fn clock_accumulates_both_shares() {
        let mut c = VirtualClock::new();
        c.advance_compute(1.0);
        c.advance_comm(0.5);
        assert_eq!(c.now(), 1.5);
        assert_eq!(
            c.stats(),
            ClockStats {
                compute_s: 1.0,
                comm_s: 0.5
            }
        );
    }

    #[test]
    fn recv_waits_for_late_sender() {
        let mut c = VirtualClock::new();
        c.advance_compute(1.0);
        // Sender posted at t=3.0; transfer takes 0.25.
        c.recv_until(3.0, 0.25);
        assert!((c.now() - 3.25).abs() < 1e-12);
        assert!((c.stats().comm_s - 2.25).abs() < 1e-12);
    }

    #[test]
    fn recv_from_early_sender_costs_only_transfer() {
        let mut c = VirtualClock::new();
        c.advance_compute(5.0);
        c.recv_until(1.0, 0.25);
        assert!((c.now() - 5.25).abs() < 1e-12);
    }

    #[test]
    fn sync_to_past_is_free() {
        let mut c = VirtualClock::new();
        c.advance_compute(2.0);
        c.sync_to(1.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn advance_work_uses_roofline() {
        let mut c = VirtualClock::new();
        let dev = Roofline::new(GpuSpec::a100_40gb());
        c.advance_work(&dev, Work::new(9.7e12 * 0.7, 0.0));
        assert!((c.now() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction() {
        let s = ClockStats {
            compute_s: 3.0,
            comm_s: 1.0,
        };
        assert!((s.comm_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(ClockStats::default().comm_fraction(), 0.0);
    }
}
