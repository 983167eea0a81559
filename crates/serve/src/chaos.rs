//! Deterministic chaos: seeded fault injection for the campaign
//! service.
//!
//! A [`ChaosPlan`] names, ahead of time, exactly which faults fire and
//! where: shard crashes pinned to `(shard, unit)` boundaries of a drive
//! attempt (a fired crash fails the attempt with a typed
//! `ShardPanicked`, the error a caught worker panic becomes — no real
//! panic is raised), straggler
//! shards that yield their timeslice between units, and wire faults
//! ([`WireFault`]) that truncate or corrupt a session's byte stream.
//! Because every fault is data — no clocks, no entropy at fire time —
//! a chaos run is replayable: the same plan against the same campaigns
//! produces the same crashes in the same places, which is what lets the
//! harness assert the headline invariant (byte-identical artifacts, or
//! a typed rejection/cancellation — never a panic, never a hang).
//!
//! Crash points are **consumed once**, tracked in a `ChaosRuntime`
//! that lives *outside* the shard: when the supervisor rolls a crashed
//! shard back and re-drives it, the shard passes the same unit
//! boundary again, and a crash that re-fired on every pass would
//! livelock the retry loop. Consuming the point models the real
//! phenomenon anyway — a crash is an event, not a property of the unit.

use crate::transport::{Transport, TransportError};
use jubench_kernels::rank_rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// A seeded, declarative fault schedule for one drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for derived randomness (scattered crashes, backoff jitter
    /// interplay in tests).
    pub seed: u64,
    /// Crash shard `.0` when it reaches unit `.1` of a drive attempt.
    crashes: Vec<(u32, u64)>,
    /// Shards that yield between every unit — deterministic output,
    /// perturbed thread interleaving.
    stragglers: BTreeSet<u32>,
}

impl ChaosPlan {
    /// An empty plan (no faults) with a seed for derived schedules.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Crash `shard`'s worker when it reaches unit `at_unit` (builder).
    pub fn with_shard_crash(mut self, shard: u32, at_unit: u64) -> Self {
        self.crashes.push((shard, at_unit));
        self
    }

    /// Make `shard` a straggler: it yields between units (builder).
    pub fn with_straggler(mut self, shard: u32) -> Self {
        self.stragglers.insert(shard);
        self
    }

    /// Scatter `count` crashes over `n_shards` shards and the first
    /// `max_unit` units, derived from the plan seed.
    pub fn scattered(seed: u64, n_shards: u32, count: u32, max_unit: u64) -> Self {
        let mut plan = ChaosPlan::new(seed);
        let mut rng = rank_rng(seed, 0x0C7A05);
        for _ in 0..count {
            let shard = (rng.next_u64() % u64::from(n_shards.max(1))) as u32;
            let unit = rng.next_u64() % max_unit.max(1);
            plan.crashes.push((shard, unit));
        }
        plan
    }

    /// Does the plan schedule any shard-level fault?
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty()
    }

    /// Number of scheduled crash points.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }
}

/// Live consumed-once state of a [`ChaosPlan`] during one drain.
///
/// Shared by reference into parallel shard workers; the fired set is
/// behind a mutex, but determinism does not depend on lock order —
/// crash points are keyed per shard, and only shard `s`'s worker ever
/// polls shard `s`'s points.
#[derive(Debug)]
pub(crate) struct ChaosRuntime<'p> {
    plan: &'p ChaosPlan,
    fired: Mutex<BTreeMap<(u32, u64), usize>>,
}

impl<'p> ChaosRuntime<'p> {
    /// Arm a plan for one drain.
    pub(crate) fn new(plan: &'p ChaosPlan) -> Self {
        ChaosRuntime {
            plan,
            fired: Mutex::new(BTreeMap::new()),
        }
    }

    /// Should `shard` crash at `unit` of the current drive attempt?
    /// Each scheduled entry is consumed once: a boundary listed once
    /// passes clean on the retry after a supervised rollback, while a
    /// boundary listed N times re-crashes on N successive passes (the
    /// way tests exhaust a restart budget).
    pub(crate) fn crash_due(&self, shard: u32, unit: u64) -> bool {
        let scheduled = self
            .plan
            .crashes
            .iter()
            .filter(|&&c| c == (shard, unit))
            .count();
        if scheduled == 0 {
            return false;
        }
        let mut fired = self.fired.lock().unwrap_or_else(|p| p.into_inner());
        let count = fired.entry((shard, unit)).or_insert(0);
        if *count < scheduled {
            *count += 1;
            true
        } else {
            false
        }
    }

    /// Is `shard` scheduled to straggle (yield between units)?
    pub(crate) fn straggles(&self, shard: u32) -> bool {
        self.plan.stragglers.contains(&shard)
    }
}

/// A byte-stream fault injected into a session transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// After `bytes` bytes have been written, silently drop the rest
    /// and close the stream — the peer sees a mid-frame EOF
    /// ([`WireError::Truncated`](crate::wire::WireError::Truncated)
    /// when it lands inside a frame body).
    TruncateAfter {
        /// Bytes delivered before the cut.
        bytes: u64,
    },
    /// Flip bit `bit` of the `at_byte`-th written byte — the peer sees
    /// a corrupt length prefix or a malformed body.
    FlipBit {
        /// Absolute write-stream offset of the corrupted byte.
        at_byte: u64,
        /// Bit index (0–7) to flip.
        bit: u8,
    },
}

/// A transport wrapper that injects one [`WireFault`] into the write
/// side, byte-exactly. Reads pass through untouched, so the faulty peer
/// keeps *receiving* fine — like a process whose outbound stream died.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    fault: WireFault,
    written: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, arming `fault` on the write side.
    pub fn new(inner: T, fault: WireFault) -> Self {
        FaultyTransport {
            inner,
            fault,
            written: 0,
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), TransportError> {
        let start = self.written;
        self.written += buf.len() as u64;
        match self.fault {
            WireFault::TruncateAfter { bytes } => {
                if start >= bytes {
                    // Past the cut: swallow silently (writer unaware).
                    return Ok(());
                }
                let keep = ((bytes - start) as usize).min(buf.len());
                self.inner.write_all(&buf[..keep])?;
                if self.written >= bytes {
                    self.inner.shutdown();
                }
                Ok(())
            }
            WireFault::FlipBit { at_byte, bit } => {
                if at_byte >= start && at_byte < self.written {
                    let mut corrupted = buf.to_vec();
                    corrupted[(at_byte - start) as usize] ^= 1 << (bit & 7);
                    self.inner.write_all(&corrupted)
                } else {
                    self.inner.write_all(buf)
                }
            }
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TransportError> {
        self.inner.read_exact(buf)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::DuplexPipe;

    /// Crash points of `rt` that fired so far (duplicates counted).
    fn fired(rt: &ChaosRuntime<'_>) -> usize {
        rt.fired.lock().unwrap().values().sum()
    }

    #[test]
    fn crash_points_fire_exactly_once() {
        let plan = ChaosPlan::new(7)
            .with_shard_crash(1, 3)
            .with_shard_crash(1, 5);
        let rt = ChaosRuntime::new(&plan);
        assert!(!rt.crash_due(1, 2));
        assert!(rt.crash_due(1, 3), "scheduled point fires");
        assert!(!rt.crash_due(1, 3), "consumed on the retry pass");
        assert!(rt.crash_due(1, 5), "later point still pending");
        assert!(!rt.crash_due(0, 3), "other shards unaffected");
        assert_eq!(fired(&rt), 2);
    }

    #[test]
    fn duplicate_crash_entries_fire_on_successive_passes() {
        let plan = ChaosPlan::new(7)
            .with_shard_crash(2, 0)
            .with_shard_crash(2, 0)
            .with_shard_crash(2, 0);
        let rt = ChaosRuntime::new(&plan);
        assert!(rt.crash_due(2, 0), "first pass crashes");
        assert!(rt.crash_due(2, 0), "second pass re-crashes");
        assert!(rt.crash_due(2, 0), "third pass re-crashes");
        assert!(!rt.crash_due(2, 0), "all three entries consumed");
        assert_eq!(fired(&rt), 3);
    }

    #[test]
    fn scattered_is_a_pure_function_of_the_seed() {
        let a = ChaosPlan::scattered(11, 4, 6, 40);
        let b = ChaosPlan::scattered(11, 4, 6, 40);
        assert_eq!(a, b);
        assert_eq!(a.crash_count(), 6);
        assert_ne!(a, ChaosPlan::scattered(12, 4, 6, 40));
    }

    #[test]
    fn truncation_cuts_the_stream_at_the_exact_byte() {
        let (a, mut b) = DuplexPipe::pair();
        let mut faulty = FaultyTransport::new(a, WireFault::TruncateAfter { bytes: 6 });
        faulty.write_all(b"0123").unwrap();
        faulty.write_all(b"4567").unwrap(); // cut lands mid-buffer
        faulty.write_all(b"89").unwrap(); // swallowed
        let mut got = [0u8; 6];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"012345");
        let mut probe = [0u8; 1];
        assert_eq!(b.read_exact(&mut probe), Err(TransportError::Closed));
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (a, mut b) = DuplexPipe::pair();
        let mut faulty = FaultyTransport::new(a, WireFault::FlipBit { at_byte: 5, bit: 0 });
        faulty.write_all(b"abc").unwrap();
        faulty.write_all(b"def").unwrap();
        let mut got = [0u8; 6];
        b.read_exact(&mut got).unwrap();
        // Byte 5 is 'f' (0x66); bit 0 flips it to 'g' (0x67).
        assert_eq!(&got, b"abcdeg");
    }
}
