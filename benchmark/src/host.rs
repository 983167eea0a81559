//! One core and a host-speed reference.
//!
//! The sandbox this benchmark runs in is a few vCPUs of a shared host.
//! Each vCPU changes speed on its own, in steps of 20-40 % that last
//! from under a second to minutes (a reference loop pinned to one vCPU
//! reads 215, 260 or 300 us per pass and jumps between the three; no
//! steal time shows, so it is the core's sibling thread, cache and
//! clock, not the hypervisor's scheduler). Two runs of the same code
//! minutes apart therefore differ by more than any change a later PR
//! will claim, and longer runs or medians do not help against a host
//! that is slow for the whole run.
//!
//! Two things make the readings comparable:
//!
//! 1. [`pin_to_one_cpu`]: the whole process, the program's own threads
//!    included, runs on one vCPU, so all of a round's work and the
//!    reference below see the same core in the same state. (Unpinned,
//!    the work and the reference land on different vCPUs about half the
//!    time and the reference explains little of a round: correlation
//!    0.3-0.6 against 0.8-0.9 pinned.)
//! 2. Every round of a measured span, and every set-up, is bracketed by
//!    a fixed single-threaded computation that belongs to the benchmark
//!    and not to the program under test (plain `std`: a sort, ordered-
//!    and hashed-map inserts and lookups, number formatting, a small
//!    matrix product, a byte hash and a pointer chase — the instruction
//!    mix of the serve layer and the proxies). How long it takes next to
//!    [`NOMINAL_NS`] is the core's speed around that round, and rates
//!    and times are reported as they would read at nominal speed. Two
//!    commits measured with the same benchmark code are scaled by the
//!    same ruler; the raw wall-clock readings are printed beside the
//!    scaled ones.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one [`HostReference::run_ns`] takes on the sizing sandbox (2
/// vCPUs of a Xeon at 2.1 GHz) while its host is quiet.
pub const NOMINAL_NS: f64 = 1.9e6;

/// Boundaries either side of a round whose reference times are pooled
/// (by median) into that round's host speed: wide enough that one
/// reference run hit by a stall does not scale a round, narrow enough to
/// follow the host over a few seconds.
const WINDOW: usize = 2;

const KEYS: usize = 20_000;
const MAP_KEYS: usize = 5_000;
const CELLS: usize = 1024;
const MATRIX: usize = 64;
const HASHED_BYTES: usize = 128 * 1024;
const CHASE_SLOTS: usize = 64 * 1024;

/// Pin the calling thread, and every thread it or the program spawns
/// from now on, to one of the CPUs it may run on (the highest-numbered:
/// the lowest ones take the guest's interrupts). Returns that CPU, or
/// `None` where the process cannot be pinned (then it runs unpinned and
/// its readings are noisier, not wrong).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer and
    // its size is passed along; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: as above; `one` is only read.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The fixed inputs of the reference computation.
#[derive(Debug)]
pub struct HostReference {
    keys: Vec<u64>,
    values: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    bytes: Vec<u8>,
    next: Vec<u32>,
}

impl Default for HostReference {
    fn default() -> Self {
        // xorshift64: the inputs are the same in every run of every
        // workload at every seed.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys = (0..KEYS).map(|_| step()).collect();
        let values = (0..CELLS).map(|i| i as f64 * 15.5).collect();
        let a = (0..MATRIX * MATRIX)
            .map(|i| (i % 7) as f64 * 0.25)
            .collect();
        let b = (0..MATRIX * MATRIX).map(|i| (i % 5) as f64 * 0.5).collect();
        let bytes = (0..HASHED_BYTES).map(|_| step() as u8).collect();
        // Sattolo's shuffle: one cycle through every slot.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, (step() % i as u64) as usize);
        }
        HostReference {
            keys,
            values,
            a,
            b,
            bytes,
            next,
        }
    }
}

impl HostReference {
    /// Nanoseconds the reference computation takes now: the faster of
    /// two runs, because the first one after a round pays for the caches
    /// the round left cold.
    pub fn run_ns(&self) -> f64 {
        self.once_ns().min(self.once_ns())
    }

    fn once_ns(&self) -> f64 {
        let start = Instant::now();

        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        black_box(&sorted);

        let map_keys = &self.keys[..MAP_KEYS];
        let ordered: BTreeMap<u64, u64> = map_keys.iter().map(|&k| (k, k ^ 1)).collect();
        let hashed: HashMap<u64, u64> = map_keys.iter().map(|&k| (k, k ^ 1)).collect();
        let found = map_keys.iter().fold(0u64, |sum, k| {
            sum.wrapping_add(ordered[k]).wrapping_add(hashed[k])
        });
        black_box(found);

        let cells: Vec<String> = self
            .values
            .iter()
            .zip(&self.keys)
            .map(|(v, k)| format!("{v:.3}|{k}"))
            .collect();
        black_box(cells.join(","));

        let n = MATRIX;
        let mut c = vec![0.0f64; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * self.b[k * n + j];
                }
            }
        }
        black_box(&c);

        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in black_box(&self.bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        let mut at = (hash % CHASE_SLOTS as u64) as u32;
        for _ in 0..CHASE_SLOTS {
            at = self.next[at as usize];
        }
        black_box(at);

        start.elapsed().as_nanos() as f64
    }
}

/// Host speed (1 = nominal, below 1 = slowed) around each of the
/// `boundary_ns.len() - 1` rounds, where round `i` ran between the
/// reference runs `boundary_ns[i]` and `boundary_ns[i + 1]`: nominal
/// over the median reference time of the boundaries within [`WINDOW`]
/// of the round.
pub fn speeds(boundary_ns: &[f64]) -> Vec<f64> {
    (0..boundary_ns.len().saturating_sub(1))
        .map(|round| {
            let from = round.saturating_sub(WINDOW);
            let to = (round + 2 + WINDOW).min(boundary_ns.len());
            NOMINAL_NS / crate::stats::median(&boundary_ns[from..to])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_takes_about_its_nominal_time() {
        let reference = HostReference::default();
        let best = (0..5)
            .map(|_| reference.run_ns())
            .fold(f64::INFINITY, f64::min);
        // Same machine class, optimised or not: within a factor of 30.
        assert!(
            best > NOMINAL_NS / 30.0 && best < NOMINAL_NS * 30.0,
            "{best}"
        );
    }

    #[test]
    fn a_round_is_scaled_by_the_boundaries_around_it() {
        // A host at nominal speed, then twice as slow.
        let nominal = [NOMINAL_NS; 8];
        let slow = [2.0 * NOMINAL_NS; 8];
        let both: Vec<f64> = nominal.iter().chain(&slow).copied().collect();
        let s = speeds(&both);
        assert_eq!(s.len(), 15);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[14], 0.5);
        // One stalled reference run does not scale its rounds.
        let mut glitch = nominal;
        glitch[4] *= 10.0;
        assert!(speeds(&glitch).iter().all(|&v| v == 1.0));
        assert!(speeds(&[NOMINAL_NS]).is_empty());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_leaves_one_cpu_to_this_thread_and_its_children() {
        // In a thread of its own, so the other tests stay unpinned.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("a Linux thread can narrow its own mask");
            let seen = std::thread::spawn(std::thread::available_parallelism)
                .join()
                .unwrap()
                .unwrap();
            assert_eq!(seen.get(), 1, "pinned to CPU {cpu}");
        })
        .join()
        .unwrap();
    }
}
