//! Deterministic per-rank random streams.
//!
//! Benchmark workloads must be reproducible across reruns and across rank
//! counts; every stochastic component therefore draws from a stream seeded
//! by `(benchmark seed, rank)` through a SplitMix64 scrambler, so streams
//! are decorrelated and stable.
//!
//! The generator is a self-contained xoshiro256++ implementation: the
//! suite must build and run with no external crates (offline container,
//! air-gapped procurement environments), so no `rand` dependency is
//! allowed anywhere in the library graph.

use std::ops::Range;

/// SplitMix64 step, used to derive well-mixed seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ stream.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Expand a 64-bit seed into the full 256-bit state via SplitMix64
    /// (the initialization recommended by the xoshiro authors).
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        let s = [
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
            splitmix64(&mut st),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from a range (floating-point or integer).
    #[inline]
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Alias for [`DetRng::gen_f64`], mirroring the call-site idiom
    /// `let r: f64 = rng.gen();` of the previous rand-based streams.
    #[inline]
    pub fn gen(&mut self) -> f64 {
        self.gen_f64()
    }
}

/// Types drawable uniformly from a `Range` by [`DetRng::gen_range`].
pub trait SampleRange: Sized {
    fn sample(rng: &mut DetRng, range: Range<Self>) -> Self;
}

impl SampleRange for f64 {
    #[inline]
    fn sample(rng: &mut DetRng, range: Range<f64>) -> f64 {
        debug_assert!(range.start < range.end);
        range.start + (range.end - range.start) * rng.gen_f64()
    }
}

macro_rules! impl_int_sample {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            #[inline]
            fn sample(rng: &mut DetRng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "empty gen_range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_int_sample!(u8, u16, u32, u64, usize);

/// A deterministic RNG for `rank` within the stream family `seed`.
pub fn rank_rng(seed: u64, rank: u32) -> DetRng {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let a = splitmix64(&mut state);
    let mut state2 = a ^ (rank as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    let b = splitmix64(&mut state2);
    DetRng::seed_from_u64(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = rank_rng(1, 0);
        let mut b = rank_rng(1, 0);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_ranks_different_streams() {
        let mut a = rank_rng(1, 0);
        let mut b = rank_rng(1, 1);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = rank_rng(1, 0);
        let mut b = rank_rng(2, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_avalanche() {
        // Nearby states produce very different outputs.
        let mut s1 = 1u64;
        let mut s2 = 2u64;
        let d = (splitmix64(&mut s1) ^ splitmix64(&mut s2)).count_ones();
        assert!(d > 10, "only {d} differing bits");
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = rank_rng(7, 0);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_draws_stay_in_range() {
        let mut rng = rank_rng(9, 3);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x));
            let k = rng.gen_range(3usize..17);
            assert!((3..17).contains(&k));
            let b = rng.gen_range(0u8..6);
            assert!(b < 6);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = rank_rng(11, 0);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn mean_is_near_half() {
        let mut rng = rank_rng(13, 0);
        let sum: f64 = (0..100_000).map(|_| rng.gen_f64()).sum();
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
