//! Radix-2 complex FFT, 1D and 3D.
//!
//! Three-dimensional FFTs dominate Quantum ESPRESSO ("The dominant kernel
//! in QE performs a three-dimensional FFT, which is usually a memory-bound
//! kernel and is communication-bound for large systems", §IV-A1e) and the
//! PME long-range part of the MD codes. Distributed slab decomposition is
//! built on top of this in the app crates; here live the node-local
//! transforms.

use crate::complex::C64;

/// A radix-2 Cooley-Tukey plan for one length: the bit-reversal swaps
/// and both directions' butterfly twiddles, derived once and applied to
/// any number of lines of that length.
///
/// Stage `len` (2, 4, …, n) of a transform multiplies by `w_i = wlenⁱ`
/// for `i < len/2`, where `wlen = cis(±2π/len)`. Each `w_i` is built by
/// the recurrence `w ← w·wlen` from one, as a butterfly loop without a
/// plan would run it, so a planned transform is bit-equal to that loop.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Index pairs `(i, j)`, `i < j`, of the bit-reversal permutation.
    swaps: Vec<(usize, usize)>,
    /// Stage `len`'s twiddles at `len/2 − 1 .. len − 1`: n − 1 in all.
    forward: Vec<C64>,
    inverse: Vec<C64>,
}

impl FftPlan {
    /// The plan for length `n`, which must be a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let bits = n.trailing_zeros();
        // Length 1 has no bits to reverse (and a shift by 32 would overflow).
        let swaps = (0..n)
            .filter_map(|i| {
                let j = (i as u32)
                    .reverse_bits()
                    .checked_shr(32 - bits)
                    .unwrap_or(0) as usize;
                (i < j).then_some((i, j))
            })
            .collect();
        let twiddles = |sign: f64| {
            let mut all = Vec::with_capacity(n - 1);
            let mut len = 2;
            while len <= n {
                let wlen = C64::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
                let mut w = C64::ONE;
                for _ in 0..len / 2 {
                    all.push(w);
                    w = w * wlen;
                }
                len <<= 1;
            }
            all
        };
        FftPlan {
            n,
            swaps,
            forward: twiddles(-1.0),
            inverse: twiddles(1.0),
        }
    }

    /// Forward FFT of one line of the plan's length, in place.
    pub fn forward(&self, data: &mut [C64]) {
        self.butterflies(data, &self.forward);
    }

    /// Inverse FFT of one line (normalized, so that the inverse of the
    /// forward transform is the identity), in place.
    pub fn inverse(&self, data: &mut [C64]) {
        self.butterflies(data, &self.inverse);
        if self.n > 1 {
            let inv_n = 1.0 / self.n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv_n);
            }
        }
    }

    /// Forward 3D FFT of an `n × n × n` array, in place.
    pub fn forward_cube(&self, data: &mut [C64]) {
        transform_3d(data, [self, self, self], false);
    }

    /// Inverse 3D FFT (normalized) of an `n × n × n` array, in place.
    pub fn inverse_cube(&self, data: &mut [C64]) {
        transform_3d(data, [self, self, self], true);
    }

    fn butterflies(&self, data: &mut [C64], twiddles: &[C64]) {
        let n = self.n;
        assert_eq!(data.len(), n, "FFT line length differs from the plan's");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &twiddles[half - 1..len - 1];
            for chunk in data.chunks_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(stage) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
    }
}

/// Forward FFT, in place. `data.len()` must be a power of two.
pub fn fft_1d(data: &mut [C64]) {
    FftPlan::new(data.len()).forward(data);
}

/// Inverse FFT, in place (normalized).
pub fn ifft_1d(data: &mut [C64]) {
    FftPlan::new(data.len()).inverse(data);
}

/// Forward 3D FFT of a row-major `nx × ny × nz` array, in place.
pub fn fft_3d(data: &mut [C64], nx: usize, ny: usize, nz: usize) {
    let plans = [FftPlan::new(nx), FftPlan::new(ny), FftPlan::new(nz)];
    transform_3d(data, [&plans[0], &plans[1], &plans[2]], false);
}

/// Inverse 3D FFT (normalized), in place.
pub fn ifft_3d(data: &mut [C64], nx: usize, ny: usize, nz: usize) {
    let plans = [FftPlan::new(nx), FftPlan::new(ny), FftPlan::new(nz)];
    transform_3d(data, [&plans[0], &plans[1], &plans[2]], true);
}

/// The 3D transform with one plan per axis `[x, y, z]`: z rows, then y
/// lines, then x lines.
fn transform_3d(data: &mut [C64], [px, py, pz]: [&FftPlan; 3], inverse: bool) {
    let (nx, ny, nz) = (px.n, py.n, pz.n);
    assert_eq!(data.len(), nx * ny * nz);
    let line = if inverse {
        FftPlan::inverse
    } else {
        FftPlan::forward
    };
    // z-direction: contiguous rows.
    for row in data.chunks_mut(nz) {
        line(pz, row);
    }
    // y-direction: stride nz within each x-plane.
    let mut scratch = vec![C64::ZERO; ny.max(nx)];
    for ix in 0..nx {
        let plane = &mut data[ix * ny * nz..(ix + 1) * ny * nz];
        for iz in 0..nz {
            for iy in 0..ny {
                scratch[iy] = plane[iy * nz + iz];
            }
            line(py, &mut scratch[..ny]);
            for iy in 0..ny {
                plane[iy * nz + iz] = scratch[iy];
            }
        }
    }
    // x-direction: stride ny*nz.
    let stride = ny * nz;
    for iyz in 0..stride {
        for ix in 0..nx {
            scratch[ix] = data[ix * stride + iyz];
        }
        line(px, &mut scratch[..nx]);
        for ix in 0..nx {
            data[ix * stride + iyz] = scratch[ix];
        }
    }
}

/// The unplanned transform [`FftPlan`] replaced — bit reversal and
/// `cis` per line, twiddles by recurrence inside the butterfly loop —
/// kept as its oracle.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn fft_inplace(data: &mut [C64], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - bits);
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = C64::cis(ang);
            for chunk in data.chunks_mut(len) {
                let mut w = C64::ONE;
                let half = len / 2;
                for i in 0..half {
                    let u = chunk[i];
                    let v = chunk[i + half] * w;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                    w = w * wlen;
                }
            }
            len <<= 1;
        }
        if inverse {
            let inv_n = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv_n);
            }
        }
    }

    pub(super) fn fft_3d_dir(data: &mut [C64], nx: usize, ny: usize, nz: usize, inverse: bool) {
        assert_eq!(data.len(), nx * ny * nz);
        for row in data.chunks_mut(nz) {
            fft_inplace(row, inverse);
        }
        let mut scratch = vec![C64::ZERO; ny.max(nx)];
        for ix in 0..nx {
            let plane = &mut data[ix * ny * nz..(ix + 1) * ny * nz];
            for iz in 0..nz {
                for iy in 0..ny {
                    scratch[iy] = plane[iy * nz + iz];
                }
                fft_inplace(&mut scratch[..ny], inverse);
                for iy in 0..ny {
                    plane[iy * nz + iz] = scratch[iy];
                }
            }
        }
        let stride = ny * nz;
        for iyz in 0..stride {
            for ix in 0..nx {
                scratch[ix] = data[ix * stride + iyz];
            }
            fft_inplace(&mut scratch[..nx], inverse);
            for ix in 0..nx {
                data[ix * stride + iyz] = scratch[ix];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rank_rng;

    /// Naive O(n²) DFT used as a test oracle.
    fn dft_reference(data: &[C64]) -> Vec<C64> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = C64::ZERO;
                for (j, &x) in data.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += x * C64::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = rank_rng(seed, 0);
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn bits(data: &[C64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn a_plan_is_the_unplanned_transform_bit_for_bit() {
        for log_n in 0..=10u64 {
            let n = 1usize << log_n;
            let plan = FftPlan::new(n);
            let signal = random_signal(n, 0xFF7 + log_n);
            for inverse in [false, true] {
                let mut want = signal.clone();
                reference::fft_inplace(&mut want, inverse);
                let mut planned = signal.clone();
                let mut unplanned = signal.clone();
                if inverse {
                    plan.inverse(&mut planned);
                    ifft_1d(&mut unplanned);
                } else {
                    plan.forward(&mut planned);
                    fft_1d(&mut unplanned);
                }
                assert_eq!(bits(&planned), bits(&want), "n {n} inverse {inverse}");
                assert_eq!(bits(&unplanned), bits(&want), "n {n} inverse {inverse}");
            }
        }
    }

    #[test]
    fn planned_3d_transforms_are_the_unplanned_ones_bit_for_bit() {
        let (nx, ny, nz) = (8, 4, 16);
        let signal = random_signal(nx * ny * nz, 0x3D);
        for inverse in [false, true] {
            let mut want = signal.clone();
            reference::fft_3d_dir(&mut want, nx, ny, nz, inverse);
            let mut got = signal.clone();
            if inverse {
                ifft_3d(&mut got, nx, ny, nz);
            } else {
                fft_3d(&mut got, nx, ny, nz);
            }
            assert_eq!(bits(&got), bits(&want), "{nx}×{ny}×{nz} inverse {inverse}");
        }
        let n = 8;
        let plan = FftPlan::new(n);
        let signal = random_signal(n * n * n, 0xC0BE);
        for inverse in [false, true] {
            let mut want = signal.clone();
            reference::fft_3d_dir(&mut want, n, n, n, inverse);
            let mut got = signal.clone();
            if inverse {
                plan.inverse_cube(&mut got);
            } else {
                plan.forward_cube(&mut got);
            }
            assert_eq!(bits(&got), bits(&want), "{n}³ inverse {inverse}");
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let signal = random_signal(n, 42);
            let expect = dft_reference(&signal);
            let mut got = signal.clone();
            fft_1d(&mut got);
            assert!(max_err(&got, &expect) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn round_trip_1d() {
        let signal = random_signal(256, 7);
        let mut data = signal.clone();
        fft_1d(&mut data);
        ifft_1d(&mut data);
        assert!(max_err(&data, &signal) < 1e-12);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let mut data = vec![C64::ZERO; 32];
        data[0] = C64::ONE;
        fft_1d(&mut data);
        for z in &data {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_is_detected() {
        let n = 64;
        let k = 5;
        let mut data: Vec<C64> = (0..n)
            .map(|j| C64::cis(2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64))
            .collect();
        fft_1d(&mut data);
        for (i, z) in data.iter().enumerate() {
            let expected = if i == k { n as f64 } else { 0.0 };
            assert!((z.abs() - expected).abs() < 1e-9, "bin {i}");
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let signal = random_signal(128, 3);
        let time_energy: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let mut data = signal;
        fft_1d(&mut data);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![C64::ZERO; 12];
        fft_1d(&mut data);
    }

    #[test]
    fn round_trip_3d() {
        let (nx, ny, nz) = (8, 4, 16);
        let signal = random_signal(nx * ny * nz, 11);
        let mut data = signal.clone();
        fft_3d(&mut data, nx, ny, nz);
        ifft_3d(&mut data, nx, ny, nz);
        assert!(max_err(&data, &signal) < 1e-12);
    }

    #[test]
    fn plane_wave_3d_single_bin() {
        let (nx, ny, nz) = (8usize, 8usize, 8usize);
        let (kx, ky, kz) = (2usize, 3usize, 1usize);
        let mut data = vec![C64::ZERO; nx * ny * nz];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let phase = 2.0 * std::f64::consts::PI * (kx * ix) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * iy) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * iz) as f64 / nz as f64;
                    data[(ix * ny + iy) * nz + iz] = C64::cis(phase);
                }
            }
        }
        fft_3d(&mut data, nx, ny, nz);
        let total = (nx * ny * nz) as f64;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let z = data[(ix * ny + iy) * nz + iz];
                    let expected = if (ix, iy, iz) == (kx, ky, kz) {
                        total
                    } else {
                        0.0
                    };
                    assert!((z.abs() - expected).abs() < 1e-8, "bin {ix},{iy},{iz}");
                }
            }
        }
    }
}
