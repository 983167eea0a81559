//! Distributed 3D FFT with slab decomposition and an all-to-all transpose.
//!
//! Forward transform of an n³ array distributed as x-slabs:
//!
//! 1. 2D FFT (y and z) of every local x-plane,
//! 2. all-to-all transpose to y-slabs,
//! 3. 1D FFT along x of every local (y, z) line.
//!
//! The output is y-slab distributed with x-major layout `(x, y_local, z)`.
//! The inverse reverses the three steps. The transpose is QE's
//! communication hot spot — "communication-bound for large systems".

use jubench_kernels::{FftPlan, C64};
use jubench_simmpi::{Comm, SimError};

/// Plan for an n³ transform over equal slabs, one per rank (n divisible
/// by the rank count).
#[derive(Debug, Clone)]
pub(crate) struct DistFft {
    pub n: usize,
    /// Slab width (n / rank count).
    pub w: usize,
    /// The length-n line transform of all three axes.
    plan: FftPlan,
}

impl DistFft {
    pub fn new(comm: &Comm, n: usize) -> Self {
        let p = comm.size() as usize;
        assert!(
            n.is_multiple_of(p),
            "grid side {n} must divide the rank count {p}"
        );
        assert!(n.is_power_of_two(), "grid side must be a power of two");
        DistFft {
            n,
            w: n / p,
            plan: FftPlan::new(n),
        }
    }

    /// Local x-slab length in elements: w × n × n.
    pub(crate) fn slab_len(&self) -> usize {
        self.w * self.n * self.n
    }

    /// In-place 2D FFT of the y/z dimensions of each local x-plane
    /// (layout: `(x_local, y, z)` row-major).
    fn fft_planes(&self, data: &mut [C64], inverse: bool) {
        let n = self.n;
        let line = if inverse {
            FftPlan::inverse
        } else {
            FftPlan::forward
        };
        let mut scratch = vec![C64::ZERO; n];
        for plane in data.chunks_mut(n * n) {
            // z-direction: contiguous rows.
            for row in plane.chunks_mut(n) {
                line(&self.plan, row);
            }
            // y-direction: stride n.
            for z in 0..n {
                for y in 0..n {
                    scratch[y] = plane[y * n + z];
                }
                line(&self.plan, &mut scratch);
                for y in 0..n {
                    plane[y * n + z] = scratch[y];
                }
            }
        }
    }

    /// All-to-all transpose from x-slabs `(x_local, y, z)` to y-slabs
    /// `(x, y_local, z)`.
    fn transpose(&self, comm: &mut Comm, data: &[C64]) -> Result<Vec<C64>, SimError> {
        let (n, w) = (self.n, self.w);
        let p = comm.size() as usize;
        // Build the per-destination buffers: rank r gets y ∈ [r·w, (r+1)·w).
        let mut send: Vec<Vec<f64>> = vec![Vec::with_capacity(w * w * n * 2); p];
        for xl in 0..w {
            for y in 0..n {
                let dst = y / w;
                for z in 0..n {
                    let c = data[(xl * n + y) * n + z];
                    send[dst].push(c.re);
                    send[dst].push(c.im);
                }
            }
        }
        let recv = comm.alltoall_f64(send)?;
        // Reassemble: from rank r we received its x-range [r·w, (r+1)·w)
        // for our y-range, ordered (x_local_of_r, y, z).
        let mut out = vec![C64::ZERO; n * w * n];
        for (src, buf) in recv.iter().enumerate() {
            assert_eq!(buf.len(), w * w * n * 2);
            let mut it = buf.chunks_exact(2);
            for xl in 0..w {
                let x = src * w + xl;
                for yl in 0..w {
                    for z in 0..n {
                        let c = it.next().unwrap();
                        out[(x * w + yl) * n + z] = C64::new(c[0], c[1]);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Inverse transpose: y-slabs back to x-slabs.
    fn transpose_back(&self, comm: &mut Comm, data: &[C64]) -> Result<Vec<C64>, SimError> {
        let (n, w) = (self.n, self.w);
        let p = comm.size() as usize;
        // Destination rank owns x ∈ [r·w, (r+1)·w).
        let mut send: Vec<Vec<f64>> = vec![Vec::with_capacity(w * w * n * 2); p];
        for x in 0..n {
            let dst = x / w;
            for yl in 0..w {
                for z in 0..n {
                    let c = data[(x * w + yl) * n + z];
                    send[dst].push(c.re);
                    send[dst].push(c.im);
                }
            }
        }
        let recv = comm.alltoall_f64(send)?;
        let rank = comm.rank() as usize;
        let _ = rank;
        let mut out = vec![C64::ZERO; w * n * n];
        for (src, buf) in recv.iter().enumerate() {
            // From rank `src` we received our x-range for its y-range
            // [src·w, (src+1)·w), ordered (x_local, y_local_of_src, z).
            let mut it = buf.chunks_exact(2);
            for xl in 0..w {
                for yl in 0..w {
                    let y = src * w + yl;
                    for z in 0..n {
                        let c = it.next().unwrap();
                        out[(xl * n + y) * n + z] = C64::new(c[0], c[1]);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Forward distributed FFT: x-slab real-space input → y-slab k-space
    /// output (layout `(kx, ky_local, kz)`).
    pub fn forward(&self, comm: &mut Comm, slab: &mut Vec<C64>) -> Result<(), SimError> {
        assert_eq!(slab.len(), self.slab_len());
        self.fft_planes(slab, false);
        let mut t = self.transpose(comm, slab)?;
        // FFT along x: lines of stride w·n in the (x, y_local, z) layout.
        let (n, w) = (self.n, self.w);
        let mut scratch = vec![C64::ZERO; n];
        for yl in 0..w {
            for z in 0..n {
                for x in 0..n {
                    scratch[x] = t[(x * w + yl) * n + z];
                }
                self.plan.forward(&mut scratch);
                for x in 0..n {
                    t[(x * w + yl) * n + z] = scratch[x];
                }
            }
        }
        *slab = t;
        Ok(())
    }

    /// Inverse distributed FFT: y-slab k-space → x-slab real space.
    pub fn inverse(&self, comm: &mut Comm, kslab: &mut Vec<C64>) -> Result<(), SimError> {
        let (n, w) = (self.n, self.w);
        assert_eq!(kslab.len(), n * w * n);
        let mut scratch = vec![C64::ZERO; n];
        for yl in 0..w {
            for z in 0..n {
                for x in 0..n {
                    scratch[x] = kslab[(x * w + yl) * n + z];
                }
                self.plan.inverse(&mut scratch);
                for x in 0..n {
                    kslab[(x * w + yl) * n + z] = scratch[x];
                }
            }
        }
        let mut back = self.transpose_back(comm, kslab)?;
        self.fft_planes(&mut back, true);
        *kslab = back;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_kernels::rank_rng;
    use jubench_simmpi::World;

    fn world4() -> World {
        World::new(Machine::juwels_booster().partition(1)) // 4 ranks
    }

    #[test]
    fn round_trip_is_identity() {
        let results = world4().run(|comm| {
            let plan = DistFft::new(comm, 8);
            let mut rng = rank_rng(9, comm.rank());
            let original: Vec<C64> = (0..plan.slab_len())
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut data = original.clone();
            plan.forward(comm, &mut data).unwrap();
            plan.inverse(comm, &mut data).unwrap();
            data.iter()
                .zip(&original)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max)
        });
        for r in &results {
            assert!(r.value < 1e-12, "rank {}: max err {}", r.rank, r.value);
        }
    }

    #[test]
    fn plane_wave_lands_in_a_single_bin() {
        // e^{2πi(k·r)/n} must transform to a delta at (kx, ky, kz).
        let (kx, ky, kz) = (3usize, 1usize, 5usize);
        let results = world4().run(move |comm| {
            let n = 8usize;
            let plan = DistFft::new(comm, n);
            let w = plan.w;
            let x0 = comm.rank() as usize * w;
            let mut slab = vec![C64::ZERO; plan.slab_len()];
            for xl in 0..w {
                for y in 0..n {
                    for z in 0..n {
                        let phase = 2.0
                            * std::f64::consts::PI
                            * ((kx * (x0 + xl) + ky * y + kz * z) as f64)
                            / n as f64;
                        slab[(xl * n + y) * n + z] = C64::cis(phase);
                    }
                }
            }
            plan.forward(comm, &mut slab).unwrap();
            // Output layout: (x, y_local, z) with y ∈ [rank·w, …).
            let y0 = comm.rank() as usize * w;
            let mut peak = (0.0, 0usize, 0usize, 0usize);
            let mut off_peak_max = 0.0f64;
            for x in 0..n {
                for yl in 0..w {
                    for z in 0..n {
                        let mag = slab[(x * w + yl) * n + z].abs();
                        if (x, y0 + yl, z) == (kx, ky, kz) {
                            peak = (mag, x, y0 + yl, z);
                        } else {
                            off_peak_max = off_peak_max.max(mag);
                        }
                    }
                }
            }
            (peak, off_peak_max)
        });
        let total = 8.0f64.powi(3);
        let mut found = false;
        for r in &results {
            let ((mag, x, y, z), off) = r.value;
            assert!(off < 1e-9, "spurious spectral content {off}");
            if mag > 0.0 {
                assert!((mag - total).abs() < 1e-9, "peak magnitude {mag}");
                assert_eq!((x, y, z), (3, 1, 5));
                found = true;
            }
        }
        assert!(found, "no rank holds the spectral peak");
    }

    #[test]
    fn agrees_with_local_fft() {
        // The distributed transform of a deterministic global field must
        // match the single-process reference transform bin by bin.
        let n = 8usize;
        let field = |x: usize, y: usize, z: usize| -> C64 {
            C64::new(
                ((x * 7 + y * 3 + z) as f64 * 0.37).sin(),
                ((x + y * 5 + z * 2) as f64 * 0.21).cos(),
            )
        };
        // Reference.
        let mut reference = vec![C64::ZERO; n * n * n];
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    reference[(x * n + y) * n + z] = field(x, y, z);
                }
            }
        }
        jubench_kernels::fft_3d(&mut reference, n, n, n);
        let reference = std::sync::Arc::new(reference);
        let reference2 = std::sync::Arc::clone(&reference);
        let results = world4().run(move |comm| {
            let plan = DistFft::new(comm, n);
            let w = plan.w;
            let x0 = comm.rank() as usize * w;
            let mut slab = vec![C64::ZERO; plan.slab_len()];
            for xl in 0..w {
                for y in 0..n {
                    for z in 0..n {
                        slab[(xl * n + y) * n + z] = field(x0 + xl, y, z);
                    }
                }
            }
            plan.forward(comm, &mut slab).unwrap();
            let y0 = comm.rank() as usize * w;
            let mut max_err = 0.0f64;
            for x in 0..n {
                for yl in 0..w {
                    for z in 0..n {
                        let got = slab[(x * w + yl) * n + z];
                        let want = reference2[(x * n + (y0 + yl)) * n + z];
                        max_err = max_err.max((got - want).abs());
                    }
                }
            }
            max_err
        });
        for r in &results {
            assert!(r.value < 1e-9, "rank {}: {}", r.rank, r.value);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_grid_is_rejected() {
        world4().run(|comm| {
            let _ = DistFft::new(comm, 6);
        });
    }
}
