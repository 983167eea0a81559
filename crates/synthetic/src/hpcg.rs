//! HPCG: conjugate gradient on the 27-point stencil with a symmetric
//! Gauss-Seidel preconditioner — the bandwidth-bound counterpart to HPL.
//!
//! Both kernels work on a copy of their vector with a one-point ghost
//! layer, so all 26 neighbours of every point exist and the inner loops
//! carry no bounds logic. The ghosts hold the identity of the operation
//! that reads them — `+0.0` under `apply_with`'s subtractions, `−0.0` under the
//! sweep's additions (`x + (−0.0)` is `x` for every `x`, while
//! `(−0.0) + (+0.0)` is `+0.0`) — so reading a ghost equals skipping it.
//!
//! The summation order is frozen: every point adds or subtracts its
//! neighbours in ascending `(di, dj, dk)`, one at a time. The iteration
//! count and residual of `hpcg_pcg` feed verification, `pcg_iterations`
//! and every digest downstream, so a reassociated sum, a fused
//! multiply-add or a zero of the other sign is a visible change; the
//! `oracle` tests compare every output bit with the plain loop nest.

use std::time::Instant;

use crate::host_rate;
use jubench_apps_common::{layout_serial, outcome, AppModel, Phase};
use jubench_cluster::{balanced_dims3, CommPattern, Work};
use jubench_core::{
    Benchmark, BenchmarkId, BenchmarkMeta, Fom, RealLayout, RealTrack, RunConfig, RunOutcome,
    SuiteError, VerificationOutcome,
};
use jubench_kernels::cg::{pcg, Start};

/// The 27-point operator on an n³ grid with Dirichlet boundaries: diagonal
/// 26, off-diagonals −1 (HPCG's standard problem).
pub struct Stencil27 {
    pub n: usize,
}

impl Stencil27 {
    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    pub fn len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// An (n+2)³ grid filled with `ghost`: the n³ points plus one ghost
    /// point beyond every face. The kernels write its interior only, so
    /// the ghost layer keeps its value from call to call.
    fn ghosted(&self, ghost: f64) -> Vec<f64> {
        vec![ghost; (self.n + 2).pow(3)]
    }

    /// Start of the ghosted row that holds points `(i, j, ·)`; point k
    /// sits at offset `k + 1`, and `i`, `j` in `0..n + 2` count from the
    /// ghost plane and ghost row.
    #[inline]
    fn ghosted_row(&self, i: usize, j: usize) -> usize {
        (i * (self.n + 2) + j) * (self.n + 2)
    }

    fn load(&self, ghosted: &mut [f64], x: &[f64]) {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let row = self.ghosted_row(i + 1, j + 1) + 1;
                ghosted[row..row + n].copy_from_slice(&x[self.idx(i, j, 0)..][..n]);
            }
        }
    }

    fn store(&self, ghosted: &[f64], x: &mut [f64]) {
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                let row = self.ghosted_row(i + 1, j + 1) + 1;
                x[self.idx(i, j, 0)..][..n].copy_from_slice(&ghosted[row..row + n]);
            }
        }
    }

    /// y = A x for the 27-point operator, through caller-owned scratch
    /// from `ghosted(0.0)`.
    fn apply_with(&self, ghosted: &mut [f64], x: &[f64], y: &mut [f64]) {
        debug_assert!(
            ghosted[0].is_sign_positive(),
            "s − (−0.0) turns −0.0 into +0.0"
        );
        self.load(ghosted, x);
        let (n, m) = (self.n, self.n + 2);
        for i in 0..n {
            for j in 0..n {
                // The nine ghosted rows around row (i, j), ascending (di, dj).
                let rows: [&[f64]; 9] = std::array::from_fn(|q| {
                    &ghosted[self.ghosted_row(i + q / 3, j + q % 3)..][..m]
                });
                let out = &mut y[self.idx(i, j, 0)..][..n];
                for k in 0..n {
                    let mut s = 26.0 * rows[4][k + 1];
                    for (q, row) in rows.iter().enumerate() {
                        s -= row[k];
                        if q != 4 {
                            s -= row[k + 1];
                        }
                        s -= row[k + 2];
                    }
                    out[k] = s;
                }
            }
        }
    }

    /// One symmetric Gauss-Seidel sweep (forward then backward) on
    /// A z = r, in place — HPCG's smoother/preconditioner — through
    /// caller-owned scratch from `ghosted(-0.0)`.
    fn sym_gauss_seidel_with(&self, ghosted: &mut [f64], z: &mut [f64], r: &[f64]) {
        debug_assert!(ghosted[0].is_sign_negative(), "(−0.0) + (+0.0) is +0.0");
        let (n, fronts) = (self.n, (3 * self.n).saturating_sub(2));
        self.load(ghosted, z);
        self.sweep(ghosted, r, 0..fronts, 0..n);
        self.sweep(ghosted, r, (0..fronts).rev(), (0..n).rev());
        self.store(ghosted, z);
    }

    /// One Gauss-Seidel sweep in lexicographic order (or its reverse),
    /// executed front by front: front `h` holds the rows with
    /// `j + 2i = h`. Of the rows a point reads, those earlier in
    /// lexicographic order lie on a lower front (`Δj + 2Δi < 0`) and
    /// those later on a higher one, so every read sees exactly the value
    /// the plain sweep would — and the rows of one front share no
    /// dependence, which lets their per-point chains (13 or 14 additions
    /// and a division that each wait on the previous point of the row)
    /// overlap in the core instead of running end to end.
    fn sweep(
        &self,
        ghosted: &mut [f64],
        r: &[f64],
        fronts: impl Iterator<Item = usize>,
        ks: impl Iterator<Item = usize> + Clone,
    ) {
        let (n, m) = (self.n, self.n + 2);
        for h in fronts {
            let rows = h.saturating_sub(n - 1).div_ceil(2)..=(h / 2).min(n - 1);
            for k in ks.clone() {
                for i in rows.clone() {
                    let j = h - 2 * i;
                    let mut s = r[self.idx(i, j, k)];
                    let corner = self.ghosted_row(i, j) + k;
                    for di in 0..3 {
                        let plane = &ghosted[corner + di * m * m..][..2 * m + 3];
                        for dj in 0..3 {
                            s += plane[dj * m];
                            if (di, dj) != (1, 1) {
                                s += plane[dj * m + 1];
                            }
                            s += plane[dj * m + 2];
                        }
                    }
                    ghosted[corner + self.ghosted_row(1, 1) + 1] = s / 26.0;
                }
            }
        }
    }
}

/// HPCG-style preconditioned CG; returns (iterations, relative residual,
/// flops performed).
pub(crate) fn hpcg_pcg(op: &Stencil27, b: &[f64], tol: f64, max_iters: usize) -> (usize, f64, f64) {
    let (mut p_ghosted, mut z_ghosted) = (op.ghosted(0.0), op.ghosted(-0.0));
    let mut a = |p: &[f64], ap: &mut [f64]| op.apply_with(&mut p_ghosted, p, ap);
    let mut m = |r: &[f64], z: &mut [f64]| {
        z.fill(0.0);
        op.sym_gauss_seidel_with(&mut z_ghosted, z, r);
    };
    let mut x = vec![0.0; op.len()];
    let Ok(res) = pcg(&mut a, Some(&mut m), b, &mut x, Start::Zero, tol, max_iters);
    // 27-pt apply ≈ 54 flops/point; SGS ≈ 108; dots and axpys ≈ 10.
    let flops = (54.0 + 108.0 + 10.0) * op.len() as f64 * res.iterations as f64;
    (res.iterations, res.relative_residual, flops)
}

pub struct Hpcg {
    pub n: usize,
}

impl Default for Hpcg {
    fn default() -> Self {
        Hpcg { n: 16 }
    }
}

impl Benchmark for Hpcg {
    fn meta(&self) -> BenchmarkMeta {
        BenchmarkId::Hpcg.meta()
    }

    fn layout(&self, cfg: &RunConfig) -> Result<RealLayout, SuiteError> {
        self.validate_nodes(cfg.nodes)?;
        Ok(layout_serial(cfg))
    }

    /// One PCG solve of the 27-point problem (the right-hand side is all
    /// ones: the seed is not an input).
    fn execute(&self, _layout: &RealLayout) -> Result<RealTrack, SuiteError> {
        let op = Stencil27 { n: self.n };
        let b = vec![1.0; op.len()];
        let start = Instant::now();
        let (iters, resid, flops) = hpcg_pcg(&op, &b, 1e-8, 200);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        Ok(RealTrack {
            verification: VerificationOutcome::tolerance(resid, 1e-8),
            metrics: vec![
                ("measured_flops".into(), flops / elapsed),
                ("pcg_iterations".into(), iters as f64),
            ],
        })
    }

    /// Full-scale model: HPCG is bandwidth-bound; halo + dots.
    fn cost(&self, cfg: &RunConfig, track: &RealTrack) -> RunOutcome {
        let machine = cfg.machine();
        let points_per_gpu = 104.0f64.powi(3); // standard local 104³ block
        let rank_dims = balanced_dims3(machine.devices());
        let timing = AppModel::new(machine, 500)
            .with_efficiencies(0.1, 0.85)
            .with_phase(Phase::compute(
                "stencil + sgs",
                Work::new(172.0 * points_per_gpu, 27.0 * 8.0 * points_per_gpu),
            ))
            .with_phase(Phase::comm(
                "halo",
                CommPattern::Halo3d {
                    rank_dims,
                    bytes_per_face: [(104.0f64 * 104.0 * 8.0) as u64; 3],
                },
            ))
            .with_phase(Phase::comm("dots", CommPattern::AllReduce { bytes: 8 }))
            .timing();
        let mut out = outcome(timing, track.verification.clone(), track.metrics.clone());
        out.fom = Fom::Flops(host_rate(track, "measured_flops"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;

    #[test]
    fn stencil_row_sums() {
        // Interior rows sum to 26 − 26 = 0; the constant vector maps to
        // zero in the interior, positive on the boundary.
        let op = Stencil27 { n: 5 };
        let ones = vec![1.0; op.len()];
        let mut y = vec![0.0; op.len()];
        op.apply_with(&mut op.ghosted(0.0), &ones, &mut y);
        assert_eq!(y[op.idx(2, 2, 2)], 0.0);
        assert!(y[op.idx(0, 0, 0)] > 0.0);
    }

    #[test]
    fn preconditioned_cg_converges_fast() {
        let op = Stencil27 { n: 12 };
        let b = vec![1.0; op.len()];
        let (iters, resid, _) = hpcg_pcg(&op, &b, 1e-8, 100);
        assert!(resid <= 1e-8);
        assert!(iters < 40, "HPCG PCG took {iters} iterations");
    }

    #[test]
    fn sgs_smooths_the_residual() {
        let op = Stencil27 { n: 8 };
        let r = vec![1.0; op.len()];
        let mut z = vec![0.0; op.len()];
        op.sym_gauss_seidel_with(&mut op.ghosted(-0.0), &mut z, &r);
        // One SGS application of an SPD M-matrix: z stays positive and
        // bounded by the diagonal solve range.
        assert!(z.iter().all(|&v| v > 0.0 && v < 2.0));
    }

    #[test]
    fn run_reports_flops_and_verifies() {
        let out = Hpcg { n: 10 }.run(&RunConfig::test(1)).unwrap();
        assert!(out.verification.passed());
        assert!(matches!(out.fom, Fom::Flops(f) if f > 0.0));
    }

    #[test]
    fn hpcg_fraction_of_peak_is_low() {
        // The point of HPCG: its model efficiency sits far below HPL's.
        let machine = Machine::juwels_booster();
        let out = Hpcg::default().run(&RunConfig::test(936)).unwrap();
        let points = 104.0f64.powi(3) * machine.devices() as f64;
        let rate = 172.0 * points * 500.0 / out.virtual_time_s;
        let frac = rate / machine.peak_flops();
        assert!(frac < 0.12, "HPCG fraction of peak {frac}");
    }
}

/// The plain loop nest the ghosted kernels replaced, kept verbatim as the
/// oracle: every neighbour behind six comparisons, visited in ascending
/// `(di, dj, dk)`.
#[cfg(test)]
mod reference {
    use super::Stencil27;

    pub fn apply(op: &Stencil27, x: &[f64], y: &mut [f64]) {
        let n = op.n as isize;
        for i in 0..op.n {
            for j in 0..op.n {
                for k in 0..op.n {
                    let mut s = 26.0 * x[op.idx(i, j, k)];
                    for di in -1..=1isize {
                        for dj in -1..=1isize {
                            for dk in -1..=1isize {
                                if di == 0 && dj == 0 && dk == 0 {
                                    continue;
                                }
                                let (ii, jj, kk) =
                                    (i as isize + di, j as isize + dj, k as isize + dk);
                                if ii >= 0 && ii < n && jj >= 0 && jj < n && kk >= 0 && kk < n {
                                    s -= x[op.idx(ii as usize, jj as usize, kk as usize)];
                                }
                            }
                        }
                    }
                    y[op.idx(i, j, k)] = s;
                }
            }
        }
    }

    pub(crate) fn sym_gauss_seidel(op: &Stencil27, z: &mut [f64], r: &[f64]) {
        let n = op.n as isize;
        let sweep = |z: &mut [f64], order: &mut dyn Iterator<Item = usize>| {
            for flat in order {
                let i = flat / (op.n * op.n);
                let j = (flat / op.n) % op.n;
                let k = flat % op.n;
                let mut s = r[flat];
                for di in -1..=1isize {
                    for dj in -1..=1isize {
                        for dk in -1..=1isize {
                            if di == 0 && dj == 0 && dk == 0 {
                                continue;
                            }
                            let (ii, jj, kk) = (i as isize + di, j as isize + dj, k as isize + dk);
                            if ii >= 0 && ii < n && jj >= 0 && jj < n && kk >= 0 && kk < n {
                                s += z[op.idx(ii as usize, jj as usize, kk as usize)];
                            }
                        }
                    }
                }
                z[flat] = s / 26.0;
            }
        };
        sweep(z, &mut (0..op.len()));
        sweep(z, &mut (0..op.len()).rev());
    }

    pub(crate) fn hpcg_pcg(
        op: &Stencil27,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> (usize, f64, f64) {
        let len = op.len();
        let dot = |a: &[f64], c: &[f64]| -> f64 { a.iter().zip(c).map(|(x, y)| x * y).sum() };
        let mut x = vec![0.0; len];
        let mut r = b.to_vec();
        let norm_b = dot(b, b).sqrt();
        let mut z = vec![0.0; len];
        sym_gauss_seidel(op, &mut z, &r);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        let mut ap = vec![0.0; len];
        let mut iters = 0;
        let flops_per_iter = (54.0 + 108.0 + 10.0) * len as f64;
        while iters < max_iters && dot(&r, &r).sqrt() / norm_b > tol {
            apply(op, &p, &mut ap);
            let alpha = rz / dot(&p, &ap);
            for i in 0..len {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            z.fill(0.0);
            sym_gauss_seidel(op, &mut z, &r);
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            for i in 0..len {
                p[i] = z[i] + beta * p[i];
            }
            rz = rz_new;
            iters += 1;
        }
        let resid = dot(&r, &r).sqrt() / norm_b;
        (iters, resid, flops_per_iter * iters as f64)
    }
}

/// Bit-identity with [`reference`]: one reassociated sum, one fused
/// multiply-add or one zero of the other sign fails these.
#[cfg(test)]
mod oracle {
    use super::*;
    use jubench_kernels::rank_rng;

    const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16];

    fn random(len: usize, seed: u64, stream: u32) -> Vec<f64> {
        let mut rng = rank_rng(seed, stream);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both kernels on `(x, z, r)` against the reference, every element.
    fn assert_kernels_match(op: &Stencil27, x: &[f64], z: &[f64], r: &[f64], what: &str) {
        let (mut y, mut y_ref) = (vec![f64::NAN; op.len()], vec![f64::NAN; op.len()]);
        op.apply_with(&mut op.ghosted(0.0), x, &mut y);
        reference::apply(op, x, &mut y_ref);
        assert_eq!(bits(&y), bits(&y_ref), "apply, n = {}, {what}", op.n);
        let (mut z_new, mut z_ref) = (z.to_vec(), z.to_vec());
        op.sym_gauss_seidel_with(&mut op.ghosted(-0.0), &mut z_new, r);
        reference::sym_gauss_seidel(op, &mut z_ref, r);
        assert_eq!(bits(&z_new), bits(&z_ref), "sgs, n = {}, {what}", op.n);
    }

    #[test]
    fn kernels_match_the_reference_on_random_input() {
        for n in SIZES {
            let op = Stencil27 { n };
            let seed = 0x27 + n as u64;
            let [x, z, r] = [0, 1, 2].map(|stream| random(op.len(), seed, stream));
            assert_kernels_match(&op, &x, &z, &r, "random");
        }
    }

    #[test]
    fn kernels_match_the_reference_on_signed_zeros() {
        for n in SIZES {
            let op = Stencil27 { n };
            let (pos, neg) = (vec![0.0; op.len()], vec![-0.0; op.len()]);
            assert_kernels_match(&op, &pos, &pos, &pos, "all +0.0");
            assert_kernels_match(&op, &neg, &neg, &neg, "all -0.0");
            // −0.0 on the i = 0 face only: its points start their sums
            // at −0.0 and the reference skips their first nine neighbours.
            let mut face = random(op.len(), 0x51 + n as u64, 0);
            face[..n * n].fill(-0.0);
            assert_kernels_match(&op, &face, &neg, &face, "-0.0 on a face, z = -0.0");
            assert_kernels_match(&op, &face, &pos, &face, "-0.0 on a face, z = +0.0");
        }
    }

    #[test]
    fn pcg_matches_the_reference_driven_pcg() {
        for n in [5, 12, 16] {
            let op = Stencil27 { n };
            for b in [vec![1.0; op.len()], random(op.len(), 0xB0 + n as u64, 0)] {
                let (iters, resid, flops) = hpcg_pcg(&op, &b, 1e-8, 200);
                let (iters_ref, resid_ref, flops_ref) = reference::hpcg_pcg(&op, &b, 1e-8, 200);
                assert_eq!(
                    (iters, resid.to_bits(), flops.to_bits()),
                    (iters_ref, resid_ref.to_bits(), flops_ref.to_bits()),
                    "n = {n}"
                );
                assert!(iters > 0 && iters < 200);
            }
        }
    }
}
