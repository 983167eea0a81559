//! Hybrid Monte Carlo for the pure-gauge sector — the "HMC update
//! trajectories" of the Chroma benchmark (§IV-A2b), implemented for real
//! on a single-rank periodic lattice: Wilson gauge action, the staple
//! force, leapfrog molecular dynamics in the SU(3) group manifold, and
//! the Metropolis accept/reject step.
//!
//! Validation exploits the structural invariants of HMC:
//! - the force vanishes on a cold (unit-link) configuration,
//! - the exponential map lands exactly in SU(3),
//! - leapfrog is *reversible*: integrating forward, flipping the momenta,
//!   and integrating back recovers the initial links,
//! - the energy violation ΔH shrinks as O(dt²) — which pins the
//!   force/action normalization (a wrong constant shows up at O(dt)).

use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_kernels::{rank_rng, C64};

use crate::su3::Su3;

/// A periodic single-rank gauge field.
pub struct GaugeField {
    pub dims: [usize; 4],
    /// `links[site][mu]`
    pub links: Vec<[Su3; 4]>,
}

/// A traceless anti-Hermitian su(3) algebra element (stored as a raw 3×3
/// complex matrix).
pub type Algebra = [[C64; 3]; 3];

fn mat_zero() -> Algebra {
    [[C64::ZERO; 3]; 3]
}

fn mat_add(a: &mut Algebra, b: &Algebra, scale: f64) {
    for i in 0..3 {
        for j in 0..3 {
            a[i][j] += b[i][j].scale(scale);
        }
    }
}

fn mat_scale(a: &Algebra, s: f64) -> Algebra {
    let mut out = *a;
    for row in out.iter_mut() {
        for v in row.iter_mut() {
            *v = v.scale(s);
        }
    }
    out
}

fn mat_mul(a: &Algebra, b: &Algebra) -> Algebra {
    let mut out = mat_zero();
    for i in 0..3 {
        for j in 0..3 {
            let mut acc = C64::ZERO;
            for k in 0..3 {
                acc += a[i][k] * b[k][j];
            }
            out[i][j] = acc;
        }
    }
    out
}

/// ‖M‖²_F = Σ |m_ij|².
fn mat_norm_sqr(a: &Algebra) -> f64 {
    a.iter().flatten().map(|c| c.norm_sqr()).sum()
}

/// Traceless anti-Hermitian projection: (M − M†)/2 − tr(M − M†)/6 · I.
pub fn project_ta(m: &Algebra) -> Algebra {
    let mut out = mat_zero();
    for i in 0..3 {
        for j in 0..3 {
            out[i][j] = (m[i][j] - m[j][i].conj()).scale(0.5);
        }
    }
    let trace = out[0][0] + out[1][1] + out[2][2];
    for i in 0..3 {
        out[i][i] = out[i][i] - trace.scale(1.0 / 3.0);
    }
    out
}

/// exp(M) by a 16-term Taylor series with scaling-and-squaring — exact to
/// round-off for the step sizes HMC uses; the result of an anti-Hermitian
/// argument is unitary.
pub fn exp_matrix(m: &Algebra) -> Su3 {
    // Scale down so the series converges fast.
    let norm = mat_norm_sqr(m).sqrt();
    let squarings = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let scaled = mat_scale(m, 1.0 / 2f64.powi(squarings as i32));
    // Taylor.
    let mut result = Su3::identity().0;
    let mut term = Su3::identity().0;
    for k in 1..=16 {
        term = mat_mul(&term, &scaled);
        term = mat_scale(&term, 1.0 / k as f64);
        mat_add(&mut result, &term, 1.0);
    }
    // Square back up.
    for _ in 0..squarings {
        result = mat_mul(&result, &result);
    }
    Su3(result)
}

impl GaugeField {
    pub fn cold(dims: [usize; 4]) -> Self {
        let volume = dims.iter().product();
        GaugeField {
            dims,
            links: vec![[Su3::identity(); 4]; volume],
        }
    }

    pub fn hot(dims: [usize; 4], seed: u64) -> Self {
        let mut rng = rank_rng(seed, 0);
        let volume: usize = dims.iter().product();
        let links = (0..volume)
            .map(|_| std::array::from_fn(|_| Su3::random(&mut rng)))
            .collect();
        GaugeField { dims, links }
    }

    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    #[inline]
    fn idx(&self, x: [usize; 4]) -> usize {
        ((x[0] * self.dims[1] + x[1]) * self.dims[2] + x[2]) * self.dims[3] + x[3]
    }

    #[inline]
    fn shift(&self, x: [usize; 4], mu: usize, dir: i64) -> [usize; 4] {
        let mut y = x;
        let ext = self.dims[mu] as i64;
        y[mu] = ((x[mu] as i64 + dir).rem_euclid(ext)) as usize;
        y
    }

    fn sites(&self) -> Vec<[usize; 4]> {
        let mut out = Vec::with_capacity(self.volume());
        for a in 0..self.dims[0] {
            for b in 0..self.dims[1] {
                for c in 0..self.dims[2] {
                    for d in 0..self.dims[3] {
                        out.push([a, b, c, d]);
                    }
                }
            }
        }
        out
    }

    /// Average plaquette Re tr(U_p)/3 over all site/plane pairs.
    pub(crate) fn average_plaquette(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0;
        for x in self.sites() {
            for mu in 0..4 {
                for nu in mu + 1..4 {
                    let xp_mu = self.shift(x, mu, 1);
                    let xp_nu = self.shift(x, nu, 1);
                    let u = self.links[self.idx(x)][mu]
                        .mul(&self.links[self.idx(xp_mu)][nu])
                        .mul(&self.links[self.idx(xp_nu)][mu].dagger())
                        .mul(&self.links[self.idx(x)][nu].dagger());
                    sum += u.re_trace() / 3.0;
                    count += 1;
                }
            }
        }
        sum / count as f64
    }

    /// Wilson gauge action S = β Σ_p (1 − Re tr U_p / 3).
    pub fn action(&self, beta: f64) -> f64 {
        let plaquettes = (self.volume() * 6) as f64;
        beta * plaquettes * (1.0 - self.average_plaquette())
    }

    /// The staple sum V_μ(x) of a link, oriented so that the plaquette
    /// contribution of the link is Re tr(U_μ(x) · V_μ(x)) — no dagger.
    fn staple(&self, x: [usize; 4], mu: usize) -> Algebra {
        let mut v = mat_zero();
        for nu in 0..4 {
            if nu == mu {
                continue;
            }
            let xp_mu = self.shift(x, mu, 1);
            let xp_nu = self.shift(x, nu, 1);
            let xm_nu = self.shift(x, nu, -1);
            let xpmu_mnu = self.shift(xp_mu, nu, -1);
            // Forward: U_ν(x+μ) U_μ†(x+ν) U_ν†(x).
            let fwd = self.links[self.idx(xp_mu)][nu]
                .mul(&self.links[self.idx(xp_nu)][mu].dagger())
                .mul(&self.links[self.idx(x)][nu].dagger());
            // Backward: U_ν†(x+μ−ν) U_μ†(x−ν) U_ν(x−ν).
            let bwd = self.links[self.idx(xpmu_mnu)][nu]
                .dagger()
                .mul(&self.links[self.idx(xm_nu)][mu].dagger())
                .mul(&self.links[self.idx(xm_nu)][nu]);
            mat_add(&mut v, &fwd.0, 1.0);
            mat_add(&mut v, &bwd.0, 1.0);
        }
        v
    }

    /// The molecular-dynamics force on every link:
    /// F_μ(x) = −(β/3) · TA(U_μ(x) V_μ(x)).
    pub fn force(&self, beta: f64) -> Vec<[Algebra; 4]> {
        self.sites()
            .into_iter()
            .map(|x| {
                std::array::from_fn(|mu| {
                    let v = Su3(self.staple(x, mu));
                    let uv = self.links[self.idx(x)][mu].mul(&v);
                    mat_scale(&project_ta(&uv.0), -beta / 3.0)
                })
            })
            .collect()
    }
}

/// Random traceless anti-Hermitian momenta (one per link).
pub(crate) fn random_momenta(field: &GaugeField, seed: u64) -> Vec<[Algebra; 4]> {
    let mut rng = rank_rng(seed, 1);
    (0..field.volume())
        .map(|_| {
            std::array::from_fn(|_| {
                let mut m = mat_zero();
                for row in m.iter_mut() {
                    for v in row.iter_mut() {
                        *v = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    }
                }
                project_ta(&m)
            })
        })
        .collect()
}

/// Kinetic term ½ Σ ‖P‖²_F.
pub fn kinetic(momenta: &[[Algebra; 4]]) -> f64 {
    0.5 * momenta
        .iter()
        .flat_map(|site| site.iter())
        .map(mat_norm_sqr)
        .sum::<f64>()
}

/// Leapfrog-integrate `steps` molecular-dynamics steps of size `dt`,
/// mutating links and momenta in place.
pub fn leapfrog(
    field: &mut GaugeField,
    momenta: &mut [[Algebra; 4]],
    beta: f64,
    steps: u32,
    dt: f64,
) {
    let half_kick = |field: &GaugeField, momenta: &mut [[Algebra; 4]], h: f64| {
        let force = field.force(beta);
        for (p_site, f_site) in momenta.iter_mut().zip(&force) {
            for mu in 0..4 {
                mat_add(&mut p_site[mu], &f_site[mu], h);
            }
        }
    };
    let drift = |field: &mut GaugeField, momenta: &[[Algebra; 4]], h: f64| {
        for (site, p_site) in field.links.iter_mut().zip(momenta) {
            for mu in 0..4 {
                let rot = exp_matrix(&mat_scale(&p_site[mu], h));
                site[mu] = rot.mul(&site[mu]);
            }
        }
    };
    half_kick(field, momenta, dt / 2.0);
    for step in 0..steps {
        drift(field, momenta, dt);
        let kick = if step + 1 == steps { dt / 2.0 } else { dt };
        half_kick(field, momenta, kick);
    }
}

/// One HMC trajectory with Metropolis accept/reject; returns
/// (ΔH, accepted, plaquette after).
pub(crate) fn hmc_trajectory(
    field: &mut GaugeField,
    beta: f64,
    steps: u32,
    dt: f64,
    seed: u64,
) -> (f64, bool, f64) {
    let mut momenta = random_momenta(field, seed);
    let h_old = kinetic(&momenta) + field.action(beta);
    let backup = field.links.clone();
    leapfrog(field, &mut momenta, beta, steps, dt);
    let h_new = kinetic(&momenta) + field.action(beta);
    let dh = h_new - h_old;
    let mut rng = rank_rng(seed, 2);
    let accept = dh <= 0.0 || rng.gen_range(0.0..1.0) < (-dh).exp();
    if !accept {
        field.links = backup;
    }
    (dh, accept, field.average_plaquette())
}

/// A resumable HMC Markov chain: the gauge field plus everything the
/// future of the chain depends on (integrator parameters, the base
/// seed, the trajectory counter driving per-trajectory seed streams,
/// and the accumulated history).
///
/// Trajectory `t` always draws from seed `base_seed + t`, so a chain
/// restored from a snapshot replays the *identical* momentum and
/// Metropolis randomness an uninterrupted chain would have used — the
/// checkpoint/restart headline invariant.
pub struct HmcChain {
    /// Current gauge configuration.
    pub field: GaugeField,
    /// Wilson action coupling.
    pub beta: f64,
    /// Leapfrog steps per trajectory.
    pub steps: u32,
    /// Leapfrog step size.
    pub dt: f64,
    seed: u64,
    trajectory: u64,
    history: Vec<(f64, bool, f64)>,
}

impl HmcChain {
    /// Start a chain from a cold (unit-link) configuration.
    pub fn cold(dims: [usize; 4], beta: f64, steps: u32, dt: f64, seed: u64) -> Self {
        HmcChain {
            field: GaugeField::cold(dims),
            beta,
            steps,
            dt,
            seed,
            trajectory: 0,
            history: Vec::new(),
        }
    }

    /// Trajectories completed so far.
    pub fn trajectory(&self) -> u64 {
        self.trajectory
    }

    /// Per-trajectory (ΔH, accepted, plaquette) records.
    pub fn history(&self) -> &[(f64, bool, f64)] {
        &self.history
    }

    /// Run one trajectory; returns (ΔH, accepted, plaquette).
    pub fn advance(&mut self) -> (f64, bool, f64) {
        let traj_seed = self.seed.wrapping_add(self.trajectory);
        let out = hmc_trajectory(&mut self.field, self.beta, self.steps, self.dt, traj_seed);
        self.trajectory += 1;
        self.history.push(out);
        out
    }

    /// Run `n` trajectories.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.advance();
        }
    }

    /// The chain's result table: one line per trajectory. Deterministic
    /// bytes for a deterministic chain — the artifact the differential
    /// kill/resume tests compare.
    pub fn history_table(&self) -> String {
        let mut out = String::new();
        for (t, (dh, accepted, plaq)) in self.history.iter().enumerate() {
            out.push_str(&format!(
                "traj={t} dh={dh:.12e} accepted={accepted} plaquette={plaq:.12e}\n"
            ));
        }
        out
    }
}

impl Checkpointable for HmcChain {
    fn kind(&self) -> &'static str {
        "hmc-chain"
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        for d in self.field.dims {
            w.put_usize(d);
        }
        w.put_seq(&self.field.links, |w, site| {
            for mu in site {
                for row in &mu.0 {
                    for c in row {
                        w.put_f64(c.re);
                        w.put_f64(c.im);
                    }
                }
            }
        });
        w.put_f64(self.beta);
        w.put_u32(self.steps);
        w.put_f64(self.dt);
        w.put_u64(self.seed);
        w.put_u64(self.trajectory);
        w.put_seq(&self.history, |w, (dh, accepted, plaq)| {
            w.put_f64(*dh);
            w.put_bool(*accepted);
            w.put_f64(*plaq);
        });
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open("hmc-chain", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let mut dims = [0usize; 4];
        for d in dims.iter_mut() {
            *d = r.get_usize("lattice dims")?;
        }
        let links = r.get_seq("link count", |r| {
            let mut site = [Su3::identity(); 4];
            for mu in site.iter_mut() {
                for row in mu.0.iter_mut() {
                    for c in row.iter_mut() {
                        let re = r.get_f64("link re")?;
                        let im = r.get_f64("link im")?;
                        *c = C64::new(re, im);
                    }
                }
            }
            Ok(site)
        })?;
        if dims.iter().try_fold(1usize, |v, &d| v.checked_mul(d)) != Some(links.len()) {
            return Err(CkptError::Malformed {
                what: format!("link count {} does not match dims {dims:?}", links.len()),
            });
        }
        let beta = r.get_f64("beta")?;
        let steps = r.get_u32("leapfrog steps")?;
        let dt = r.get_f64("dt")?;
        let seed = r.get_u64("seed")?;
        let trajectory = r.get_u64("trajectory counter")?;
        let history = r.get_seq("history length", |r| {
            Ok((
                r.get_f64("history dh")?,
                r.get_bool("history accepted")?,
                r.get_f64("history plaquette")?,
            ))
        })?;
        r.expect_end()?;
        *self = HmcChain {
            field: GaugeField { dims, links },
            beta,
            steps,
            dt,
            seed,
            trajectory,
            history,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lattice_has_unit_plaquette_and_zero_force() {
        let field = GaugeField::cold([4, 4, 4, 4]);
        assert_eq!(field.average_plaquette(), 1.0);
        assert!(field.action(5.5).abs() < 1e-9);
        let force = field.force(5.5);
        let worst = force
            .iter()
            .flat_map(|s| s.iter())
            .map(mat_norm_sqr)
            .fold(0.0, f64::max);
        assert!(worst < 1e-24, "cold force {worst}");
    }

    #[test]
    fn exp_of_antihermitian_is_unitary() {
        let field = GaugeField::hot([2, 2, 2, 2], 3);
        for p_site in random_momenta(&field, 7).iter().take(4) {
            for m in p_site {
                let u = exp_matrix(m);
                assert!(u.unitarity_error() < 1e-12);
                assert!((u.det() - C64::ONE).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn leapfrog_is_reversible() {
        let mut field = GaugeField::hot([2, 2, 2, 2], 11);
        let initial = field.links.clone();
        let mut momenta = random_momenta(&field, 13);
        leapfrog(&mut field, &mut momenta, 5.5, 8, 0.02);
        // Flip the momenta and integrate back.
        for site in momenta.iter_mut() {
            for m in site.iter_mut() {
                *m = mat_scale(m, -1.0);
            }
        }
        leapfrog(&mut field, &mut momenta, 5.5, 8, 0.02);
        let mut worst = 0.0f64;
        for (a, b) in field.links.iter().zip(&initial) {
            for mu in 0..4 {
                for i in 0..3 {
                    for j in 0..3 {
                        worst = worst.max((a[mu].0[i][j] - b[mu].0[i][j]).abs());
                    }
                }
            }
        }
        assert!(worst < 1e-8, "reversibility violation {worst}");
    }

    #[test]
    fn delta_h_scales_as_dt_squared() {
        // Halving dt must reduce |ΔH| by ≈ 4× — this pins the
        // force/action normalization (an off-by-constant force breaks the
        // scaling to O(dt)).
        let beta = 5.5;
        let dh = |dt: f64, steps: u32| -> f64 {
            let mut field = GaugeField::hot([2, 2, 2, 2], 17);
            let mut momenta = random_momenta(&field, 19);
            let h0 = kinetic(&momenta) + field.action(beta);
            leapfrog(&mut field, &mut momenta, beta, steps, dt);
            (kinetic(&momenta) + field.action(beta) - h0).abs()
        };
        // Same trajectory length τ = steps × dt.
        let coarse = dh(0.04, 10);
        let fine = dh(0.02, 20);
        let ratio = coarse / fine;
        assert!(
            (2.5..7.0).contains(&ratio),
            "ΔH ratio {ratio} (coarse {coarse:.3e}, fine {fine:.3e})"
        );
    }

    #[test]
    fn hmc_accepts_small_steps_and_heats_towards_equilibrium() {
        // From a cold start at finite β, HMC roughens the configuration:
        // the plaquette drops below 1 and trajectories mostly accept.
        let mut field = GaugeField::cold([2, 2, 2, 2]);
        let mut accepted = 0;
        let mut plaq = 1.0;
        for t in 0..5 {
            let (dh, acc, p) = hmc_trajectory(&mut field, 5.5, 10, 0.02, 100 + t);
            assert!(dh.is_finite());
            accepted += u32::from(acc);
            plaq = p;
        }
        assert!(accepted >= 4, "only {accepted}/5 trajectories accepted");
        assert!(plaq < 1.0 && plaq > 0.3, "plaquette {plaq}");
    }

    #[test]
    fn chain_snapshot_restore_snapshot_is_byte_identity() {
        let mut chain = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 42);
        chain.run(3);
        let snap = chain.snapshot();
        let mut restored = HmcChain::cold([2, 2, 2, 2], 0.0, 1, 1.0, 0);
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn killed_and_resumed_chain_matches_uninterrupted_run() {
        let mut reference = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 42);
        reference.run(6);

        // "Kill" after 3 trajectories, resume from the snapshot in a
        // fresh chain, finish the remaining 3.
        let mut first_half = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 42);
        first_half.run(3);
        let snap = first_half.snapshot();
        drop(first_half);
        let mut resumed = HmcChain::cold([1, 1, 1, 1], 0.0, 1, 1.0, 0);
        resumed.restore(&snap).unwrap();
        resumed.run(3);

        assert_eq!(resumed.history_table(), reference.history_table());
        assert_eq!(resumed.snapshot(), reference.snapshot());
    }

    #[test]
    fn corrupt_chain_snapshot_errors_and_leaves_receiver_untouched() {
        let mut chain = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 7);
        chain.run(2);
        let good = chain.snapshot();

        let mut target = HmcChain::cold([2, 2, 2, 2], 5.5, 4, 0.02, 7);
        target.run(1);
        let before = target.snapshot();

        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x10;
        assert!(target.restore(&flipped).is_err());
        assert!(target.restore(&good[..good.len() - 3]).is_err());

        // Resealed, a forgery passes the checksum. Dims whose product
        // overflows, and counts no payload could back (links after the
        // four dims, history before its two 17-byte entries), are typed.
        let payload = open("hmc-chain", &good).unwrap();
        let reseal = |at: usize, words: &[u64]| {
            let mut p = payload.clone();
            for (i, w) in words.iter().enumerate() {
                p[at + 8 * i..at + 8 * i + 8].copy_from_slice(&w.to_le_bytes());
            }
            seal("hmc-chain", &p)
        };
        let err = target.restore(&reseal(0, &[1 << 32; 4])).unwrap_err();
        assert!(matches!(err, CkptError::Malformed { .. }), "{err:?}");
        for at in [32, payload.len() - 2 * 17 - 8] {
            let err = target.restore(&reseal(at, &[1 << 60])).unwrap_err();
            assert!(matches!(err, CkptError::Truncated { .. }), "{err:?}");
        }
        assert_eq!(target.snapshot(), before, "failed restore must not mutate");
    }

    #[test]
    fn projection_is_traceless_antihermitian() {
        let field = GaugeField::hot([2, 2, 2, 2], 23);
        let m = field.links[0][0].0;
        let p = project_ta(&m);
        let trace = p[0][0] + p[1][1] + p[2][2];
        assert!(trace.abs() < 1e-12);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (p[i][j] + p[j][i].conj()).abs() < 1e-12,
                    "not anti-Hermitian"
                );
            }
        }
    }
}
