//! A rotating linearized shallow-water solver on a periodic 2D grid,
//! row-slab decomposed — the ICON dynamical-core proxy.
//!
//!   ∂u/∂t =  f·v − g·∂h/∂x
//!   ∂v/∂t = −f·u − g·∂h/∂y
//!   ∂h/∂t = −H·(∂u/∂x + ∂v/∂y)
//!
//! Centred differences and forward-backward time stepping conserve mass
//! exactly (the divergence telescopes on a periodic grid) and keep the
//! total energy bounded — the "key metrics extracted from the computed
//! solution" that verify the run.

use jubench_ckpt::{open, seal, Checkpointable, CkptError, SnapshotReader, SnapshotWriter};
use jubench_simmpi::{Comm, ReduceOp, SimError};

/// Per-rank slab of rows (y-decomposition) of the `nx × ny` global grid.
pub struct ShallowWater {
    pub nx: usize,
    /// Global row count.
    pub ny: usize,
    /// This rank's rows `[y0, y1)`.
    pub y0: usize,
    pub y1: usize,
    /// Fields with one ghost row above and below: `(rows + 2) × nx`.
    pub h: Vec<f64>,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub gravity: f64,
    pub depth: f64,
    pub coriolis: f64,
    pub dt: f64,
    pub dx: f64,
}

impl ShallowWater {
    /// Initialize with a Gaussian height anomaly centred in the domain.
    pub fn gaussian(comm: &Comm, nx: usize, ny: usize) -> Self {
        let p = comm.size() as usize;
        assert!(ny >= p, "need at least one row per rank");
        let r = comm.rank() as usize;
        let base = ny / p;
        let rem = ny % p;
        let y0 = r * base + r.min(rem);
        let y1 = y0 + base + usize::from(r < rem);
        let rows = y1 - y0;
        let mut h = vec![0.0; (rows + 2) * nx];
        for row in 0..rows {
            for col in 0..nx {
                let gy = (y0 + row) as f64 - ny as f64 / 2.0;
                let gx = col as f64 - nx as f64 / 2.0;
                let r2 = (gx * gx + gy * gy) / (nx as f64 / 8.0).powi(2);
                h[(row + 1) * nx + col] = 1.0 + 0.1 * (-r2).exp();
            }
        }
        ShallowWater {
            nx,
            ny,
            y0,
            y1,
            h,
            u: vec![0.0; (rows + 2) * nx],
            v: vec![0.0; (rows + 2) * nx],
            gravity: 9.81,
            depth: 1.0,
            coriolis: 1.0e-2,
            dt: 1.0e-3,
            dx: 1.0,
        }
    }

    fn rows(&self) -> usize {
        self.y1 - self.y0
    }

    /// Exchange ghost rows of one field (periodic in y across ranks).
    fn exchange(&self, comm: &mut Comm, field: &mut [f64]) -> Result<(), SimError> {
        let nx = self.nx;
        let rows = self.rows();
        if comm.size() == 1 {
            // Periodic wrap within the single slab.
            let (first, last) = (
                field[nx..2 * nx].to_vec(),
                field[rows * nx..(rows + 1) * nx].to_vec(),
            );
            field[..nx].copy_from_slice(&last);
            field[(rows + 1) * nx..].copy_from_slice(&first);
            return Ok(());
        }
        let up = (comm.rank() + 1) % comm.size();
        let down = (comm.rank() + comm.size() - 1) % comm.size();
        let top_row = field[rows * nx..(rows + 1) * nx].to_vec();
        let bottom_row = field[nx..2 * nx].to_vec();
        comm.send_f64(up, &top_row)?;
        comm.send_f64(down, &bottom_row)?;
        let from_down = comm.recv_f64(down)?;
        let from_up = comm.recv_f64(up)?;
        field[..nx].copy_from_slice(&from_down);
        field[(rows + 1) * nx..].copy_from_slice(&from_up);
        Ok(())
    }

    /// One forward-backward step: momentum first, then continuity with the
    /// updated winds.
    pub fn step(&mut self, comm: &mut Comm) -> Result<(), SimError> {
        let nx = self.nx;
        let rows = self.rows();
        let (g, f, big_h) = (self.gravity, self.coriolis, self.depth);
        let c = self.dt / (2.0 * self.dx);

        let mut h = std::mem::take(&mut self.h);
        self.exchange(comm, &mut h)?;
        // Momentum update from the current height field.
        for row in 1..=rows {
            for col in 0..nx {
                let e = (col + 1) % nx;
                let w = (col + nx - 1) % nx;
                let i = row * nx + col;
                let dhdx = c * (h[row * nx + e] - h[row * nx + w]);
                let dhdy = c * (h[(row + 1) * nx + col] - h[(row - 1) * nx + col]);
                let (u0, v0) = (self.u[i], self.v[i]);
                self.u[i] = u0 + self.dt * (f * v0) - g * dhdx;
                self.v[i] = v0 - self.dt * (f * u0) - g * dhdy;
            }
        }
        let mut u = std::mem::take(&mut self.u);
        let mut v = std::mem::take(&mut self.v);
        self.exchange(comm, &mut u)?;
        self.exchange(comm, &mut v)?;
        // Continuity with the updated winds.
        for row in 1..=rows {
            for col in 0..nx {
                let e = (col + 1) % nx;
                let w = (col + nx - 1) % nx;
                let i = row * nx + col;
                let dudx = c * (u[row * nx + e] - u[row * nx + w]);
                let dvdy = c * (v[(row + 1) * nx + col] - v[(row - 1) * nx + col]);
                h[i] -= big_h * (dudx + dvdy);
            }
        }
        self.h = h;
        self.u = u;
        self.v = v;
        Ok(())
    }

    /// Global mass Σh (conserved exactly up to round-off).
    pub fn total_mass(&self, comm: &mut Comm) -> Result<f64, SimError> {
        let nx = self.nx;
        let rows = self.rows();
        let local: f64 = self.h[nx..(rows + 1) * nx].iter().sum();
        comm.allreduce_scalar(local, ReduceOp::Sum)
    }

    /// Global energy ½Σ(H(u²+v²) + g·h²).
    pub fn total_energy(&self, comm: &mut Comm) -> Result<f64, SimError> {
        let nx = self.nx;
        let rows = self.rows();
        let mut local = 0.0;
        for i in nx..(rows + 1) * nx {
            local += 0.5
                * (self.depth * (self.u[i] * self.u[i] + self.v[i] * self.v[i])
                    + self.gravity * self.h[i] * self.h[i]);
        }
        comm.allreduce_scalar(local, ReduceOp::Sum)
    }
}

impl Checkpointable for ShallowWater {
    fn kind(&self) -> &'static str {
        "shallow-water"
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.nx);
        w.put_usize(self.ny);
        w.put_usize(self.y0);
        w.put_usize(self.y1);
        for field in [&self.h, &self.u, &self.v] {
            w.put_seq(field, |w, &v| w.put_f64(v));
        }
        w.put_f64(self.gravity);
        w.put_f64(self.depth);
        w.put_f64(self.coriolis);
        w.put_f64(self.dt);
        w.put_f64(self.dx);
        seal(self.kind(), &w.finish())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let payload = open("shallow-water", bytes)?;
        let mut r = SnapshotReader::new(&payload);
        let nx = r.get_usize("nx")?;
        let ny = r.get_usize("ny")?;
        let y0 = r.get_usize("y0")?;
        let y1 = r.get_usize("y1")?;
        if y1 <= y0 || y1 > ny {
            return Err(CkptError::Malformed {
                what: format!("slab bounds [{y0}, {y1}) out of range for ny={ny}"),
            });
        }
        let expect = (y1 - y0)
            .checked_add(2)
            .and_then(|rows| rows.checked_mul(nx))
            .ok_or_else(|| CkptError::Malformed {
                what: format!("slab [{y0}, {y1}) × nx={nx} overflows"),
            })?;
        let mut fields = Vec::with_capacity(3);
        for name in ["h field", "u field", "v field"] {
            let f = r.get_seq(name, |r| r.get_f64(name))?;
            if f.len() != expect {
                return Err(CkptError::Malformed {
                    what: format!("{name} has {} values, slab needs {expect}", f.len()),
                });
            }
            fields.push(f);
        }
        let gravity = r.get_f64("gravity")?;
        let depth = r.get_f64("depth")?;
        let coriolis = r.get_f64("coriolis")?;
        let dt = r.get_f64("dt")?;
        let dx = r.get_f64("dx")?;
        r.expect_end()?;
        let v = fields.pop().unwrap();
        let u = fields.pop().unwrap();
        let h = fields.pop().unwrap();
        *self = ShallowWater {
            nx,
            ny,
            y0,
            y1,
            h,
            u,
            v,
            gravity,
            depth,
            coriolis,
            dt,
            dx,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_cluster::Machine;
    use jubench_simmpi::World;

    fn world(nodes: u32) -> World {
        World::new(Machine::juwels_booster().partition(nodes))
    }

    #[test]
    fn mass_is_conserved_exactly() {
        let results = world(1).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 32, 32);
            let m0 = sw.total_mass(comm).unwrap();
            for _ in 0..50 {
                sw.step(comm).unwrap();
            }
            let m1 = sw.total_mass(comm).unwrap();
            (m0, m1)
        });
        for r in &results {
            let (m0, m1) = r.value;
            assert!((m0 - m1).abs() / m0 < 1e-12, "mass {m0} → {m1}");
        }
    }

    #[test]
    fn energy_stays_bounded() {
        let results = world(1).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 32, 32);
            let e0 = sw.total_energy(comm).unwrap();
            for _ in 0..100 {
                sw.step(comm).unwrap();
            }
            let e1 = sw.total_energy(comm).unwrap();
            (e0, e1)
        });
        for r in &results {
            let (e0, e1) = r.value;
            assert!((e1 - e0).abs() / e0 < 0.02, "energy {e0} → {e1}");
        }
    }

    #[test]
    fn waves_propagate_away_from_the_anomaly() {
        let results = world(1).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 32, 32);
            let peak0 = sw.h.iter().fold(0.0f64, |m, &x| m.max(x));
            for _ in 0..2000 {
                sw.step(comm).unwrap();
            }
            let peak1 = sw.h.iter().fold(0.0f64, |m, &x| m.max(x));
            comm.allreduce_scalar(peak1, jubench_simmpi::ReduceOp::Max)
                .map(|g| (peak0, g))
                .unwrap()
        });
        // The Gaussian bump disperses: the rank holding the centre sees
        // its peak decrease.
        let initial_peak = results.iter().map(|r| r.value.0).fold(0.0f64, f64::max);
        let final_peak = results[0].value.1;
        assert!(
            final_peak < initial_peak,
            "peak {initial_peak} → {final_peak}"
        );
        assert!(final_peak > 1.0, "field must not collapse");
    }

    #[test]
    fn killed_and_resumed_stepper_is_bit_identical() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let reference = w.run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 16, 16);
            for _ in 0..40 {
                sw.step(comm).unwrap();
            }
            sw.snapshot()
        });
        let w = World::per_node(Machine::juwels_booster().partition(1));
        let resumed = w.run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 16, 16);
            for _ in 0..17 {
                sw.step(comm).unwrap();
            }
            let snap = sw.snapshot();
            let mut sw = ShallowWater::gaussian(comm, 16, 16);
            sw.restore(&snap).unwrap();
            for _ in 0..23 {
                sw.step(comm).unwrap();
            }
            sw.snapshot()
        });
        assert_eq!(resumed[0].value, reference[0].value);
    }

    #[test]
    fn corrupt_stepper_snapshot_is_a_typed_error() {
        let w = World::per_node(Machine::juwels_booster().partition(1));
        w.run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 8, 8);
            let good = sw.snapshot();
            assert!(sw.restore(&good[..good.len() - 5]).is_err());
            let mut bad = good.clone();
            bad[good.len() / 3] ^= 0x01;
            assert!(sw.restore(&bad).is_err());
            // Resealed, a forgery passes the checksum. A row length
            // whose slab overflows is malformed; one that agrees with a
            // forged field length (word 4) is still more than the
            // payload holds, and must not be allocated to find that out.
            let payload = open("shallow-water", &good).unwrap();
            let reseal = |nx: u64, h_len: Option<u64>| {
                let mut p = payload.clone();
                p[..8].copy_from_slice(&nx.to_le_bytes());
                if let Some(len) = h_len {
                    p[32..40].copy_from_slice(&len.to_le_bytes());
                }
                seal("shallow-water", &p)
            };
            let err = sw.restore(&reseal(1 << 63, None)).unwrap_err();
            assert!(matches!(err, CkptError::Malformed { .. }), "{err:?}");
            let rows = (sw.y1 - sw.y0 + 2) as u64;
            let err = sw.restore(&reseal(1 << 40, Some(rows << 40))).unwrap_err();
            assert!(matches!(err, CkptError::Truncated { .. }), "{err:?}");
            sw.restore(&good).unwrap();
        });
    }

    #[test]
    fn single_rank_matches_multi_rank() {
        // The same global problem on 1 vs 4 ranks gives identical mass
        // and near-identical energy trajectories.
        let single = World::per_node(Machine::juwels_booster().partition(1)).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 16, 16);
            for _ in 0..20 {
                sw.step(comm).unwrap();
            }
            (sw.total_mass(comm).unwrap(), sw.total_energy(comm).unwrap())
        });
        let multi = world(1).run(|comm| {
            let mut sw = ShallowWater::gaussian(comm, 16, 16);
            for _ in 0..20 {
                sw.step(comm).unwrap();
            }
            (sw.total_mass(comm).unwrap(), sw.total_energy(comm).unwrap())
        });
        let (m1, e1) = single[0].value;
        let (m4, e4) = multi[0].value;
        assert!((m1 - m4).abs() / m1 < 1e-12);
        assert!((e1 - e4).abs() / e1 < 1e-12);
    }
}
