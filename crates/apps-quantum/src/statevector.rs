//! The distributed state-vector simulator.
//!
//! The 2ⁿ amplitudes are block-distributed: rank `r` holds global indices
//! `r·2^L .. (r+1)·2^L` where `L = n − log₂(P)` is the number of *local*
//! qubits. A gate on a local qubit updates amplitude pairs in place. A gate
//! on a *global* qubit (encoded in the rank index) is handled the way JUQCS
//! does it: the global qubit is swapped with the highest local qubit by
//! exchanging half of the local amplitudes with the partner rank (half of
//! all memory machine-wide), the logical-to-physical qubit map is updated,
//! and the gate is applied locally.

use jubench_kernels::C64;
use jubench_simmpi::{Comm, SimError};

/// A single-qubit gate as a 2×2 complex matrix `[[g00, g01], [g10, g11]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate1 {
    pub g00: C64,
    pub g01: C64,
    pub g10: C64,
    pub g11: C64,
}

impl Gate1 {
    /// Hadamard.
    pub fn h() -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Gate1 {
            g00: C64::new(s, 0.0),
            g01: C64::new(s, 0.0),
            g10: C64::new(s, 0.0),
            g11: C64::new(-s, 0.0),
        }
    }

    /// Pauli-X (NOT).
    pub fn x() -> Self {
        Gate1 {
            g00: C64::ZERO,
            g01: C64::ONE,
            g10: C64::ONE,
            g11: C64::ZERO,
        }
    }

    /// Phase gate diag(1, e^{iθ}).
    pub fn phase(theta: f64) -> Self {
        Gate1 {
            g00: C64::ONE,
            g01: C64::ZERO,
            g10: C64::ZERO,
            g11: C64::cis(theta),
        }
    }
}

/// The per-rank part of a distributed `n`-qubit state vector.
pub struct DistStateVector {
    /// Total number of qubits.
    pub n: u32,
    /// Number of local qubits (2^local amplitudes per rank).
    pub local_bits: u32,
    /// Logical qubit → physical position. Positions `0..local_bits` are
    /// local bit positions; positions `local_bits..n` are rank bits.
    layout: Vec<u32>,
    amps: Vec<C64>,
    /// Bytes moved to partners so far (for the communication accounting).
    pub bytes_exchanged: u64,
}

impl DistStateVector {
    /// Initialize |0…0⟩ distributed over `comm.size()` ranks (must be a
    /// power of two, and `n` must leave at least one local qubit).
    pub fn zero_state(comm: &Comm, n: u32) -> Self {
        let p = comm.size();
        assert!(p.is_power_of_two(), "rank count {p} must be a power of two");
        let rank_bits = p.trailing_zeros();
        assert!(
            n > rank_bits,
            "need at least one local qubit: n={n}, ranks={p}"
        );
        let local_bits = n - rank_bits;
        let mut amps = vec![C64::ZERO; 1usize << local_bits];
        if comm.rank() == 0 {
            amps[0] = C64::ONE;
        }
        DistStateVector {
            n,
            local_bits,
            layout: (0..n).collect(),
            amps,
            bytes_exchanged: 0,
        }
    }

    /// Squared norm of the local block.
    pub(crate) fn local_norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Global squared norm (collective).
    pub fn norm_sqr(&self, comm: &mut Comm) -> Result<f64, SimError> {
        comm.allreduce_scalar(self.local_norm_sqr(), jubench_simmpi::ReduceOp::Sum)
    }

    /// The amplitude of the *logical* global basis state `index`, if this
    /// rank holds it under the current layout.
    pub fn amplitude(&self, comm: &Comm, index: u64) -> Option<C64> {
        // Map logical index bits through the layout to a physical index.
        let mut phys: u64 = 0;
        for q in 0..self.n {
            if (index >> q) & 1 == 1 {
                phys |= 1 << self.layout[q as usize];
            }
        }
        let rank = (phys >> self.local_bits) as u32;
        if rank == comm.rank() {
            Some(self.amps[(phys & ((1 << self.local_bits) - 1)) as usize])
        } else {
            None
        }
    }

    /// Apply a single-qubit gate to logical qubit `q`.
    pub fn apply(&mut self, comm: &mut Comm, q: u32, gate: Gate1) -> Result<(), SimError> {
        assert!(q < self.n);
        let pos = self.layout[q as usize];
        if pos < self.local_bits {
            self.apply_local(pos, gate);
        } else {
            // Swap the global position with the top local position, then
            // apply locally — JUQCS's qubit remapping: this moves half of
            // the local amplitudes to the partner rank.
            let top = self.local_bits - 1;
            self.swap_global_local(comm, pos, top)?;
            self.apply_local(top, gate);
        }
        Ok(())
    }

    /// Apply the gate to a local physical bit position.
    fn apply_local(&mut self, pos: u32, gate: Gate1) {
        let mask = 1usize << pos;
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            for offset in 0..mask {
                let i0 = base + offset;
                let i1 = i0 | mask;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = gate.g00 * a0 + gate.g01 * a1;
                self.amps[i1] = gate.g10 * a0 + gate.g11 * a1;
            }
            base += mask << 1;
        }
    }

    /// Swap physical global position `gpos` (≥ local_bits) with physical
    /// local position `lpos` by exchanging, with the partner rank, exactly
    /// the local amplitudes whose `lpos` bit differs from this rank's
    /// `gpos` bit — half of the local memory, one way.
    fn swap_global_local(&mut self, comm: &mut Comm, gpos: u32, lpos: u32) -> Result<(), SimError> {
        debug_assert!(gpos >= self.local_bits && lpos < self.local_bits);
        let rank_bit_index = gpos - self.local_bits;
        let partner = comm.rank() ^ (1 << rank_bit_index);
        let my_gbit = (comm.rank() >> rank_bit_index) & 1;
        let lmask = 1usize << lpos;

        // Gather the half that must move: local amplitudes whose lpos bit
        // != my_gbit (they belong to the partner's rank index after the
        // swap).
        let moving: Vec<usize> = (0..self.amps.len())
            .filter(|i| ((i & lmask != 0) as u32) != my_gbit)
            .collect();
        let mut payload = Vec::with_capacity(2 * moving.len());
        for &i in &moving {
            payload.push(self.amps[i].re);
            payload.push(self.amps[i].im);
        }
        let incoming = comm.sendrecv_f64(partner, &payload)?;
        assert_eq!(
            incoming.len(),
            payload.len(),
            "partner moved a different half"
        );
        for (slot, &i) in moving.iter().enumerate() {
            self.amps[i] = C64::new(incoming[2 * slot], incoming[2 * slot + 1]);
        }
        self.bytes_exchanged += (payload.len() * 8) as u64;

        // Update the logical→physical layout: the two logical qubits that
        // mapped to gpos and lpos trade places.
        let lq = self.layout.iter().position(|&p| p == gpos).unwrap();
        let ll = self.layout.iter().position(|&p| p == lpos).unwrap();
        self.layout.swap(lq, ll);
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

    /// Collect the full logical state on every rank (test helper).
    fn full_state(comm: &mut Comm, sv: &DistStateVector) -> Vec<C64> {
        let n_states = 1u64 << sv.n;
        (0..n_states)
            .map(|idx| {
                let local = sv.amplitude(comm, idx).map_or(0.0, |a| a.re);
                let local_im = sv.amplitude(comm, idx).map_or(0.0, |a| a.im);
                let re = comm
                    .allreduce_scalar(local, jubench_simmpi::ReduceOp::Sum)
                    .unwrap();
                let im = comm
                    .allreduce_scalar(local_im, jubench_simmpi::ReduceOp::Sum)
                    .unwrap();
                C64::new(re, im)
            })
            .collect()
    }

    #[test]
    fn zero_state_is_normalized() {
        let results = world(1).run(|comm| {
            let sv = DistStateVector::zero_state(comm, 6);
            sv.local_norm_sqr()
        });
        let total: f64 = results.iter().map(|r| r.value).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_on_all_qubits_gives_uniform_superposition() {
        // 4 ranks, 6 qubits: qubits 4 and 5 are global.
        let results = world(1).run(|comm| {
            let n = 6u32;
            let mut sv = DistStateVector::zero_state(comm, n);
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            let expected = (1.0f64 / (1u64 << n) as f64).sqrt();
            // Every local amplitude must equal 2^{-n/2} exactly
            // (theoretically known result — the paper's verification).
            let max_dev = sv
                .amps
                .iter()
                .map(|a| (a.re - expected).abs().max(a.im.abs()))
                .fold(0.0, f64::max);
            (max_dev, sv.norm_sqr(comm).unwrap(), sv.bytes_exchanged)
        });
        for r in &results {
            let (max_dev, norm, bytes) = r.value;
            assert!(max_dev < 1e-12, "rank {} deviation {}", r.rank, max_dev);
            assert!((norm - 1.0).abs() < 1e-12);
            // Two global qubits ⇒ two half-memory exchanges: 2 × 2^(L-1)
            // amplitudes × 16 B = 2^L × 16 with L = 4 local qubits.
            assert_eq!(bytes, (1u64 << 4) * 16);
        }
    }

    #[test]
    fn h_twice_returns_to_zero_state() {
        let results = world(1).run(|comm| {
            let n = 5u32;
            let mut sv = DistStateVector::zero_state(comm, n);
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            full_state(comm, &sv)
        });
        for r in &results {
            assert!((r.value[0] - C64::ONE).abs() < 1e-12, "|0..0> amplitude");
            for (i, amp) in r.value.iter().enumerate().skip(1) {
                assert!(amp.abs() < 1e-12, "state {i} should vanish");
            }
        }
    }

    #[test]
    fn x_on_global_qubit_flips_the_right_bit() {
        let results = world(1).run(|comm| {
            let n = 5u32; // ranks=4 → qubits 3,4 global
            let mut sv = DistStateVector::zero_state(comm, n);
            sv.apply(comm, 4, Gate1::x()).unwrap();
            full_state(comm, &sv)
        });
        for r in &results {
            // State should be |10000⟩ = index 16.
            for (i, amp) in r.value.iter().enumerate() {
                let expect = if i == 16 { 1.0 } else { 0.0 };
                assert!(
                    (amp.re - expect).abs() < 1e-12 && amp.im.abs() < 1e-12,
                    "index {i}"
                );
            }
        }
    }

    #[test]
    fn phase_gate_composition() {
        // Two quarter-phase gates equal one half-phase gate on |1⟩.
        let results = world(1).run(|comm| {
            let n = 4u32;
            let mut sv = DistStateVector::zero_state(comm, n);
            sv.apply(comm, 3, Gate1::x()).unwrap(); // global qubit -> |1000>
            sv.apply(comm, 3, Gate1::phase(std::f64::consts::FRAC_PI_2))
                .unwrap();
            sv.apply(comm, 3, Gate1::phase(std::f64::consts::FRAC_PI_2))
                .unwrap();
            full_state(comm, &sv)
        });
        for r in &results {
            // e^{iπ} = −1 on basis state |1000⟩ = index 8.
            assert!((r.value[8] - C64::new(-1.0, 0.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn gate_application_is_unitary() {
        let results = world(2).run(|comm| {
            let n = 7u32;
            let mut sv = DistStateVector::zero_state(comm, n);
            for q in 0..n {
                sv.apply(comm, q, Gate1::h()).unwrap();
            }
            for q in (0..n).rev() {
                sv.apply(comm, q, Gate1::phase(0.3 * q as f64)).unwrap();
            }
            sv.norm_sqr(comm).unwrap()
        });
        for r in &results {
            assert!((r.value - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one local qubit")]
    fn too_few_qubits_panics() {
        world(1).run(|comm| {
            // 4 ranks need ≥ 3 qubits.
            let _ = DistStateVector::zero_state(comm, 2);
        });
    }
}
