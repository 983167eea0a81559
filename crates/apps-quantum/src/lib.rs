//! # jubench-apps-quantum
//!
//! Proxy for **JUQCS**, the Jülich massively parallel simulator for
//! universal gate-based quantum computers (§IV-A2c).
//!
//! JUQCS "simulates an n-qubit gate-based QC by iteratively updating a
//! rank-n tensor of 2ⁿ complex numbers (state vector) stored in double
//! precision and distributed over the supercomputer's memory. [...] Many
//! operations require the transfer of half of all memory, i.e., 2ⁿ/2
//! complex double-precision numbers, across the network."
//!
//! This crate implements that simulator for real: a distributed state
//! vector over simulated MPI ranks, local gate application, and the
//! qubit-remapping half-exchange for gates on non-local qubits — plus the
//! memory law (16·2ⁿ bytes), the Base (n = 36, 1 TiB) and High-Scaling
//! (S: n = 41, 32 TiB; L: n = 42, 64 TiB) workloads, and the exact
//! verification against theoretically known results.

#![forbid(unsafe_code)]

pub mod bench;
pub mod statevector;

pub use bench::{Juqcs, JuqcsMsa};
pub use statevector::DistStateVector;

/// The memory law of §IV-A2c: a universal simulation of `n` qubits stores
/// 2ⁿ complex doubles, i.e. 16·2ⁿ bytes.
pub fn state_bytes(qubits: u32) -> u128 {
    16u128 << qubits
}

/// Largest universal simulation fitting in `bytes` of memory.
pub fn max_qubits(bytes: u128) -> u32 {
    let mut n = 0;
    while state_bytes(n + 1) <= bytes {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIB: u128 = 1 << 40;
    const PIB: u128 = 1 << 50;

    #[test]
    fn memory_law_matches_paper() {
        // "a universal simulation of n = 45 qubits requires a little over
        // 16 × 2^45 B = 0.5 PiB".
        assert_eq!(state_bytes(45), PIB / 2);
        // Base benchmark: n = 36 requires 1 TiB of GPU memory.
        assert_eq!(state_bytes(36), TIB);
        // High-Scaling: L = 42 qubits = 64 TiB, S = 41 qubits = 32 TiB.
        assert_eq!(state_bytes(42), 64 * TIB);
        assert_eq!(state_bytes(41), 32 * TIB);
    }

    #[test]
    fn max_qubits_inverts_the_law() {
        assert_eq!(max_qubits(TIB), 36);
        assert_eq!(max_qubits(TIB - 1), 35);
        assert_eq!(max_qubits(64 * TIB), 42);
    }
}
