//! # jubench-ckpt — deterministic checkpoint/restart substrate
//!
//! The persistence layer of the suite: a versioned, checksummed snapshot
//! envelope with an in-repo serializer (no serde, no external
//! dependencies), the [`Checkpointable`] trait implemented by the
//! long-running apps, the JUBE-like workflow, and the batch scheduler,
//! and the Young/Daly optimal-interval formulas driving the `scaling`
//! checkpoint study.
//!
//! ## Envelope format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"JBCK"
//! 4       2     format version, u16 little-endian (currently 1)
//! 6       8     kind length K, u64 little-endian
//! 14      K     kind string, UTF-8 (e.g. "hmc-chain", "sched-campaign")
//! 14+K    8     payload length P, u64 little-endian
//! 22+K    P     payload (component-defined, via SnapshotWriter)
//! 22+K+P  8     FNV-1a 64-bit checksum over bytes [0, 22+K+P)
//! ```
//!
//! Every multi-byte integer is little-endian; every `f64` travels as its
//! IEEE-754 bit pattern (`to_bits`/`from_bits`), so a snapshot →
//! restore → snapshot round trip is byte identity — the invariant the
//! proptests enforce. [`open`] validates magic, version, kind, lengths,
//! and checksum before returning the payload; corrupt bytes surface as a
//! typed [`CkptError`], never a panic.
//!
//! ## Determinism rules
//!
//! 1. Serialize state in a fixed, declaration-driven order — no maps
//!    with unstable iteration order (use `BTreeMap` upstream).
//! 2. No wall-clock timestamps, hostnames, or process ids in payloads.
//! 3. Floats as bit patterns, never as formatted text.
//! 4. A component's `snapshot()` must capture *everything* its future
//!    behaviour depends on (RNG counters, retry attempt counts, buffered
//!    history), so a restored run is bit-identical to an uninterrupted
//!    one.

pub mod error;
pub mod format;
pub mod interval;

pub use error::CkptError;
pub use format::{open, seal, SnapshotReader, SnapshotWriter};
pub use interval::{daly_interval, young_interval, WriteTimes};

/// A component whose full execution state can be captured as bytes and
/// later restored bit-exactly.
///
/// The contract: after `restore(&snapshot())`, the component's
/// subsequent behaviour — every output, trace event, and derived
/// artifact — is byte-identical to the original's. `restore` must
/// reject corrupt input with a [`CkptError`] and leave the receiver
/// untouched on error (implementations decode into temporaries first).
pub trait Checkpointable {
    /// The envelope `kind` tag guarding against cross-component mixups.
    fn kind(&self) -> &'static str;

    /// Serialize the complete state into a sealed envelope.
    fn snapshot(&self) -> Vec<u8>;

    /// Replace the receiver's state with the decoded snapshot.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError>;
}

/// FNV-1a 64-bit hash — the envelope checksum. Re-exported from the
/// workspace's canonical implementation in `jubench-core` so the
/// checksum, the archive manifests, and the content-addressed result
/// cache all agree on one hash.
pub use jubench_core::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
