//! The canonical content-hash helper of the workspace.
//!
//! Exactly one FNV-1a implementation serves every consumer — the
//! checkpoint envelope checksum (`jubench-ckpt`), the archive manifests
//! (`jubench-jube`), and the content-addressed result cache
//! (`jubench-serve`) — so a content key computed anywhere in the suite
//! agrees with one computed anywhere else.

/// FNV-1a offset basis (64-bit).
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub(crate) const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
///
/// Not cryptographic; it guards against truncation, bit rot, and key
/// collisions at deterministic-simulator scale, which is all the suite
/// needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(FNV1A64_OFFSET, bytes)
}

/// FNV-1a folding `bytes` into an explicit running state `h` — the
/// streaming form. `fnv1a64_with(fnv1a64(a), b)` equals the hash of the
/// concatenation `a ++ b`, so callers can hash multi-part keys without
/// materializing the concatenated buffer.
pub fn fnv1a64_with(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV1A64_PRIME);
    }
    h
}

/// A 128-bit content key: two independent FNV-1a passes (the second
/// seeded by the bit-inverted offset basis), concatenated. Cheap,
/// deterministic, and collision-resistant enough to address cached
/// results by content.
pub fn content_key128(bytes: &[u8]) -> u128 {
    let hi = fnv1a64(bytes);
    let lo = fnv1a64_with(!FNV1A64_OFFSET, bytes);
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_form_concatenates() {
        let whole = fnv1a64(b"foobar");
        let split = fnv1a64_with(fnv1a64(b"foo"), b"bar");
        assert_eq!(whole, split);
    }

    #[test]
    fn content_keys_separate_halves() {
        let k = content_key128(b"point");
        assert_eq!((k >> 64) as u64, fnv1a64(b"point"));
        assert_ne!((k >> 64) as u64, k as u64);
        assert_ne!(content_key128(b"point"), content_key128(b"point2"));
    }
}
