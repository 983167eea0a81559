//! The snapshot envelope and the little-endian payload serializer.
//!
//! Everything a [`SnapshotReader`] sees comes from outside the program —
//! a wire frame, a snapshot, a file — so a length prefix is a *claim*,
//! never a size. The one place a decoded count may size an allocation
//! is [`SnapshotReader::get_seq`]: every length-prefixed sequence in
//! the workspace is written by [`SnapshotWriter::put_seq`] and read
//! back through it, so the rule lives here and nowhere else.

use crate::error::CkptError;
use crate::fnv1a64;

/// Leading magic of every snapshot envelope.
pub const MAGIC: [u8; 4] = *b"JBCK";

/// Envelope format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Wrap a component payload in the versioned, checksummed envelope.
pub fn seal(kind: &str, payload: &[u8]) -> Vec<u8> {
    let started = jubench_metrics::enabled().then(std::time::Instant::now);
    let mut out = Vec::with_capacity(30 + kind.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kind.len() as u64).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    if let Some(t0) = started {
        jubench_metrics::observe("ckpt/seal_ns", t0.elapsed().as_nanos() as u64);
        jubench_metrics::counter_add("ckpt/seals", 1);
        jubench_metrics::counter_add("ckpt/snapshot_bytes", out.len() as u64);
    }
    out
}

/// Validate an envelope (magic, version, kind, lengths, checksum) and
/// return the payload bytes. Every corruption mode is a [`CkptError`].
pub fn open(kind: &str, bytes: &[u8]) -> Result<Vec<u8>, CkptError> {
    let started = jubench_metrics::enabled().then(std::time::Instant::now);
    let result = open_inner(kind, bytes);
    if let Some(t0) = started {
        jubench_metrics::observe("ckpt/open_ns", t0.elapsed().as_nanos() as u64);
        jubench_metrics::counter_add("ckpt/opens", 1);
        if result.is_err() {
            jubench_metrics::counter_add("ckpt/open_errors", 1);
        }
    }
    result
}

fn open_inner(kind: &str, bytes: &[u8]) -> Result<Vec<u8>, CkptError> {
    let need = |what: &'static str, needed: usize, have: usize| CkptError::Truncated {
        what,
        needed,
        have,
    };
    if bytes.len() < 4 {
        return Err(need("magic", 4, bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    if bytes.len() < 6 {
        return Err(need("version", 2, bytes.len() - 4));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion { found: version });
    }
    if bytes.len() < 14 {
        return Err(need("kind length", 8, bytes.len() - 6));
    }
    // The two lengths are claims like any other: the word ending at `at`
    // is compared against what is left, never added to an offset first.
    let claimed = |what, at: usize| {
        let len = u64::from_le_bytes(bytes[at - 8..at].try_into().unwrap());
        match usize::try_from(len) {
            Ok(n) if n <= bytes.len() - at => Ok(n),
            _ => Err(need(what, len as usize, bytes.len() - at)),
        }
    };
    let kind_len = claimed("kind string", 14)?;
    let found_kind = std::str::from_utf8(&bytes[14..14 + kind_len])
        .map_err(|_| CkptError::Malformed {
            what: "kind string is not UTF-8".into(),
        })?
        .to_string();
    let at = 14 + kind_len;
    if bytes.len() < at + 8 {
        return Err(need("payload length", 8, bytes.len() - at));
    }
    let at = at + 8;
    let payload_len = claimed("payload", at)?;
    let end = at + payload_len;
    if bytes.len() < end + 8 {
        return Err(need("checksum", 8, bytes.len() - end));
    }
    if bytes.len() > end + 8 {
        return Err(CkptError::TrailingBytes {
            extra: bytes.len() - end - 8,
        });
    }
    let stored = u64::from_le_bytes(bytes[end..end + 8].try_into().unwrap());
    let computed = fnv1a64(&bytes[..end]);
    if stored != computed {
        return Err(CkptError::ChecksumMismatch {
            expected: computed,
            found: stored,
        });
    }
    // Checksum validates *after* structure so a flipped bit anywhere in
    // the header surfaces as the precise structural error when the
    // structure breaks, and as a checksum mismatch otherwise.
    if found_kind != kind {
        return Err(CkptError::WrongKind {
            expected: kind.to_string(),
            found: found_kind,
        });
    }
    Ok(bytes[at..end].to_vec())
}

/// Deterministic little-endian payload builder.
///
/// Writes are infallible; the matching [`SnapshotReader`] validates on
/// the way back in. Strings and byte blobs carry a u64 length prefix.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, returning the raw payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as a little-endian u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a little-endian u128 (content-addressed cache keys).
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a length-prefixed byte blob (e.g. a nested envelope).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed sequence: the element count as a u64,
    /// then each element as `put` writes it (at least one byte each —
    /// [`SnapshotReader::get_seq`] relies on that).
    pub fn put_seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_usize(items.len());
        for item in items {
            put(self, item);
        }
    }
}

/// Most bytes [`SnapshotReader::get_seq`] reserves on the strength of a
/// count alone; a longer sequence grows as its elements actually decode.
const MAX_PREALLOC_BYTES: usize = 64 << 10;

/// Cursor over payload bytes; every read is bounds-checked and returns
/// a [`CkptError`] on truncation instead of panicking.
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Error unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, CkptError> {
        Ok(self.take(what, 1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, CkptError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CkptError::Malformed {
                what: format!("{what}: invalid bool byte {v}"),
            }),
        }
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(what, 4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(what, 8)?.try_into().unwrap()))
    }

    /// Read a usize (stored as u64); errors if it overflows usize.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, CkptError> {
        let v = self.get_u64(what)?;
        usize::try_from(v).map_err(|_| CkptError::Malformed {
            what: format!("{what}: length {v} overflows usize"),
        })
    }

    /// Read a little-endian u128.
    pub fn get_u128(&mut self, what: &'static str) -> Result<u128, CkptError> {
        Ok(u128::from_le_bytes(
            self.take(what, 16)?.try_into().unwrap(),
        ))
    }

    /// Read an f64 from its bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, CkptError> {
        let n = self.get_usize(what)?;
        let s = self.take(what, n)?;
        std::str::from_utf8(s)
            .map(|s| s.to_string())
            .map_err(|_| CkptError::Malformed {
                what: format!("{what}: not UTF-8"),
            })
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self, what: &'static str) -> Result<Vec<u8>, CkptError> {
        let n = self.get_usize(what)?;
        Ok(self.take(what, n)?.to_vec())
    }

    /// Read a sequence written by [`SnapshotWriter::put_seq`], decoding
    /// each element with `get`. Every element occupies at least one
    /// byte, so a count larger than what remains is refused as
    /// [`CkptError::Truncated`] before any element is read, and the
    /// count alone never reserves more than `MAX_PREALLOC_BYTES`.
    pub fn get_seq<T>(
        &mut self,
        what: &'static str,
        mut get: impl FnMut(&mut Self) -> Result<T, CkptError>,
    ) -> Result<Vec<T>, CkptError> {
        let n = self.get_usize(what)?;
        if n > self.remaining() {
            return Err(CkptError::Truncated {
                what,
                needed: n,
                have: self.remaining(),
            });
        }
        let mut out =
            Vec::with_capacity(n.min(MAX_PREALLOC_BYTES / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u32(7);
        w.put_f64(std::f64::consts::PI);
        w.put_str("hello");
        w.put_bool(true);
        seal("unit-test", &w.finish())
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let payload = open("unit-test", &sample()).unwrap();
        let mut r = SnapshotReader::new(&payload);
        assert_eq!(r.get_u32("a").unwrap(), 7);
        assert_eq!(
            r.get_f64("b").unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        assert_eq!(r.get_str("c").unwrap(), "hello");
        assert!(r.get_bool("d").unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn seal_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn negative_zero_and_nan_round_trip_bitwise() {
        let mut w = SnapshotWriter::new();
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64(f64::INFINITY);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_f64("z").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64("n").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_f64("i").unwrap(), f64::INFINITY);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open("unit-test", &bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_length_errors() {
        let good = sample();
        for n in 0..good.len() {
            let err = open("unit-test", &good[..n]).unwrap_err();
            match err {
                CkptError::Truncated { .. } | CkptError::BadMagic => {}
                other => panic!("truncation to {n} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_kind_version_magic_are_typed() {
        let good = sample();
        assert_eq!(
            open("other-kind", &good).unwrap_err(),
            CkptError::WrongKind {
                expected: "other-kind".into(),
                found: "unit-test".into(),
            }
        );

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            open("unit-test", &wrong_magic).unwrap_err(),
            CkptError::BadMagic
        );

        // A future version must be rejected, not misparsed. Rebuild the
        // envelope by hand so the checksum is self-consistent.
        let payload = open("unit-test", &good).unwrap();
        let mut v2 = seal("unit-test", &payload);
        v2[4] = 2;
        let end = v2.len() - 8;
        let sum = crate::fnv1a64(&v2[..end]);
        v2[end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            open("unit-test", &v2).unwrap_err(),
            CkptError::UnsupportedVersion { found: 2 }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut padded = sample();
        padded.push(0);
        assert_eq!(
            open("unit-test", &padded).unwrap_err(),
            CkptError::TrailingBytes { extra: 1 }
        );
    }

    #[test]
    fn header_lengths_that_overflow_an_offset_are_truncated() {
        // Not resealed: the structure is judged before the checksum.
        let good = sample();
        let payload_len_at = 14 + "unit-test".len();
        for at in [6, payload_len_at] {
            for forged in [u64::MAX, u64::MAX - 13, 1 << 60] {
                let mut bad = good.clone();
                bad[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                let err = open("unit-test", &bad).unwrap_err();
                assert!(matches!(err, CkptError::Truncated { .. }), "{err:?}");
            }
        }
    }

    #[test]
    fn a_sequence_is_its_count_then_its_elements() {
        let items = [3u32, 1, 4, 1, 5];
        let mut w = SnapshotWriter::new();
        w.put_seq(&items, |w, &v| w.put_u32(v));
        let mut by_hand = SnapshotWriter::new();
        by_hand.put_usize(items.len());
        for v in items {
            by_hand.put_u32(v);
        }
        let bytes = w.finish();
        assert_eq!(bytes, by_hand.finish(), "put_seq adds no framing");
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_seq("seq", |r| r.get_u32("item")).unwrap(), items);
        r.expect_end().unwrap();
    }

    #[test]
    fn a_count_no_payload_could_back_is_refused_before_any_element() {
        for forged in [1u64 << 60, 1 << 32, 21] {
            let mut w = SnapshotWriter::new();
            w.put_u64(forged);
            w.put_bytes(&[0; 12]); // 20 bytes follow the count
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes);
            let mut reads = 0;
            let err = r
                .get_seq("seq", |r| {
                    reads += 1;
                    r.get_u8("item")
                })
                .unwrap_err();
            assert_eq!(
                err,
                CkptError::Truncated {
                    what: "seq",
                    needed: forged as usize,
                    have: 20
                }
            );
            assert_eq!(reads, 0);
        }
        // A count the remaining bytes could back, but do not, fails in
        // the element that runs out — after a bounded reservation.
        let mut w = SnapshotWriter::new();
        w.put_u64(20);
        w.put_bytes(&[0; 12]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let err = r.get_seq("seq", |r| r.get_u64("item")).unwrap_err();
        assert!(matches!(err, CkptError::Truncated { what: "item", .. }));
    }

    #[test]
    fn reader_rejects_bad_bool_and_overlong_prefix() {
        let mut r = SnapshotReader::new(&[7]);
        assert!(matches!(
            r.get_bool("flag"),
            Err(CkptError::Malformed { .. })
        ));

        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.get_str("s").is_err());
    }
}
