//! Little-endian binary encoder/decoder and the [`Persist`] trait.
//!
//! The vendored `serde` is derive-only (no serializer backend ships in
//! this workspace), so persisted state is written through this small
//! hand-rolled codec instead. Layout rules:
//!
//! * all integers and floats are little-endian,
//! * `usize` is always written as `u64` so the format is identical on
//!   32- and 64-bit hosts,
//! * variable-length data (`bytes`, `str`, slices) is prefixed with a
//!   `u64` element count,
//! * floats are persisted via `to_bits`/`from_bits`, so the roundtrip
//!   is bit-exact (including NaN payloads and signed zeros) — a
//!   requirement for ODIN's bit-identical restore contract,
//! * compact formats (the event log's columns) add LEB128 varints,
//!   with [`zigzag`] mapping signed values onto them.
//!
//! Every `Decoder` read is bounds-checked and returns
//! [`StoreError::Truncated`] instead of panicking, so a corrupt or
//! truncated payload degrades into a recoverable error.

use crate::error::StoreError;

/// Append-only byte sink for persisted state.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// New encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (host-width independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f32` bit-exactly.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Write an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write raw bytes with no length prefix (caller knows the length).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write a length-prefixed `f32` slice, bit-exactly.
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Write a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Write a length-prefixed `usize` slice (as `u64`s).
    pub fn put_usizes(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }

    /// Write a LEB128 varint: 7 bits per byte, low first, high bit set
    /// on every byte but the last.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Bounds-checked reader over encoded bytes.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the payload was consumed exactly — catches both
    /// truncation (handled earlier) and trailing garbage.
    pub fn finish(self, context: &'static str) -> Result<(), StoreError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Malformed { context })
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a `bool`; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, StoreError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StoreError::Malformed { context }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `usize` written by [`Encoder::put_usize`]; values that do
    /// not fit the host `usize` are malformed.
    pub fn take_usize(&mut self, context: &'static str) -> Result<usize, StoreError> {
        let v = self.take_u64(context)?;
        usize::try_from(v).map_err(|_| StoreError::Malformed { context })
    }

    /// Read an `f32` bit-exactly.
    pub fn take_f32(&mut self, context: &'static str) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.take_u32(context)?))
    }

    /// Read an `f64` bit-exactly.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Read a varint written by [`Encoder::put_varint`]; one that runs
    /// past 64 bits is malformed.
    pub fn take_varint(&mut self, context: &'static str) -> Result<u64, StoreError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8(context)?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(StoreError::Malformed { context })
    }

    /// Read a length-prefixed byte slice (borrowed from the input).
    pub fn take_bytes(&mut self, context: &'static str) -> Result<&'a [u8], StoreError> {
        let n = self.take_usize(context)?;
        self.take(n, context)
    }

    /// Read `n` raw bytes with no length prefix.
    pub fn take_raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        self.take(n, context)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self, context: &'static str) -> Result<String, StoreError> {
        let b = self.take_bytes(context)?;
        String::from_utf8(b.to_vec()).map_err(|_| StoreError::Malformed { context })
    }

    /// Read a length-prefixed `f32` slice, bit-exactly.
    pub fn take_f32s(&mut self, context: &'static str) -> Result<Vec<f32>, StoreError> {
        let n = self.take_usize(context)?;
        let b = self.take(n.checked_mul(4).ok_or(StoreError::Malformed { context })?, context)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    /// Read a length-prefixed `u32` slice.
    pub fn take_u32s(&mut self, context: &'static str) -> Result<Vec<u32>, StoreError> {
        let n = self.take_usize(context)?;
        let b = self.take(n.checked_mul(4).ok_or(StoreError::Malformed { context })?, context)?;
        Ok(b.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Read a length-prefixed `usize` slice written by
    /// [`Encoder::put_usizes`].
    pub fn take_usizes(&mut self, context: &'static str) -> Result<Vec<usize>, StoreError> {
        let n = self.take_usize(context)?;
        let b = self.take(n.checked_mul(8).ok_or(StoreError::Malformed { context })?, context)?;
        b.chunks_exact(8)
            .map(|c| {
                let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                usize::try_from(v).map_err(|_| StoreError::Malformed { context })
            })
            .collect()
    }
}

/// Map a signed value onto an unsigned one so that small magnitudes of
/// either sign make short varints: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Implemented by every type that serializes into the store format.
///
/// `persist`/`restore` must be exact inverses: restoring the persisted
/// bytes yields a value whose re-encoding is byte-identical. That
/// property is what makes whole-pipeline checkpoints bit-identical.
pub trait Persist: Sized {
    /// Append this value's encoding to `enc`.
    fn persist(&self, enc: &mut Encoder);

    /// Decode a value previously written by [`Persist::persist`].
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, StoreError>;

    /// Encode into a fresh byte vector.
    fn to_store_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.persist(&mut enc);
        enc.into_bytes()
    }

    /// Decode from `bytes`, requiring the payload to be consumed
    /// exactly (trailing bytes are malformed).
    fn from_store_bytes(bytes: &[u8], context: &'static str) -> Result<Self, StoreError> {
        let mut dec = Decoder::new(bytes);
        let v = Self::restore(&mut dec)?;
        dec.finish(context)?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_bool(true);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 7);
        enc.put_usize(12345);
        enc.put_f32(-0.0);
        enc.put_f64(f64::NAN);
        enc.put_str("Δ-band");
        enc.put_f32s(&[1.5, f32::INFINITY, -3.25]);
        enc.put_u32s(&[0, 7, u32::MAX]);
        enc.put_usizes(&[9, 0, 42]);
        let bytes = enc.into_bytes();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8("t").unwrap(), 0xAB);
        assert!(dec.take_bool("t").unwrap());
        assert_eq!(dec.take_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64("t").unwrap(), u64::MAX - 7);
        assert_eq!(dec.take_usize("t").unwrap(), 12345);
        let z = dec.take_f32("t").unwrap();
        assert_eq!(z.to_bits(), (-0.0f32).to_bits());
        assert!(dec.take_f64("t").unwrap().is_nan());
        assert_eq!(dec.take_str("t").unwrap(), "Δ-band");
        let fs = dec.take_f32s("t").unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_infinite());
        assert_eq!(fs[2], -3.25);
        assert_eq!(dec.take_u32s("t").unwrap(), vec![0, 7, u32::MAX]);
        assert_eq!(dec.take_usizes("t").unwrap(), vec![9, 0, 42]);
        dec.finish("t").unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.put_f32s(&[1.0, 2.0, 3.0]);
        let mut bytes = enc.into_bytes();
        bytes.truncate(bytes.len() - 2);
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.take_f32s("t"), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        enc.put_u8(0xFF);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.take_u32("t").unwrap();
        assert!(matches!(dec.finish("t"), Err(StoreError::Malformed { .. })));
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.take_varint("t").unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let bytes = [0xFFu8; 10];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.take_varint("t"), Err(StoreError::Malformed { .. })));
        let mut dec = Decoder::new(&bytes[..3]);
        assert!(matches!(dec.take_varint("t"), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn bad_bool_is_malformed() {
        let bytes = [2u8];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.take_bool("t"), Err(StoreError::Malformed { .. })));
    }
}
