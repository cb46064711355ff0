//! Little-endian primitives for section payloads.
//!
//! [`Writer`] appends fixed-width little-endian values to a buffer;
//! [`Reader`] pulls them back out with bounds checks, reporting
//! [`CkptError::Truncated`] the moment a read would run past the end.
//! Floats travel as raw bit patterns, so NaN payloads and signed zeros
//! round-trip exactly — determinism demands bit-for-bit fidelity, not
//! "close enough".

use crate::error::CkptError;

/// Appends little-endian primitives to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer and returns the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends `f32`s as their exact bit patterns, back to back, after
    /// one reservation for the iterator's lower size bound.
    pub fn put_f32s(&mut self, values: impl IntoIterator<Item = f32>) {
        let values = values.into_iter();
        self.buf.reserve(values.size_hint().0.saturating_mul(4));
        for v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked reader over a section payload.
///
/// Carries the section name so truncation errors say *where* the data
/// ran out, not just that it did.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    section: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, labelled with `section` for errors.
    pub fn new(bytes: &'a [u8], section: &'a str) -> Self {
        Reader {
            bytes,
            at: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Reads the next `n` bytes as a slice.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                detail: format!(
                    "section `{}` ends at byte {} of {}, needed {} more",
                    self.section,
                    self.at,
                    self.bytes.len(),
                    n
                ),
            });
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CkptError::Corrupt {
            detail: format!("section `{}`: length {} exceeds usize", self.section, v),
        })
    }

    /// Reads a `u64` count of entries that take `entry_bytes` (> 0) each
    /// and rejects, as [`CkptError::Truncated`], a count the bytes left
    /// cannot hold. Decoders call it before allocating for the entries,
    /// so a crafted count fails instead of aborting on a huge
    /// allocation.
    pub fn get_count(&mut self, entry_bytes: usize) -> Result<usize, CkptError> {
        let count = self.get_usize()?;
        let fits = self.remaining() / entry_bytes;
        if count > fits {
            return Err(CkptError::Truncated {
                detail: format!(
                    "section `{}` claims {count} entries of {entry_bytes} bytes, the {} bytes left hold at most {fits}",
                    self.section,
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    /// Reads `n` `f32`s written by [`Writer::put_f32s`]. A count whose
    /// bytes overflow `usize` or run past the payload is
    /// [`CkptError::Truncated`], reported before anything is allocated.
    pub fn get_f32s(&mut self, n: usize) -> Result<Vec<f32>, CkptError> {
        let len = n.checked_mul(4).ok_or_else(|| CkptError::Truncated {
            detail: format!(
                "section `{}` claims {n} f32 values, more bytes than memory holds",
                self.section
            ),
        })?;
        let bytes = self.take(len)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(CkptError::Corrupt {
                detail: format!("section `{}`: invalid bool byte {}", self.section, n),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Corrupt {
            detail: format!("section `{}`: string is not valid UTF-8", self.section),
        })
    }

    /// Asserts the payload was consumed exactly — a length drift between
    /// encoder and decoder is corruption, not something to ignore.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::Corrupt {
                detail: format!(
                    "section `{}` has {} unread trailing bytes",
                    self.section,
                    self.remaining()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_f32s([-0.0]);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("naïve");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes, "t");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32s(1).unwrap()[0].to_bits(), (-0.0f32).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "naïve");
        r.finish().unwrap();
    }

    #[test]
    fn f32_runs_round_trip_bit_for_bit() {
        let values = [
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc1_2345), // negative NaN
            0.0,
            -0.0,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal, negated
            f32::MIN_POSITIVE,
            f32::INFINITY,
            -1.5,
        ];
        let mut w = Writer::new();
        w.put_f32s(values);
        let bytes = w.into_bytes();
        // The same bytes as one little-endian `u32` per value.
        let mut per_value = Writer::new();
        for v in values {
            per_value.put_u32(v.to_bits());
        }
        assert_eq!(bytes, per_value.into_bytes());

        let mut r = Reader::new(&bytes, "t");
        let got = r.get_f32s(values.len()).unwrap();
        r.finish().unwrap();
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
    }

    #[test]
    fn f32_counts_past_the_payload_are_truncated() {
        let mut w = Writer::new();
        w.put_f32s([1.0, 2.0]);
        let bytes = w.into_bytes();
        // `usize::MAX` values would overflow the byte count. Neither it
        // nor one value past the payload may panic or allocate the
        // values.
        for n in [usize::MAX, 3] {
            assert!(matches!(
                Reader::new(&bytes, "t").get_f32s(n),
                Err(CkptError::Truncated { .. })
            ));
        }
        assert_eq!(Reader::new(&bytes, "t").get_f32s(2).unwrap(), [1.0, 2.0]);
    }

    #[test]
    fn short_read_is_truncated() {
        let mut r = Reader::new(&[1, 2, 3], "t");
        assert!(matches!(r.get_u64(), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = Writer::new();
        w.put_usize(2);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes, "t").get_count(8).unwrap(), 2);
        // Two 8-byte entries do not hold two 16-byte ones.
        assert!(matches!(
            Reader::new(&bytes, "t").get_count(16),
            Err(CkptError::Truncated { .. })
        ));
        let mut w = Writer::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes, "t").get_count(16),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = Reader::new(&[2], "t");
        assert!(matches!(r.get_bool(), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn unread_trailing_bytes_are_corrupt() {
        let r = Reader::new(&[0], "t");
        assert!(matches!(r.finish(), Err(CkptError::Corrupt { .. })));
    }
}
