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

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Appends an `f32` as its exact bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
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

    /// Reads an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32()?))
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
        w.put_f32(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("naïve");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes, "t");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "naïve");
        r.finish().unwrap();
    }

    #[test]
    fn short_read_is_truncated() {
        let mut r = Reader::new(&[1, 2, 3], "t");
        assert!(matches!(r.get_u64(), Err(CkptError::Truncated { .. })));
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
