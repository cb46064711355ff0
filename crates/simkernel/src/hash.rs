//! The 64-bit FNV-1a hash behind every fingerprint the repository
//! persists: policy-cache file names, the spec and scenario fingerprints
//! a checkpoint records, library directory names and fleet rosters.
//!
//! The hasher is fed raw bytes only. Integers go in as their
//! little-endian bytes, and nothing is hashed through [`std::hash::Hash`]
//! impls, whose framing (`str` appends a `0xff` byte) would move every
//! persisted name.

/// A 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use simkernel::Fnv1a;
///
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(Fnv1a::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
/// let mut h = Fnv1a::new();
/// h.write(b"a").write(&7u64.to_le_bytes());
/// assert_ne!(h.finish(), Fnv1a::new().write(b"a").finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`, one at a time.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
