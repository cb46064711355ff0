//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), slicing-by-16.
//!
//! The bytewise table loop reads one table entry per byte and each step
//! waits on the one before. Slicing-by-16 folds sixteen bytes per step
//! through sixteen tables (table `k` advances a byte's contribution by
//! `k` further bytes), so the sixteen lookups are independent. The
//! checksums are the bytewise loop's, which the tests keep as the
//! oracle.

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
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
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(a & 0xff) as usize]
            ^ t[14][(a >> 8 & 0xff) as usize]
            ^ t[13][(a >> 16 & 0xff) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
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
