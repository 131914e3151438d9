//! CRC-32 (IEEE 802.3 polynomial) used to validate protocol frames.
//!
//! Slicing-by-16 (Kounavis & Berry, ISCC 2005): table `k` holds the CRC
//! of each byte value followed by `k` zero bytes, so one step folds 16
//! input bytes with 16 independent lookups instead of 16 dependent ones.
//! The sixteen 256-entry tables (16 KiB) are built at compile time; no
//! external dependency is needed for frame checksums.

const POLY: u32 = 0xEDB8_8320;

static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
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
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// The textbook CRC-32, one input bit at a time with no table:
    /// the reference the sliced kernel must match.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut rng = SeededRng::new(7);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 ("check" value) for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_reference_at_every_length_and_offset() {
        let data = noise(300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), reference(s), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_one_mebibyte() {
        let data = noise(1 << 20);
        assert_eq!(crc32(&data), reference(&data));
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
