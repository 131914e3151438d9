//! A self-contained LZ block codec built for staged text.
//!
//! Staged ETL files are highly repetitive (delimiters, repeated keys,
//! dictionary words that recur tens of KiB apart), so a simple
//! dictionary coder with a wide window gets a useful ratio. The format is:
//!
//! ```text
//! magic "LZS2" | u64 original_len | token stream
//! ```
//!
//! The token stream is groups of a *flag byte* followed by up to eight
//! items, LSB first: flag bit 1 = a literal byte; flag bit 0 = a 3-byte
//! match `u16 offset-1, u8 len-4` (little-endian offset) copying
//! `len` bytes from `offset` positions back: a 64 KiB window and matches
//! of 4..=259 bytes. A match may overlap its own output (a run). There
//! is no checksum: the decoder rejects truncation, a reference before the
//! output's start and a length other than the header's, and never sizes
//! its buffer from the header alone.
//!
//! The encoder keeps one hash table of positions keyed on the next four
//! bytes and probes it once per position: no chains, no probe limit. It
//! does not index the positions a match covers. That trades a little
//! ratio for speed, which is what the staging hop needs.
//!
//! This is not meant to compete with zstd — it exists so the compression
//! stage of the pipeline (FileWriter finalization, COPY decompression) does
//! real, measurable work without an external dependency.

/// Magic prefix of a compressed block.
pub const MAGIC: &[u8; 4] = b"LZS2";
/// Header length: magic plus the original length.
const HEADER: usize = 12;
/// Sliding-window size (16-bit offset field).
const WINDOW: usize = 1 << 16;
/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length (8-bit length field).
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Bytes a match item takes in the token stream.
const MATCH_ITEM: usize = 3;
/// log2 of the hash table's slot count.
const HASH_BITS: u32 = 16;

/// Error raised by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input does not start with the block magic.
    BadMagic,
    /// Input ended unexpectedly.
    Truncated,
    /// A back-reference pointed before the start of output.
    BadReference,
    /// Decompressed size differs from the header's claim.
    LengthMismatch {
        /// Length the header declared.
        declared: u64,
        /// Length actually produced.
        actual: u64,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadMagic => write!(f, "not an LZS2 block"),
            CompressError::Truncated => write!(f, "compressed block truncated"),
            CompressError::BadReference => write!(f, "back-reference out of range"),
            CompressError::LengthMismatch { declared, actual } => {
                write!(f, "decompressed {actual} bytes, header declared {declared}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// Hash table slot of the four bytes at `data[at..]`.
fn hash4(data: &[u8], at: usize) -> usize {
    let v = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[cand..]` and `data[at..]`
/// (`cand < at`), capped at [`MAX_MATCH`]; compares 8 bytes at a time.
fn match_len(data: &[u8], cand: usize, at: usize) -> usize {
    let max = MAX_MATCH.min(data.len() - at);
    let mut len = 0;
    while len + 8 <= max {
        let diff = read_u64(data, cand + len) ^ read_u64(data, at + len);
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    while len < max && data[cand + len] == data[at + len] {
        len += 1;
    }
    len
}

/// Compress `input` into a self-describing block.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());

    // Slot = the last position (mod 2^32) whose four bytes hashed there.
    // A stale or colliding slot is harmless: every candidate is checked
    // byte for byte, and only its distance is trusted.
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut flag_pos = 0usize;
    let mut flag_bit = 8u32; // forces a new flag byte on the first item
    while i < input.len() {
        if flag_bit == 8 {
            flag_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        let (mut dist, mut len) = (0, 0);
        if i + MIN_MATCH <= input.len() {
            let h = hash4(input, i);
            dist = (i as u32).wrapping_sub(table[h]) as usize;
            table[h] = i as u32;
            if (1..=WINDOW).contains(&dist) {
                len = match_len(input, i - dist, i);
            }
        }
        if len >= MIN_MATCH {
            out.extend_from_slice(&((dist - 1) as u16).to_le_bytes());
            out.push((len - MIN_MATCH) as u8);
            i += len;
        } else {
            out[flag_pos] |= 1 << flag_bit;
            out.push(input[i]);
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Decompress a block produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    if !is_compressed(input) {
        return Err(CompressError::BadMagic);
    }
    if input.len() < HEADER {
        return Err(CompressError::Truncated);
    }
    let declared = read_u64(input, 4);
    // The header is not trusted for the allocation: the body cannot
    // produce more than MAX_MATCH bytes per match item.
    let body_max = (input.len() - HEADER) / MATCH_ITEM * MAX_MATCH + MAX_MATCH;
    let mut out = Vec::with_capacity(declared.min(body_max as u64) as usize);
    let mut i = HEADER;
    while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if i == input.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                out.push(input[i]);
                i += 1;
                continue;
            }
            let item = input
                .get(i..i + MATCH_ITEM)
                .ok_or(CompressError::Truncated)?;
            i += MATCH_ITEM;
            let off = u16::from_le_bytes([item[0], item[1]]) as usize + 1;
            let len = item[2] as usize + MIN_MATCH;
            let start = out
                .len()
                .checked_sub(off)
                .ok_or(CompressError::BadReference)?;
            // An overlapping match repeats its first `off` bytes: copy
            // runs from `start` that double, each a whole number of periods.
            let mut copied = 0;
            while copied < len {
                let n = (len - copied).min(off + copied);
                out.extend_from_within(start..start + n);
                copied += n;
            }
        }
    }
    if out.len() as u64 != declared {
        return Err(CompressError::LengthMismatch {
            declared,
            actual: out.len() as u64,
        });
    }
    Ok(out)
}

/// Whether `data` looks like a compressed block (magic check only).
pub fn is_compressed(data: &[u8]) -> bool {
    data.len() >= 4 && &data[..4] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` staged lines shaped like `bulk_wide`: a key, then 49
    /// columns of five words drawn (skewed) from a 4096-word dictionary.
    fn dictionary_text(seed: u64, rows: usize) -> Vec<u8> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let dict: Vec<Vec<u8>> = (0..4096)
            .map(|rank| {
                (0..3 + rank % 8)
                    .map(|_| b'a' + (next() % 26) as u8)
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        for row in 0..rows {
            out.extend_from_slice(format!("R{row:08}").as_bytes());
            for col in 0..49 * 5 {
                out.push(if col % 5 == 0 { b'|' } else { b' ' });
                let u = next() as f64 / (1u64 << 31) as f64;
                out.extend_from_slice(&dict[(u * u * u * dict.len() as f64) as usize]);
            }
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn short_roundtrip() {
        for input in [&b"a"[..], b"ab", b"abc", b"abcd"] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input, "input {input:?}");
        }
    }

    #[test]
    fn repetitive_data_shrinks() {
        let input: Vec<u8> = b"123|Smith|2012-01-01\n".repeat(200);
        let c = compress(&input);
        assert!(
            c.len() < input.len() / 2,
            "expected 2x+ ratio, got {} -> {}",
            input.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: little compression, but must roundtrip.
        let mut state = 0x12345678u64;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn long_runs() {
        let input = vec![b'x'; 100_000];
        let c = compress(&input);
        assert!(c.len() < 20_000);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn matches_beyond_window_not_used() {
        // A repeat spaced wider than the window still roundtrips.
        let mut input = vec![0u8; 0];
        input.extend_from_slice(b"needle-needle-needle");
        input.extend(std::iter::repeat_n(b'.', WINDOW + 100));
        input.extend_from_slice(b"needle-needle-needle");
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decompress(b"nope"), Err(CompressError::BadMagic));
        assert_eq!(decompress(b"LZS2\x01"), Err(CompressError::Truncated));
        // Declared length mismatch.
        let mut c = compress(b"hello world hello world");
        c[4] = 99; // corrupt declared length
        assert!(matches!(
            decompress(&c),
            Err(CompressError::LengthMismatch { .. }) | Err(CompressError::Truncated)
        ));
    }

    #[test]
    fn bad_reference_detected() {
        let mut block = Vec::new();
        block.extend_from_slice(MAGIC);
        block.extend_from_slice(&10u64.to_le_bytes());
        block.push(0b0000_0000); // first item is a reference
        block.extend_from_slice(&[0xFF, 0xFF, 0x00]); // offset far beyond output
        assert_eq!(decompress(&block), Err(CompressError::BadReference));
    }

    #[test]
    fn hostile_header_does_not_allocate_its_claim() {
        for declared in [1u64 << 40, u64::MAX] {
            let mut block = Vec::new();
            block.extend_from_slice(MAGIC);
            block.extend_from_slice(&declared.to_le_bytes());
            block.extend_from_slice(&[0b0000_0001, b'x']);
            assert_eq!(
                decompress(&block),
                Err(CompressError::LengthMismatch {
                    declared,
                    actual: 1
                })
            );
        }
    }

    #[test]
    fn dictionary_text_ratio() {
        let input = dictionary_text(7, 200);
        let c = compress(&input);
        let ratio = c.len() as f64 / input.len() as f64;
        assert!(ratio <= 0.65, "{} -> {} ({ratio:.3})", input.len(), c.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn is_compressed_check() {
        assert!(is_compressed(&compress(b"abc")));
        assert!(!is_compressed(b"plain text"));
    }
}
