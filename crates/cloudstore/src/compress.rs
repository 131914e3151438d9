//! A self-contained LZ codec built for staged text.
//!
//! Staged ETL files are highly repetitive (delimiters, repeated keys,
//! dictionary words that recur tens of KiB apart), so a simple
//! dictionary coder with a wide window gets a useful ratio.
//!
//! A compressed object is one or more *frames*, back to back. A frame
//! stands alone — no match reaches before its start — so frames
//! compressed separately (by different workers, say) concatenate into a
//! valid object, and [`decompress`] returns the concatenation of their
//! texts:
//!
//! ```text
//! frame    = magic "LZS3" | u64 raw_len | u64 body_len | body
//! body     = sequence*
//! sequence = token | literal_len_ext* | literals | [ u16 offset-1 | match_len_ext ]
//! ```
//!
//! Integers are little-endian. A sequence is a literal run followed by
//! one match. The token's high nibble is the run's length and its low
//! nibble the match's length minus 4; a nibble of 15 says more follows:
//! the run's length adds bytes until one is below 255, the match's adds
//! one byte. A match copies 4..=259 bytes from `offset` positions back (a
//! 64 KiB window) and may overlap its own output (a run). The body's last
//! sequence may end after its literals. There is no checksum: the decoder
//! rejects truncation, a frame that does not start with the magic, a
//! match that reaches before its frame's start or runs past 259 bytes,
//! and a frame whose output is not `raw_len` bytes, and it never sizes
//! its buffer from a header's claim alone.
//!
//! The encoder keeps one hash table of positions keyed on the next four
//! bytes and probes it once per position: no chains, no probe limit. It
//! does not index the positions a match covers. That trades a little
//! ratio for speed, which is what the staging hop needs. The decoder
//! copies literal runs and matches sixteen bytes at a time wherever its
//! buffer leaves room.
//!
//! This is not meant to compete with zstd — it exists so the compression
//! stage of the pipeline (the workers' framing, COPY's decompression)
//! does real, measurable work without an external dependency.

/// Magic prefix of every frame.
pub const MAGIC: &[u8; 4] = b"LZS3";
/// Frame header length: magic, raw length, body length.
const HEADER: usize = 20;
/// Sliding-window size (16-bit offset field).
const WINDOW: usize = 1 << 16;
/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// A token nibble of this value says an extension follows.
const NIBBLE: usize = 15;
/// Maximum match length: the nibble plus one extension byte, capped.
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Fewest body bytes a sequence with a match takes: token and offset.
const MIN_SEQUENCE: usize = 3;
/// Bytes the decoder copies at once; its buffer keeps this much slack.
const COPY_BLOCK: usize = 16;
/// log2 of the hash table's slot count.
const HASH_BITS: u32 = 16;

/// Error raised by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// A frame does not start with the magic.
    BadMagic,
    /// Input ended unexpectedly.
    Truncated,
    /// A match reached before its frame's start or past the length cap.
    BadReference,
    /// A frame's decompressed size differs from its header's claim.
    LengthMismatch {
        /// Length the header declared.
        declared: u64,
        /// Length actually produced (or, for a frame that overran its
        /// claim, the length it would have reached).
        actual: u64,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::BadMagic => write!(f, "not an LZS3 frame"),
            CompressError::Truncated => write!(f, "compressed frame truncated"),
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

/// Append one sequence: `literals`, then the match `(distance, length)`
/// unless this is the body's literal-only tail.
fn write_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let run = literals.len();
    let extra = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((run.min(NIBBLE) as u8) << 4) | extra.min(NIBBLE) as u8);
    if run >= NIBBLE {
        let mut rest = run - NIBBLE;
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
    out.extend_from_slice(literals);
    if let Some((dist, _)) = matched {
        out.extend_from_slice(&((dist - 1) as u16).to_le_bytes());
        if extra >= NIBBLE {
            out.push((extra - NIBBLE) as u8);
        }
    }
}

/// Compress `input` into one frame.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + HEADER + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // body length, set below

    // Slot = the last position (mod 2^32) whose four bytes hashed there.
    // A stale or colliding slot is harmless: every candidate is checked
    // byte for byte, and only its distance is trusted.
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut anchor = 0usize; // first byte not yet emitted
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(input, i);
        let dist = (i as u32).wrapping_sub(table[h]) as usize;
        table[h] = i as u32;
        let len = if (1..=WINDOW).contains(&dist) {
            match_len(input, i - dist, i)
        } else {
            0
        };
        if len >= MIN_MATCH {
            write_sequence(&mut out, &input[anchor..i], Some((dist, len)));
            i += len;
            anchor = i;
        } else {
            i += 1;
        }
    }
    if anchor < input.len() {
        write_sequence(&mut out, &input[anchor..], None);
    }
    let body_len = (out.len() - HEADER) as u64;
    out[12..HEADER].copy_from_slice(&body_len.to_le_bytes());
    out
}

/// One frame's header, read at `at`: its declared length and its body's
/// byte range in the input.
struct Frame {
    declared: u64,
    body: std::ops::Range<usize>,
}

impl Frame {
    fn read(input: &[u8], at: usize) -> Result<Frame, CompressError> {
        let rest = &input[at..];
        if rest.len() >= MAGIC.len() && &rest[..MAGIC.len()] != MAGIC {
            return Err(CompressError::BadMagic);
        }
        if rest.len() < HEADER {
            return Err(CompressError::Truncated);
        }
        let start = at + HEADER;
        let end = usize::try_from(read_u64(rest, 12))
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= input.len())
            .ok_or(CompressError::Truncated)?;
        Ok(Frame {
            declared: read_u64(rest, 4),
            body: start..end,
        })
    }

    /// The most output this frame may produce: its claim, capped by what
    /// its body can encode (every `MIN_SEQUENCE` body bytes at most one
    /// `MAX_MATCH`, a literal byte one byte).
    fn capacity(&self) -> usize {
        let body_max = self.body.len() / MIN_SEQUENCE * MAX_MATCH + MAX_MATCH;
        self.declared.min(body_max as u64) as usize
    }
}

/// Decompress an object of one or more frames produced by [`compress`]:
/// the concatenation of their texts.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    if !is_compressed(input) {
        return Err(CompressError::BadMagic);
    }
    // Walk the headers first: one buffer, sized by what the bodies can
    // produce, with slack for the 16-byte copies.
    let mut capacity = 0usize;
    let mut at = 0;
    while at < input.len() {
        let frame = Frame::read(input, at)?;
        capacity += frame.capacity();
        at = frame.body.end;
    }
    let mut out = vec![0u8; capacity + COPY_BLOCK];
    let mut end = 0;
    let mut at = 0;
    while at < input.len() {
        let frame = Frame::read(input, at)?;
        end = decode_frame(input, &frame, &mut out, end)?;
        at = frame.body.end;
    }
    out.truncate(end);
    Ok(out)
}

/// Decode `frame`'s body into `out` from `start` on; returns the end of
/// its output. Every write of the frame's own bytes is checked against
/// its capacity; a 16-byte copy may spill past them into slack that later
/// bytes overwrite or the final truncation drops.
fn decode_frame(
    input: &[u8],
    frame: &Frame,
    out: &mut [u8],
    start: usize,
) -> Result<usize, CompressError> {
    let declared = frame.declared;
    let limit = start + frame.capacity();
    let overrun = |reached: usize| CompressError::LengthMismatch {
        declared,
        actual: (reached - start) as u64,
    };
    let body_end = frame.body.end;
    let mut ip = frame.body.start;
    let mut op = start;
    while ip < body_end {
        let token = input[ip] as usize;
        ip += 1;
        let mut run = token >> 4;
        if run == NIBBLE {
            loop {
                let b = *input[..body_end].get(ip).ok_or(CompressError::Truncated)?;
                ip += 1;
                run += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if run > body_end - ip {
            return Err(CompressError::Truncated);
        }
        if op + run > limit {
            return Err(overrun(op + run));
        }
        if run <= COPY_BLOCK && ip + COPY_BLOCK <= input.len() && op + COPY_BLOCK <= out.len() {
            out[op..op + COPY_BLOCK].copy_from_slice(&input[ip..ip + COPY_BLOCK]);
        } else {
            out[op..op + run].copy_from_slice(&input[ip..ip + run]);
        }
        ip += run;
        op += run;
        if ip == body_end {
            break;
        }
        let offset = input[..body_end]
            .get(ip..ip + 2)
            .ok_or(CompressError::Truncated)?;
        let dist = u16::from_le_bytes([offset[0], offset[1]]) as usize + 1;
        ip += 2;
        let mut len = (token & 0xF) + MIN_MATCH;
        if len == NIBBLE + MIN_MATCH {
            len += *input[..body_end].get(ip).ok_or(CompressError::Truncated)? as usize;
            ip += 1;
            if len > MAX_MATCH {
                return Err(CompressError::BadReference);
            }
        }
        if dist > op - start {
            return Err(CompressError::BadReference);
        }
        if op + len > limit {
            return Err(overrun(op + len));
        }
        let from = op - dist;
        if dist >= COPY_BLOCK && op + len + COPY_BLOCK <= out.len() {
            // Each block's source ends at or before its destination's
            // start, so it reads bytes already written.
            let mut k = 0;
            while k < len {
                let block: [u8; COPY_BLOCK] = out[from + k..from + k + COPY_BLOCK]
                    .try_into()
                    .expect("16 bytes");
                out[op + k..op + k + COPY_BLOCK].copy_from_slice(&block);
                k += COPY_BLOCK;
            }
        } else {
            // A close match repeats its last `dist` bytes: byte by byte.
            for k in 0..len {
                out[op + k] = out[from + k];
            }
        }
        op += len;
    }
    if (op - start) as u64 != declared {
        return Err(CompressError::LengthMismatch {
            declared,
            actual: (op - start) as u64,
        });
    }
    Ok(op)
}

/// Whether `data` looks like a compressed object (magic check only).
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

    /// A frame with `declared` raw length around a hand-written `body`.
    fn frame(declared: u64, body: &[u8]) -> Vec<u8> {
        let mut block = Vec::new();
        block.extend_from_slice(MAGIC);
        block.extend_from_slice(&declared.to_le_bytes());
        block.extend_from_slice(&(body.len() as u64).to_le_bytes());
        block.extend_from_slice(body);
        block
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert_eq!(c.len(), HEADER);
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
    fn multi_frame_roundtrip() {
        let text = dictionary_text(3, 60);
        let pieces = [&text[..1], &text[1..40_000], &[][..], &text[40_000..]];
        let mut object = Vec::new();
        for piece in pieces {
            object.extend_from_slice(&compress(piece));
        }
        assert_eq!(decompress(&object).unwrap(), text);
    }

    #[test]
    fn match_does_not_reach_into_the_previous_frame() {
        // The second frame's text repeats the first's, but its match may
        // not reach back across the frame boundary.
        let mut object = compress(b"abcdabcd");
        object.extend_from_slice(&frame(4, &[0x00, 0x07, 0x00]));
        assert_eq!(decompress(&object), Err(CompressError::BadReference));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decompress(b"nope"), Err(CompressError::BadMagic));
        assert_eq!(decompress(b"LZS3\x01"), Err(CompressError::Truncated));
        // Declared length mismatch.
        let mut c = compress(b"hello world hello world");
        c[4] = 99; // corrupt declared length
        assert!(matches!(
            decompress(&c),
            Err(CompressError::LengthMismatch { .. }) | Err(CompressError::Truncated)
        ));
        // A frame followed by bytes that are not a frame.
        let mut c = compress(b"hello world");
        c.extend_from_slice(b"trailing");
        assert_eq!(decompress(&c), Err(CompressError::BadMagic));
    }

    #[test]
    fn bad_reference_detected() {
        // The first sequence is a bare match reaching 64 KiB back, far
        // before the start of the output.
        let block = frame(10, &[0x00, 0xFF, 0xFF]);
        assert_eq!(decompress(&block), Err(CompressError::BadReference));
        // A match longer than the 259-byte cap.
        let block = frame(300, &[0x1F, b'x', 0x00, 0x00, 0xFF]);
        assert_eq!(decompress(&block), Err(CompressError::BadReference));
    }

    #[test]
    fn hostile_header_does_not_allocate_its_claim() {
        for declared in [1u64 << 40, u64::MAX] {
            // One literal `x`.
            let block = frame(declared, &[0x10, b'x']);
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
        assert!(ratio <= 0.56, "{} -> {} ({ratio:.3})", input.len(), c.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn is_compressed_check() {
        assert!(is_compressed(&compress(b"abc")));
        assert!(!is_compressed(b"plain text"));
    }
}
