//! The *vartext* delimited-text record format (`format vartext '|'`).
//!
//! Vartext records are newline-terminated lines whose fields are separated
//! by a single-byte delimiter. All fields arrive as text; typing happens
//! later, in the DML application phase (this is why Example 2.1 declares
//! `JOIN_DATE varchar(10)` and casts it in the INSERT).
//!
//! NULL/empty-string semantics match the legacy tools: a **zero-length
//! field is NULL**; a genuinely empty string must be written as a quoted
//! empty field `""`. A backslash escapes the delimiter, the quote, the
//! newline (`\n`), and itself. These are precisely the "detecting null
//! values, handling empty strings, and escaping special characters" concerns
//! the paper's §4 lists for the DataConverter.
//!
//! Staged files are vartext rows too: the converter writes each row as
//! `__SEQ` plus its fields in this encoding, and `COPY` decodes them with
//! [`VartextFormat::decode_lines`]. [`records`] is the one rule that
//! splits a buffer into records, so the client's row numbers, the
//! servers' SEQNOs and the staged rows all count the same lines.

use crate::data::{FieldRef, Value};
use crate::errcode::ErrCode;

/// Configuration of a vartext encoding: delimiter and quote characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VartextFormat {
    /// Field delimiter (Example 2.1 uses `|`).
    pub delimiter: u8,
    /// Quote character used to represent empty (non-NULL) strings.
    pub quote: u8,
}

impl Default for VartextFormat {
    fn default() -> Self {
        VartextFormat {
            delimiter: b'|',
            quote: b'"',
        }
    }
}

/// Error raised by vartext parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VartextError {
    /// A record had a different number of fields than the layout.
    FieldCount { expected: usize, actual: usize },
    /// A field contained invalid UTF-8.
    BadUtf8,
    /// A trailing escape character at end of line.
    DanglingEscape,
}

impl std::fmt::Display for VartextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VartextError::FieldCount { expected, actual } => {
                write!(f, "expected {expected} fields, found {actual}")
            }
            VartextError::BadUtf8 => write!(f, "field contains invalid UTF-8"),
            VartextError::DanglingEscape => write!(f, "dangling escape at end of record"),
        }
    }
}

impl std::error::Error for VartextError {}

impl VartextError {
    /// The code the ET table records for a record that fails to decode:
    /// a wrong field count is 2673, any other defect 2665.
    pub fn code(&self) -> ErrCode {
        match self {
            VartextError::FieldCount { .. } => ErrCode::FIELD_COUNT,
            VartextError::BadUtf8 | VartextError::DanglingEscape => ErrCode::BAD_VALUE,
        }
    }
}

/// The records of a vartext buffer: lines split on `\n`, a trailing `\r`
/// stripped, blank lines skipped (they consume no row number). A last
/// line without a newline is a record.
pub fn records(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < data.len() {
            let end = find_any(data, at, [b'\n']);
            let line = &data[at..end];
            at = end + 1;
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if !line.is_empty() {
                return Some(line);
            }
        }
        None
    })
}

/// Position of the first byte at or after `from` that is one of
/// `needles`, or `data.len()`: eight bytes per step, each a `u64` whose
/// bytes are compared with every needle at once. The one scanning kernel
/// of the codec: the decoder's clean spans and the encoder's escapes.
fn find_any<const N: usize>(data: &[u8], from: usize, needles: [u8; N]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let splats = needles.map(|n| LOW * n as u64);
    let mut i = from;
    while let Some(word) = data.get(i..i + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        // A byte of `word ^ splat` is zero where `word` holds the needle.
        // The zero-byte test can also flag a byte above a true zero, but
        // never one below the first: the lowest flag of each needle is
        // exact, and so is the lowest of their union.
        let zero = splats.iter().fold(0, |zero, splat| {
            let x = word ^ splat;
            zero | (x.wrapping_sub(LOW) & !x)
        });
        let hit = zero & HIGH;
        if hit != 0 {
            return i + hit.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < data.len() && !needles.iter().any(|&n| n == data[i]) {
        i += 1;
    }
    i
}

impl VartextFormat {
    /// New format with the given delimiter and the default quote.
    pub fn with_delimiter(delimiter: u8) -> VartextFormat {
        VartextFormat {
            delimiter,
            ..Default::default()
        }
    }

    /// Encode one row as a vartext line (no trailing newline), each field
    /// through [`encode_field`](Self::encode_field).
    pub fn encode_row(&self, values: &[Value], out: &mut Vec<u8>) {
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(self.delimiter);
            }
            self.encode_field(v.as_field_ref(), out);
        }
    }

    /// The vartext field encoder: NULL writes nothing (a zero-length
    /// field), an empty string or empty byte string writes `""`, and any
    /// other field writes its text ([`FieldRef::render_into`]), escaped.
    /// Allocates only when `out` grows, or when the delimiter or quote is a
    /// character a rendered number, date or hex string can contain. The
    /// converter's binary path stages every field through it too.
    pub fn encode_field(&self, field: FieldRef<'_>, out: &mut Vec<u8>) {
        match field {
            FieldRef::Null => {}
            FieldRef::Str("") | FieldRef::Bytes([]) => out.extend_from_slice(&[self.quote; 2]),
            FieldRef::Str(s) => self.escape_bytes_into(s.as_bytes(), out),
            typed => {
                let start = out.len();
                typed.render_into(out);
                if find_any(out, start, self.escapable()) < out.len() {
                    let text = out.split_off(start);
                    self.escape_bytes_into(&text, out);
                }
            }
        }
    }

    /// The bytes a field's text escapes: the delimiter, the quote, the
    /// backslash, newline and carriage return.
    fn escapable(&self) -> [u8; 5] {
        [self.delimiter, self.quote, b'\\', b'\n', b'\r']
    }

    /// Escape raw field bytes into `out`: the delimiter, quote and
    /// backslash get a backslash prefix, newline becomes `\n` and carriage
    /// return `\r`. Runs of clean bytes between escapes, found a word at a
    /// time, are copied whole; a field without escapes is one copy.
    fn escape_bytes_into(&self, bytes: &[u8], out: &mut Vec<u8>) {
        let escapable = self.escapable();
        let mut run_start = 0;
        loop {
            let at = find_any(bytes, run_start, escapable);
            out.extend_from_slice(&bytes[run_start..at]);
            let Some(&b) = bytes.get(at) else { return };
            let escaped = match b {
                b'\n' => b'n',
                b'\r' => b'r',
                other => other,
            };
            out.extend_from_slice(&[b'\\', escaped]);
            run_start = at + 1;
        }
    }

    /// Decode one vartext line into field values. All non-null fields come
    /// back as [`Value::Str`]; `expected_arity` (when `Some`) enforces the
    /// layout's field count.
    pub fn decode_line(
        &self,
        line: &[u8],
        expected_arity: Option<usize>,
    ) -> Result<Vec<Value>, VartextError> {
        self.collect_line(line, expected_arity, &mut Vec::new())
    }

    /// [`decode_line`](Self::decode_line) with a caller-owned unescape
    /// buffer: the row is allocated at its arity and each field's string
    /// at its exact length.
    fn collect_line(
        &self,
        line: &[u8],
        expected_arity: Option<usize>,
        scratch: &mut Vec<u8>,
    ) -> Result<Vec<Value>, VartextError> {
        let mut row = Vec::with_capacity(expected_arity.unwrap_or(0));
        let push = |f: Option<&str>| row.push(f.map_or(Value::Null, |s| Value::Str(s.into())));
        let actual = self.decode_line_with(line, scratch, push)?;
        match expected_arity {
            Some(expected) if expected != actual => {
                Err(VartextError::FieldCount { expected, actual })
            }
            _ => Ok(row),
        }
    }

    /// The vartext decoder: decode one line, handing each field to `emit`
    /// without allocating. A field borrows from `line` when it contains no
    /// escape sequences and from `scratch` (reused across fields and
    /// calls) when it does. `None` is NULL (zero-length field); `Some("")`
    /// is the quoted empty string.
    ///
    /// Returns the field count; arity enforcement is the caller's job, so
    /// field-level errors (bad UTF-8, dangling escape) take precedence
    /// over the count check.
    pub fn decode_line_with(
        &self,
        line: &[u8],
        scratch: &mut Vec<u8>,
        mut emit: impl FnMut(Option<&str>),
    ) -> Result<usize, VartextError> {
        let mut nfields = 0usize;
        let mut i = 0usize;
        let mut field_start = 0usize;
        let mut has_escape = false;
        let mut quoted_empty = false;
        macro_rules! finish {
            ($end:expr) => {{
                let value = if quoted_empty {
                    // The `""` bytes were consumed without contributing
                    // content; nothing else can follow them in the field.
                    Some("")
                } else {
                    let content: &[u8] = if has_escape {
                        &scratch[..]
                    } else {
                        &line[field_start..$end]
                    };
                    if content.is_empty() {
                        None
                    } else {
                        Some(std::str::from_utf8(content).map_err(|_| VartextError::BadUtf8)?)
                    }
                };
                emit(value);
                nfields += 1;
            }};
        }
        while i < line.len() {
            let b = line[i];
            if b == b'\\' {
                if i + 1 >= line.len() {
                    return Err(VartextError::DanglingEscape);
                }
                if !has_escape {
                    scratch.clear();
                    scratch.extend_from_slice(&line[field_start..i]);
                    has_escape = true;
                }
                let nxt = line[i + 1];
                scratch.push(match nxt {
                    b'n' => b'\n',
                    b'r' => b'\r',
                    other => other,
                });
                i += 2;
                continue;
            }
            if b == self.delimiter {
                finish!(i);
                i += 1;
                field_start = i;
                has_escape = false;
                quoted_empty = false;
                continue;
            }
            if b == self.quote
                && i == field_start
                && i + 1 < line.len()
                && line[i + 1] == self.quote
                && (i + 2 == line.len() || line[i + 2] == self.delimiter)
            {
                quoted_empty = true;
                i += 2;
                continue;
            }
            if has_escape {
                scratch.push(b);
                i += 1;
                continue;
            }
            // Clean-span fast path: past the field's first byte only a
            // backslash or the delimiter can change state, so skip the
            // whole run eight bytes at a time (the field borrows from
            // `line`).
            i = find_any(line, i + 1, [b'\\', self.delimiter]);
        }
        finish!(line.len());
        Ok(nfields)
    }

    /// Decode every record of a buffer (see [`records`]); the first
    /// record that fails to decode fails the whole buffer.
    pub fn decode_lines(
        &self,
        data: &[u8],
        expected_arity: Option<usize>,
    ) -> Result<Vec<Vec<Value>>, VartextError> {
        let mut scratch = Vec::new();
        records(data)
            .map(|line| self.collect_line(line, expected_arity, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> VartextFormat {
        VartextFormat::default()
    }

    fn strs(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::Str(s.to_string())).collect()
    }

    /// `row` encoded as one line, as text.
    fn encode(f: &VartextFormat, row: &[Value]) -> String {
        let mut out = Vec::new();
        f.encode_row(row, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn simple_roundtrip() {
        let row = strs(&["123", "Smith", "2012-01-01"]);
        let line = encode(&fmt(), &row);
        assert_eq!(line, "123|Smith|2012-01-01");
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(3)).unwrap(), row);
    }

    #[test]
    fn null_is_empty_field() {
        let row = vec![Value::Str("a".into()), Value::Null, Value::Str("c".into())];
        let line = encode(&fmt(), &row);
        assert_eq!(line, "a||c");
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(3)).unwrap(), row);
    }

    #[test]
    fn empty_string_distinct_from_null() {
        let row = vec![Value::Str(String::new()), Value::Null];
        let line = encode(&fmt(), &row);
        assert_eq!(line, "\"\"|");
        let decoded = fmt().decode_line(line.as_bytes(), Some(2)).unwrap();
        assert_eq!(decoded[0], Value::Str(String::new()));
        assert_eq!(decoded[1], Value::Null);
    }

    #[test]
    fn escaping_roundtrip() {
        let row = strs(&["a|b", "c\\d", "e\"f", "g\nh", "i\rj"]);
        let line = encode(&fmt(), &row);
        assert!(!line.contains('\n'));
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(5)).unwrap(), row);
    }

    #[test]
    fn literal_quotes_inside_field_survive() {
        let row = strs(&["say \"hi\""]);
        let line = encode(&fmt(), &row);
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(1)).unwrap(), row);
    }

    #[test]
    fn field_count_enforced() {
        assert!(matches!(
            fmt().decode_line(b"a|b", Some(3)),
            Err(VartextError::FieldCount {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn custom_delimiter() {
        let f = VartextFormat::with_delimiter(b',');
        let row = strs(&["x,y", "z"]);
        let line = encode(&f, &row);
        assert_eq!(line, "x\\,y,z");
        assert_eq!(f.decode_line(line.as_bytes(), Some(2)).unwrap(), row);
    }

    #[test]
    fn decode_lines_handles_crlf_and_trailing() {
        let data = b"a|b\r\nc|d\ne|f";
        let rows = fmt().decode_lines(data, Some(2)).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], strs(&["e", "f"]));
    }

    #[test]
    fn records_skip_blank_lines_and_strip_cr() {
        let recs: Vec<&[u8]> = records(b"a\r\n\n\r\nb|c\n\nd").collect();
        assert_eq!(recs, [&b"a"[..], b"b|c", b"d"]);
        assert_eq!(records(b"").count(), 0);
    }

    #[test]
    fn find_any_matches_a_bytewise_scan() {
        // Needles at every offset of an 8-byte word, beside bytes that
        // differ from a needle by one bit or by the high bit, plus a tail
        // shorter than a word.
        let filler = [b'a', b'|' ^ 1, b'|' | 0x80, 0x00, 0xFF, b'\\' ^ 2];
        for len in 0..40 {
            for at in 0..=len {
                for fill in filler {
                    let mut data = vec![fill; len];
                    for (needle, other) in [(b'|', b'\\'), (b'\\', b'|'), (b'\n', b'\n')] {
                        if at < len {
                            data[at] = needle;
                        }
                        for from in 0..=len {
                            let want = (from..len)
                                .find(|&i| data[i] == needle || data[i] == other)
                                .unwrap_or(len);
                            assert_eq!(
                                find_any(&data, from, [needle, other]),
                                want,
                                "{data:?} from {from}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn records_match_a_split_on_newlines() {
        let data = b"a|b\r\n\n\r\nlonger record with words|x\nq\n\n\r\r\nlast";
        for end in 0..=data.len() {
            let data = &data[..end];
            let want: Vec<&[u8]> = data
                .split(|&b| b == b'\n')
                .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
                .filter(|line| !line.is_empty())
                .collect();
            assert_eq!(records(data).collect::<Vec<_>>(), want, "{data:?}");
        }
    }

    #[test]
    fn error_codes() {
        let count = VartextError::FieldCount {
            expected: 2,
            actual: 1,
        };
        assert_eq!(count.code(), ErrCode::FIELD_COUNT);
        assert_eq!(VartextError::BadUtf8.code(), ErrCode::BAD_VALUE);
        assert_eq!(VartextError::DanglingEscape.code(), ErrCode::BAD_VALUE);
    }

    #[test]
    fn dangling_escape_rejected() {
        assert!(matches!(
            fmt().decode_line(b"abc\\", Some(1)),
            Err(VartextError::DanglingEscape)
        ));
    }

    #[test]
    fn escape_bytes_matches_str_escaping() {
        let f = fmt();
        let row = strs(&["a|b\\c\"d\ne\rf"]);
        let mut via_str = Vec::new();
        f.encode_row(&row, &mut via_str);
        let mut via_bytes = Vec::new();
        f.escape_bytes_into("a|b\\c\"d\ne\rf".as_bytes(), &mut via_bytes);
        assert_eq!(via_str, via_bytes);
    }

    #[test]
    fn paper_example_data_file() {
        // The Figure 5(a) data file rows parse as expected.
        let data = b"123|Smith|2012-01-01\n456|Brown|xxxx\n789|Brown|yyyyy\n123|Jones|2012-12-01\n157|Jones|2012-12-01\n";
        let rows = fmt().decode_lines(data, Some(3)).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[1][2], Value::Str("xxxx".into()));
    }
}
