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

use crate::data::Value;

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

impl VartextFormat {
    /// New format with the given delimiter and the default quote.
    pub fn with_delimiter(delimiter: u8) -> VartextFormat {
        VartextFormat {
            delimiter,
            ..Default::default()
        }
    }

    /// Encode one row as a vartext line (no trailing newline). Strings are
    /// escaped straight from their bytes; other values are rendered as
    /// their canonical text; NULL becomes a zero-length field; the empty
    /// string becomes `""`.
    pub fn encode_row(&self, values: &[Value], out: &mut Vec<u8>) {
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push(self.delimiter);
            }
            match v {
                Value::Null => {}
                Value::Str(s) if s.is_empty() => {
                    out.push(self.quote);
                    out.push(self.quote);
                }
                Value::Str(s) => self.escape_bytes_into(s.as_bytes(), out),
                other => self.escape_bytes_into(other.display_text().as_bytes(), out),
            }
        }
    }

    /// Encode one row to a `String` line.
    pub fn encode_line(&self, values: &[Value]) -> String {
        let mut out = Vec::new();
        self.encode_row(values, &mut out);
        String::from_utf8(out).expect("vartext encoding is UTF-8")
    }

    /// Escape raw field bytes into `out`: the delimiter, quote and
    /// backslash get a backslash prefix, newline becomes `\n` and carriage
    /// return `\r`. String values and the conversion kernel's pre-rendered
    /// field bytes are escaped without an intermediate allocation.
    pub fn escape_bytes_into(&self, bytes: &[u8], out: &mut Vec<u8>) {
        // Copy maximal runs of clean bytes in one shot; fields rarely
        // contain escapable bytes, so the common case is a single memcpy.
        let mut run_start = 0usize;
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            if b == self.delimiter || b == self.quote || b == b'\\' || b == b'\n' || b == b'\r' {
                out.extend_from_slice(&bytes[run_start..i]);
                out.push(b'\\');
                out.push(match b {
                    b'\n' => b'n',
                    b'\r' => b'r',
                    other => other,
                });
                i += 1;
                run_start = i;
            } else {
                i += 1;
            }
        }
        out.extend_from_slice(&bytes[run_start..]);
    }

    /// Decode one vartext line into field values. All non-null fields come
    /// back as [`Value::Str`]; `expected_arity` (when `Some`) enforces the
    /// layout's field count.
    pub fn decode_line(
        &self,
        line: &[u8],
        expected_arity: Option<usize>,
    ) -> Result<Vec<Value>, VartextError> {
        let mut fields: Vec<Value> = Vec::new();
        let mut cur: Vec<u8> = Vec::new();
        let mut quoted_empty = false;
        let mut i = 0usize;
        // Track whether the current field is exactly `""`.
        let mut field_start = 0usize;
        while i < line.len() {
            let b = line[i];
            if b == b'\\' {
                if i + 1 >= line.len() {
                    return Err(VartextError::DanglingEscape);
                }
                let nxt = line[i + 1];
                cur.push(match nxt {
                    b'n' => b'\n',
                    b'r' => b'\r',
                    other => other,
                });
                i += 2;
                continue;
            }
            if b == self.delimiter {
                fields.push(finish_field(cur, quoted_empty)?);
                cur = Vec::new();
                quoted_empty = false;
                i += 1;
                field_start = i;
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
            cur.push(b);
            i += 1;
        }
        fields.push(finish_field(cur, quoted_empty)?);
        if let Some(expected) = expected_arity {
            if fields.len() != expected {
                return Err(VartextError::FieldCount {
                    expected,
                    actual: fields.len(),
                });
            }
        }
        Ok(fields)
    }

    /// Streaming twin of [`decode_line`](Self::decode_line): decode one
    /// line, handing each field to `emit` without allocating. A field
    /// borrows from `line` when it contains no escape sequences and from
    /// `scratch` (reused across fields and calls) when it does. `None` is
    /// NULL (zero-length field); `Some("")` is the quoted empty string.
    ///
    /// Returns the field count; arity enforcement is the caller's job, so
    /// field-level errors (bad UTF-8, dangling escape) keep precedence
    /// over the count check exactly as `decode_line` orders them.
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
            // whole run in a tight scan (the field borrows from `line`).
            i += 1;
            while i < line.len() && line[i] != b'\\' && line[i] != self.delimiter {
                i += 1;
            }
        }
        finish!(line.len());
        Ok(nfields)
    }

    /// Split a byte buffer into lines (handling a trailing line without a
    /// newline) and decode each.
    pub fn decode_lines(
        &self,
        data: &[u8],
        expected_arity: Option<usize>,
    ) -> Result<Vec<Vec<Value>>, VartextError> {
        let mut rows = Vec::new();
        for line in data.split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                continue;
            }
            rows.push(self.decode_line(line, expected_arity)?);
        }
        Ok(rows)
    }
}

fn finish_field(bytes: Vec<u8>, quoted_empty: bool) -> Result<Value, VartextError> {
    if quoted_empty && bytes.is_empty() {
        return Ok(Value::Str(String::new()));
    }
    if bytes.is_empty() {
        return Ok(Value::Null);
    }
    String::from_utf8(bytes)
        .map(Value::Str)
        .map_err(|_| VartextError::BadUtf8)
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

    #[test]
    fn simple_roundtrip() {
        let row = strs(&["123", "Smith", "2012-01-01"]);
        let line = fmt().encode_line(&row);
        assert_eq!(line, "123|Smith|2012-01-01");
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(3)).unwrap(), row);
    }

    #[test]
    fn null_is_empty_field() {
        let row = vec![Value::Str("a".into()), Value::Null, Value::Str("c".into())];
        let line = fmt().encode_line(&row);
        assert_eq!(line, "a||c");
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(3)).unwrap(), row);
    }

    #[test]
    fn empty_string_distinct_from_null() {
        let row = vec![Value::Str(String::new()), Value::Null];
        let line = fmt().encode_line(&row);
        assert_eq!(line, "\"\"|");
        let decoded = fmt().decode_line(line.as_bytes(), Some(2)).unwrap();
        assert_eq!(decoded[0], Value::Str(String::new()));
        assert_eq!(decoded[1], Value::Null);
    }

    #[test]
    fn escaping_roundtrip() {
        let row = strs(&["a|b", "c\\d", "e\"f", "g\nh", "i\rj"]);
        let line = fmt().encode_line(&row);
        assert!(!line.contains('\n'));
        assert_eq!(fmt().decode_line(line.as_bytes(), Some(5)).unwrap(), row);
    }

    #[test]
    fn literal_quotes_inside_field_survive() {
        let row = strs(&["say \"hi\""]);
        let line = fmt().encode_line(&row);
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
        let line = f.encode_line(&row);
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
    fn dangling_escape_rejected() {
        assert!(matches!(
            fmt().decode_line(b"abc\\", Some(1)),
            Err(VartextError::DanglingEscape)
        ));
    }

    /// Run `decode_line_with` and collect into the `decode_line` value
    /// model for direct comparison.
    fn stream_decode(
        f: &VartextFormat,
        line: &[u8],
        expected_arity: Option<usize>,
    ) -> Result<Vec<Value>, VartextError> {
        let mut scratch = Vec::new();
        let mut fields = Vec::new();
        let n = f.decode_line_with(line, &mut scratch, |field| {
            fields.push(match field {
                None => Value::Null,
                Some(s) => Value::Str(s.to_string()),
            });
        })?;
        if let Some(expected) = expected_arity {
            if n != expected {
                return Err(VartextError::FieldCount {
                    expected,
                    actual: n,
                });
            }
        }
        Ok(fields)
    }

    #[test]
    fn streaming_decode_matches_decode_line() {
        let cases: &[&[u8]] = &[
            b"123|Smith|2012-01-01",
            b"a||c",
            b"\"\"|",
            b"a\\|b|c\\\\d|e\\\"f|g\\nh|i\\rj",
            b"say \"hi\"",
            b"",
            b"|",
            b"\"\"",
            b"\"\"x|y",
            b"x\"\"|y",
            b"\\\"\"|tail",
            b"abc\\",
            b"\xff|ok",
            b"ok|\\\xff",
            b"only_one",
        ];
        for f in [fmt(), VartextFormat::with_delimiter(b',')] {
            for &line in cases {
                for arity in [None, Some(1), Some(2), Some(3)] {
                    assert_eq!(
                        stream_decode(&f, line, arity),
                        f.decode_line(line, arity),
                        "line {:?} arity {arity:?}",
                        String::from_utf8_lossy(line)
                    );
                }
            }
        }
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
