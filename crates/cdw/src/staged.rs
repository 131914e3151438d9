//! The staged-file format `COPY INTO` ingests.
//!
//! The virtualizer's DataConverter/FileWriter stages produce delimited text
//! files in this format; `COPY` parses them back into rows. The framing
//! deliberately shares the escaping conventions of the legacy vartext
//! format (a zero-length field is NULL, `""` is the empty string,
//! backslash escapes) — but the *semantics* differ: staged fields are the
//! already-converted, CDW-compatible text renderings of values, one line
//! per row, and files may be LZ-compressed as a whole.

use etlv_protocol::data::Value;
use etlv_protocol::errcode::Cause;
use etlv_protocol::vartext::VartextError::{self, FieldCount};
use etlv_protocol::vartext::VartextFormat;

use crate::error::CdwError;

/// Writer/parser for staged files with a given delimiter.
#[derive(Debug, Clone, Copy)]
pub struct StagedFormat {
    inner: VartextFormat,
}

impl StagedFormat {
    /// New format with `delimiter` (quote is fixed to `"`).
    pub fn new(delimiter: u8) -> StagedFormat {
        StagedFormat {
            inner: VartextFormat::with_delimiter(delimiter),
        }
    }

    /// The delimiter byte.
    pub fn delimiter(&self) -> u8 {
        self.inner.delimiter
    }

    /// The quote byte (fixed at construction).
    pub fn quote(&self) -> u8 {
        self.inner.quote
    }

    /// Append one row to a staged buffer (adds the trailing newline).
    pub fn write_row(&self, values: &[Value], out: &mut Vec<u8>) {
        self.inner.encode_row(values, out);
        out.push(b'\n');
    }

    /// Append one row of pre-rendered text fields (None = NULL). This is
    /// the DataConverter fast path: fields are already escaped-ready text.
    pub fn write_text_row<'a>(
        &self,
        fields: impl Iterator<Item = Option<&'a str>>,
        out: &mut Vec<u8>,
    ) {
        for (i, f) in fields.enumerate() {
            if i > 0 {
                self.push_delimiter(out);
            }
            match f {
                None => {}
                Some("") => self.push_empty(out),
                Some(s) => self.push_escaped(s.as_bytes(), out),
            }
        }
        self.end_row(out);
    }

    /// Append the field delimiter. The streaming writers below let callers
    /// build a staged row field-by-field with zero intermediate
    /// allocation; together they produce byte-identical output to
    /// [`write_row`](Self::write_row) on the equivalent `Value` row.
    pub fn push_delimiter(&self, out: &mut Vec<u8>) {
        out.push(self.inner.delimiter);
    }

    /// Append the quoted-empty marker (`""`) — the staged rendering of an
    /// empty (non-NULL) string. A NULL field appends nothing at all.
    pub fn push_empty(&self, out: &mut Vec<u8>) {
        out.push(self.inner.quote);
        out.push(self.inner.quote);
    }

    /// Append one non-empty field's content, escaping delimiter, quote,
    /// backslash, and CR/LF exactly as [`write_row`](Self::write_row) does.
    pub fn push_escaped(&self, content: &[u8], out: &mut Vec<u8>) {
        self.inner.escape_bytes_into(content, out);
    }

    /// Terminate the current row.
    pub fn end_row(&self, out: &mut Vec<u8>) {
        out.push(b'\n');
    }

    /// Parse a staged buffer into rows of text fields. Each line is
    /// decoded in one streaming pass: a row is allocated at its arity and
    /// each field's string at its exact length.
    pub fn parse(&self, data: &[u8], arity: usize) -> Result<Vec<Vec<Value>>, CdwError> {
        let malformed = |e: VartextError| {
            CdwError::abort(Cause::BadFile, format!("malformed staged file: {e}"))
        };
        let mut rows = Vec::new();
        let mut scratch = Vec::new();
        for line in data.split(|&b| b == b'\n') {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.is_empty() {
                continue;
            }
            let mut row = Vec::with_capacity(arity);
            let push = |f: Option<&str>| row.push(f.map_or(Value::Null, |s| Value::Str(s.into())));
            let fields = self.inner.decode_line_with(line, &mut scratch, push);
            let actual = fields.map_err(malformed)?;
            if actual != arity {
                return Err(malformed(FieldCount {
                    expected: arity,
                    actual,
                }));
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = StagedFormat::new(b'|');
        let mut buf = Vec::new();
        f.write_row(
            &[Value::Int(1), Value::Null, Value::Str("a|b".into())],
            &mut buf,
        );
        f.write_row(
            &[
                Value::Int(2),
                Value::Str(String::new()),
                Value::Str("c".into()),
            ],
            &mut buf,
        );
        let rows = f.parse(&buf, 3).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("1".into())); // text fields come back as text
        assert_eq!(rows[0][1], Value::Null);
        assert_eq!(rows[0][2], Value::Str("a|b".into()));
        assert_eq!(rows[1][1], Value::Str(String::new()));
    }

    #[test]
    fn arity_mismatch_is_bad_file() {
        let f = StagedFormat::new(b'|');
        let err = f.parse(b"a|b\n", 3).unwrap_err();
        assert!(matches!(
            err,
            CdwError::BulkAbort {
                cause: Cause::BadFile,
                ..
            }
        ));
    }

    #[test]
    fn streaming_writers_match_write_row() {
        let f = StagedFormat::new(b'|');
        let row = vec![
            Value::Int(7),
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a|b\\c\"d\ne".into()),
        ];
        let mut via_row = Vec::new();
        f.write_row(&row, &mut via_row);

        let mut via_stream = Vec::new();
        f.push_escaped(b"7", &mut via_stream);
        f.push_delimiter(&mut via_stream);
        // NULL: nothing.
        f.push_delimiter(&mut via_stream);
        f.push_empty(&mut via_stream);
        f.push_delimiter(&mut via_stream);
        f.push_escaped("a|b\\c\"d\ne".as_bytes(), &mut via_stream);
        f.end_row(&mut via_stream);
        assert_eq!(via_row, via_stream);
    }

    #[test]
    fn text_row_fast_path() {
        let f = StagedFormat::new(b',');
        let mut buf = Vec::new();
        f.write_text_row([Some("x"), None, Some("")].into_iter(), &mut buf);
        let rows = f.parse(&buf, 3).unwrap();
        assert_eq!(
            rows[0],
            vec![
                Value::Str("x".into()),
                Value::Null,
                Value::Str(String::new())
            ]
        );
    }
}
