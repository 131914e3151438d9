//! The legacy *binary* record format.
//!
//! Data chunks in `format binary` import jobs carry records encoded as:
//!
//! ```text
//! +------------+------------------+----------------------------+
//! | record_len | null indicators  | field data (non-null only) |
//! |    u16     | ceil(nfields/8)  |   per-type encodings       |
//! +------------+------------------+----------------------------+
//! ```
//!
//! `record_len` counts the indicator and data bytes (not itself). A set bit
//! in the indicator area (MSB-first within each byte, field 0 = bit 7 of
//! byte 0) marks the field NULL, and the field contributes no data bytes.
//!
//! Per-type encodings are little-endian: `BYTEINT` 1 byte, `SMALLINT` 2,
//! `INTEGER`/`DATE` 4 (dates use the packed legacy integer), `BIGINT`,
//! `FLOAT` and `TIMESTAMP` 8, `DECIMAL` 16 (unscaled `i128`; scale comes
//! from the layout), `CHAR(n)` exactly `n` bytes space padded, and
//! `VARCHAR`/`VARBYTE` a `u16` length prefix plus the bytes.
//!
//! This is exactly the kind of format the virtualizer must convert away
//! from: the CDW cannot ingest it, so every chunk passes through a
//! `DataConverter`.

use bytes::{Buf, BufMut};

use crate::data::{Date, Decimal, FieldRef, LegacyType, Timestamp, Value, ValueError};
use crate::frame::FrameError;
use crate::layout::Layout;
use crate::message::RecordFormat;
use crate::vartext::VartextFormat;

/// Encode result rows in a wire [`RecordFormat`] — the shared path for
/// export chunks and SQL result conversion back to legacy clients.
pub fn encode_rows(
    layout: &Layout,
    format: RecordFormat,
    rows: &[Vec<Value>],
) -> Result<Vec<u8>, RecordError> {
    let mut out = Vec::new();
    encode_rows_into(layout, format, rows, &mut out)?;
    Ok(out)
}

/// [`encode_rows`], appending to `out`. The buffer is sized before the
/// bulk of the rows is written: a binary chunk from the layout's record
/// width, a vartext chunk from the length of its first rows, with an
/// eighth to spare, so a chunk of rows of like length grows `out` once.
pub fn encode_rows_into(
    layout: &Layout,
    format: RecordFormat,
    rows: &[Vec<Value>],
    out: &mut Vec<u8>,
) -> Result<(), RecordError> {
    match format {
        RecordFormat::Binary => {
            out.reserve(rows.len() * (layout.max_record_len() / 2).max(16));
            for row in rows {
                encode_record(layout, row, out)?;
            }
        }
        RecordFormat::Vartext { delimiter, quote } => {
            /// Rows encoded before the rest are sized from them.
            const SAMPLE_ROWS: usize = 8;
            let f = VartextFormat { delimiter, quote };
            let encode = |rows: &[Vec<Value>], out: &mut Vec<u8>| {
                for row in rows {
                    f.encode_row(row, out);
                    out.push(b'\n');
                }
            };
            let (sample, rest) = rows.split_at(rows.len().min(SAMPLE_ROWS));
            let start = out.len();
            encode(sample, out);
            if !rest.is_empty() {
                let want = (out.len() - start).div_ceil(sample.len()) * rest.len();
                out.reserve(want + want / 8);
            }
            encode(rest, out);
        }
    }
    Ok(())
}

/// Error raised while decoding a record or encoding a value.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The byte stream ended mid-record.
    Truncated,
    /// A declared length disagrees with the actual bytes.
    LengthMismatch { declared: usize, actual: usize },
    /// A value does not conform to its declared field type.
    BadValue(String),
    /// Too many fields for the indicator area (layout arity > 65535).
    TooManyFields,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "record length mismatch: declared {declared}, actual {actual}"
                )
            }
            RecordError::BadValue(msg) => write!(f, "bad value: {msg}"),
            RecordError::TooManyFields => write!(f, "too many fields"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<ValueError> for RecordError {
    fn from(e: ValueError) -> RecordError {
        RecordError::BadValue(e.reason)
    }
}

impl From<RecordError> for FrameError {
    fn from(_: RecordError) -> FrameError {
        FrameError::Malformed("bad record encoding")
    }
}

/// Encodes rows of [`Value`]s into the legacy binary record format.
#[derive(Debug, Clone)]
pub struct RecordEncoder {
    layout: Layout,
}

impl RecordEncoder {
    /// Create an encoder for `layout`.
    pub fn new(layout: Layout) -> RecordEncoder {
        RecordEncoder { layout }
    }

    /// The layout this encoder uses.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Encode one record, appending to `out`. Values are coerced to their
    /// declared field types first; coercion failure is an error (the legacy
    /// client validated what it put on the wire).
    pub fn encode_record(&self, values: &[Value], out: &mut Vec<u8>) -> Result<(), RecordError> {
        encode_record(&self.layout, values, out)
    }

    /// Encode a batch of records into a fresh buffer.
    pub fn encode_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<u8>, RecordError> {
        encode_rows(&self.layout, RecordFormat::Binary, rows)
    }
}

/// The binary record encoder behind [`RecordEncoder::encode_record`].
fn encode_record(layout: &Layout, values: &[Value], out: &mut Vec<u8>) -> Result<(), RecordError> {
    if values.len() != layout.arity() {
        return Err(RecordError::LengthMismatch {
            declared: layout.arity(),
            actual: values.len(),
        });
    }
    let len_pos = out.len();
    out.put_u16_le(0); // patched below
    let body_start = out.len();

    let ind_bytes = layout.indicator_bytes();
    let ind_pos = out.len();
    out.resize(out.len() + ind_bytes, 0);

    for (i, (value, field)) in values.iter().zip(&layout.fields).enumerate() {
        if value.is_null() {
            out[ind_pos + i / 8] |= 0x80 >> (i % 8);
            continue;
        }
        let coerced = value.clone().coerce_to(field.ty)?;
        encode_value(&coerced, field.ty, out)?;
    }

    let body_len = out.len() - body_start;
    if body_len > u16::MAX as usize {
        return Err(RecordError::TooManyFields);
    }
    out[len_pos..len_pos + 2].copy_from_slice(&(body_len as u16).to_le_bytes());
    Ok(())
}

fn encode_value(value: &Value, ty: LegacyType, out: &mut Vec<u8>) -> Result<(), RecordError> {
    match (ty, value) {
        (LegacyType::ByteInt, Value::Int(v)) => out.put_i8(*v as i8),
        (LegacyType::SmallInt, Value::Int(v)) => out.put_i16_le(*v as i16),
        (LegacyType::Integer, Value::Int(v)) => out.put_i32_le(*v as i32),
        (LegacyType::BigInt, Value::Int(v)) => out.put_i64_le(*v),
        (LegacyType::Float, Value::Float(v)) => out.put_f64_le(*v),
        (LegacyType::Decimal(_, _), Value::Decimal(d)) => {
            out.put_i128_le(d.unscaled());
        }
        (LegacyType::Date, Value::Date(d)) => out.put_i32_le(d.to_legacy_int()),
        (LegacyType::Timestamp, Value::Timestamp(ts)) => out.put_i64_le(ts.micros()),
        (LegacyType::Char(n), Value::Str(s)) => {
            debug_assert_eq!(s.len(), n as usize, "CHAR must be pre-padded by coercion");
            out.put_slice(s.as_bytes());
        }
        (LegacyType::VarChar(_), Value::Str(s))
        | (LegacyType::VarCharUnicode(_), Value::Str(s)) => {
            out.put_u16_le(s.len() as u16);
            out.put_slice(s.as_bytes());
        }
        (LegacyType::VarByte(_), Value::Bytes(b)) => {
            out.put_u16_le(b.len() as u16);
            out.put_slice(b);
        }
        (ty, v) => {
            return Err(RecordError::BadValue(format!(
                "value {} does not match field type {ty}",
                v.type_name()
            )))
        }
    }
    Ok(())
}

/// Decodes legacy binary records back into [`Value`] rows.
#[derive(Debug, Clone)]
pub struct RecordDecoder {
    layout: Layout,
}

impl RecordDecoder {
    /// Create a decoder for `layout`.
    pub fn new(layout: Layout) -> RecordDecoder {
        RecordDecoder { layout }
    }

    /// The layout this decoder uses.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Decode one record from the front of `buf`, advancing it: the
    /// fields [`decode_record_with`](Self::decode_record_with) hands out,
    /// as owned values.
    pub fn decode_record(&self, buf: &mut &[u8]) -> Result<Vec<Value>, RecordError> {
        let mut values = Vec::with_capacity(self.layout.arity());
        self.decode_record_with(buf, |f| values.push(f.into()))?;
        Ok(values)
    }

    /// The binary record decoder: take one record off the front of `buf`
    /// ([`take_record`]) and hand each field to `emit` as a [`FieldRef`]
    /// that borrows from the record body, with no per-field allocation.
    /// `buf` advances past the whole record before any field is decoded;
    /// `emit` may have seen a prefix of the fields when an error is
    /// returned.
    pub fn decode_record_with<'a>(
        &self,
        buf: &mut &'a [u8],
        mut emit: impl FnMut(FieldRef<'a>),
    ) -> Result<(), RecordError> {
        let record = take_record(buf)?;
        let ind_bytes = self.layout.indicator_bytes();
        if record.len() < ind_bytes {
            return Err(RecordError::Truncated);
        }
        let (indicators, mut body) = record.split_at(ind_bytes);
        for (i, field) in self.layout.fields.iter().enumerate() {
            if indicators[i / 8] & (0x80 >> (i % 8)) != 0 {
                emit(FieldRef::Null);
                continue;
            }
            emit(decode_field_ref(field.ty, &mut body)?);
        }
        if body.has_remaining() {
            return Err(RecordError::LengthMismatch {
                declared: record.len(),
                actual: record.len() - body.remaining(),
            });
        }
        Ok(())
    }

    /// Decode every record in `data`.
    pub fn decode_batch(&self, data: &[u8]) -> Result<Vec<Vec<Value>>, RecordError> {
        let mut buf = data;
        let mut rows = Vec::new();
        while !buf.is_empty() {
            rows.push(self.decode_record(&mut buf)?);
        }
        Ok(rows)
    }
}

/// The binary framing rule: take one whole record off the front of `buf`
/// and return its body (indicator and field bytes, without the `u16`
/// length prefix), or [`RecordError::Truncated`] when the buffer ends
/// first, leaving `buf` as it was.
pub fn take_record<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], RecordError> {
    let whole: &'a [u8] = buf;
    if whole.len() < 2 {
        return Err(RecordError::Truncated);
    }
    let body_len = u16::from_le_bytes([whole[0], whole[1]]) as usize;
    if whole.len() - 2 < body_len {
        return Err(RecordError::Truncated);
    }
    let (body, rest) = whole[2..].split_at(body_len);
    *buf = rest;
    Ok(body)
}

/// The binary field decoder: read one non-NULL field of type `ty` off the
/// front of `body`. Variable-width fields stay slices of the record body.
fn decode_field_ref<'a>(ty: LegacyType, body: &mut &'a [u8]) -> Result<FieldRef<'a>, RecordError> {
    macro_rules! need {
        ($n:expr) => {
            if body.remaining() < $n {
                return Err(RecordError::Truncated);
            }
        };
    }
    fn take<'a>(body: &mut &'a [u8], n: usize) -> &'a [u8] {
        let s: &'a [u8] = body;
        let (bytes, rest) = s.split_at(n);
        *body = rest;
        bytes
    }
    Ok(match ty {
        LegacyType::ByteInt => {
            need!(1);
            FieldRef::Int(body.get_i8() as i64)
        }
        LegacyType::SmallInt => {
            need!(2);
            FieldRef::Int(body.get_i16_le() as i64)
        }
        LegacyType::Integer => {
            need!(4);
            FieldRef::Int(body.get_i32_le() as i64)
        }
        LegacyType::BigInt => {
            need!(8);
            FieldRef::Int(body.get_i64_le())
        }
        LegacyType::Float => {
            need!(8);
            FieldRef::Float(body.get_f64_le())
        }
        LegacyType::Decimal(_, s) => {
            need!(16);
            FieldRef::Decimal(Decimal::new(body.get_i128_le(), s))
        }
        LegacyType::Date => {
            need!(4);
            let raw = body.get_i32_le();
            FieldRef::Date(
                Date::from_legacy_int(raw).map_err(|e| RecordError::BadValue(e.to_string()))?,
            )
        }
        LegacyType::Timestamp => {
            need!(8);
            FieldRef::Timestamp(Timestamp::from_micros(body.get_i64_le()))
        }
        LegacyType::Char(n) => {
            need!(n as usize);
            let bytes = take(body, n as usize);
            FieldRef::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| RecordError::BadValue("CHAR field is not UTF-8".into()))?,
            )
        }
        LegacyType::VarChar(max) | LegacyType::VarCharUnicode(max) => {
            need!(2);
            let len = body.get_u16_le() as usize;
            if len > max as usize {
                return Err(RecordError::BadValue(format!(
                    "VARCHAR length {len} exceeds declared {max}"
                )));
            }
            need!(len);
            let bytes = take(body, len);
            FieldRef::Str(
                std::str::from_utf8(bytes)
                    .map_err(|_| RecordError::BadValue("VARCHAR field is not UTF-8".into()))?,
            )
        }
        LegacyType::VarByte(max) => {
            need!(2);
            let len = body.get_u16_le() as usize;
            if len > max as usize {
                return Err(RecordError::BadValue(format!(
                    "VARBYTE length {len} exceeds declared {max}"
                )));
            }
            need!(len);
            FieldRef::Bytes(take(body, len))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LegacyType as T;

    fn full_layout() -> Layout {
        Layout::new("L")
            .field("BI", T::ByteInt)
            .field("SI", T::SmallInt)
            .field("I", T::Integer)
            .field("B", T::BigInt)
            .field("F", T::Float)
            .field("DEC", T::Decimal(10, 2))
            .field("C", T::Char(4))
            .field("VC", T::VarChar(20))
            .field("D", T::Date)
            .field("TS", T::Timestamp)
            .field("VB", T::VarByte(8))
    }

    fn sample_row() -> Vec<Value> {
        vec![
            Value::Int(-5),
            Value::Int(1234),
            Value::Int(-100_000),
            Value::Int(1 << 40),
            Value::Float(2.5),
            Value::Decimal(Decimal::parse("123.45").unwrap()),
            Value::Str("ab".into()),
            Value::Str("hello".into()),
            Value::Date(Date::new(2012, 1, 1).unwrap()),
            Value::Timestamp(Timestamp::parse("2020-06-01 10:20:30").unwrap()),
            Value::Bytes(vec![1, 2, 3]),
        ]
    }

    #[test]
    fn roundtrip_all_types() {
        let layout = full_layout();
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout);
        let mut buf = Vec::new();
        enc.encode_record(&sample_row(), &mut buf).unwrap();
        let mut slice = buf.as_slice();
        let out = dec.decode_record(&mut slice).unwrap();
        assert!(slice.is_empty());
        // CHAR comes back space padded.
        assert_eq!(out[6], Value::Str("ab  ".into()));
        let mut expected = sample_row();
        expected[6] = Value::Str("ab  ".into());
        assert_eq!(out, expected);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let layout = full_layout();
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout.clone());
        let row: Vec<Value> = vec![Value::Null; layout.arity()];
        let mut buf = Vec::new();
        enc.encode_record(&row, &mut buf).unwrap();
        // All-null record: 2-byte len + 2 indicator bytes only.
        assert_eq!(buf.len(), 2 + layout.indicator_bytes());
        let out = dec.decode_batch(&buf).unwrap();
        assert_eq!(out, vec![row]);
    }

    #[test]
    fn mixed_nulls_omit_data() {
        let layout = Layout::new("L")
            .field("A", T::Integer)
            .field("B", T::VarChar(10))
            .field("C", T::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout);
        let row = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let mut buf = Vec::new();
        enc.encode_record(&row, &mut buf).unwrap();
        // len(2) + ind(1) + int(4) + int(4): the null VARCHAR adds nothing.
        assert_eq!(buf.len(), 2 + 1 + 4 + 4);
        assert_eq!(dec.decode_batch(&buf).unwrap(), vec![row]);
    }

    #[test]
    fn batch_roundtrip() {
        let layout = Layout::new("L")
            .field("A", T::Integer)
            .field("B", T::VarChar(10));
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout);
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Str(format!("row{i}"))])
            .collect();
        let buf = enc.encode_batch(&rows).unwrap();
        assert_eq!(dec.decode_batch(&buf).unwrap(), rows);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let layout = Layout::new("L").field("A", T::Integer);
        let enc = RecordEncoder::new(layout);
        let mut buf = Vec::new();
        assert!(matches!(
            enc.encode_record(&[Value::Int(1), Value::Int(2)], &mut buf),
            Err(RecordError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncated_record_detected() {
        let layout = Layout::new("L").field("A", T::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout);
        let mut buf = Vec::new();
        enc.encode_record(&[Value::Int(42)], &mut buf).unwrap();
        for cut in [1, 3, buf.len() - 1] {
            let mut slice = &buf[..cut];
            assert!(dec.decode_record(&mut slice).is_err(), "cut at {cut}");
        }
        assert!(dec.decode_batch(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn varchar_length_guard() {
        // Hand-craft a record whose VARCHAR length prefix exceeds the max.
        let layout = Layout::new("L").field("A", T::VarChar(3));
        let dec = RecordDecoder::new(layout);
        let mut buf: Vec<u8> = Vec::new();
        let body: &[u8] = &[0u8, 10, 0, b'x', b'y']; // ind + len=10
        buf.put_u16_le(body.len() as u16);
        buf.extend_from_slice(body);
        let mut slice = buf.as_slice();
        assert!(matches!(
            dec.decode_record(&mut slice),
            Err(RecordError::BadValue(_))
        ));
    }

    #[test]
    fn empty_varbyte_exports_as_non_null_vartext() {
        let layout = Layout::new("L")
            .field("B", T::VarByte(4))
            .field("N", T::VarByte(4));
        let format = RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        };
        let out = encode_rows(&layout, format, &[vec![Value::Bytes(vec![]), Value::Null]]).unwrap();
        assert_eq!(out, b"\"\"|\n");
        let rows = VartextFormat::default()
            .decode_lines(&out, Some(2))
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Str(String::new()), Value::Null]]);
    }

    #[test]
    fn encoder_coerces_strings_to_field_types() {
        // The legacy client sends whatever the script layout declares; text
        // fields holding numbers stay text, but an INTEGER field fed a
        // numeric string is coerced.
        let layout = Layout::new("L").field("A", T::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let dec = RecordDecoder::new(layout);
        let mut buf = Vec::new();
        enc.encode_record(&[Value::Str("17".into())], &mut buf)
            .unwrap();
        assert_eq!(dec.decode_batch(&buf).unwrap()[0][0], Value::Int(17));
        // Non-numeric text in an INTEGER field is a client-side error.
        let mut buf = Vec::new();
        assert!(enc
            .encode_record(&[Value::Str("xx".into())], &mut buf)
            .is_err());
    }
}
