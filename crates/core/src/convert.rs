//! The DataConverter: legacy wire chunks → CDW staged text (paper §4).
//!
//! Conversion covers the discrepancies the paper lists: binary format
//! decoding (endianness, null-indicator bits, packed dates, scaled
//! decimals), null detection, empty-string handling, and escaping. The
//! staged text is vartext: each converted row is its `__SEQ` input row
//! number, then its fields, in [`VartextFormat`]'s encoding with the
//! staging delimiter, ending in `\n`.
//!
//! Per-record *data errors* (wrong field count, invalid UTF-8, malformed
//! values) do not fail the chunk: the offending record is skipped and
//! recorded as an acquisition error, which the job later lands in the ET
//! table — mirroring the legacy per-tuple acquisition semantics.

use etlv_protocol::data::FieldRef;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{RecordDecoder, RecordError};
use etlv_protocol::vartext::{records, VartextError, VartextFormat};

/// An error attached to one input record during acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct AcqError {
    /// 1-based input row number.
    pub seq: u64,
    /// Legacy error code.
    pub code: ErrCode,
    /// Description.
    pub message: String,
}

/// A fatal conversion failure (the chunk framing itself is broken).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertFatal {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ConvertFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conversion failed: {}", self.message)
    }
}

impl std::error::Error for ConvertFatal {}

/// Reusable scratch state for the zero-allocation conversion kernel.
///
/// One instance lives with each converter worker for the life of the
/// pipeline and is reused, so the steady-state convert loop performs no
/// heap allocation (see `tests/alloc_convert.rs`).
#[derive(Debug, Default)]
pub struct ConvertScratch {
    /// Acquisition errors collected by the last [`DataConverter::convert_into`]
    /// call. Allocates only when a record actually fails.
    errors: Vec<AcqError>,
}

impl ConvertScratch {
    /// Fresh scratch state.
    pub fn new() -> ConvertScratch {
        ConvertScratch::default()
    }

    /// Whether the last conversion recorded acquisition errors.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Move collected acquisition errors into `dst`, keeping this
    /// scratch's capacity for reuse.
    pub fn drain_errors_into(&mut self, dst: &mut Vec<AcqError>) {
        dst.append(&mut self.errors);
    }

    /// Take collected acquisition errors as an owned vector.
    pub fn take_errors(&mut self) -> Vec<AcqError> {
        std::mem::take(&mut self.errors)
    }
}

/// Byte classes for the fused vartext scan (`stage_vartext_line`): a byte
/// with class 0 is plain ASCII content that needs neither wire unescaping,
/// staged escaping, nor UTF-8 scrutiny — whole runs of it copy with one
/// `extend_from_slice`.
const CL_WIRE_DELIM: u8 = 1;
const CL_WIRE_ESCAPE: u8 = 2;
const CL_STAGED: u8 = 4;
const CL_HIGH: u8 = 8;

/// Converts chunks of one job's wire format into staged vartext rows.
#[derive(Debug, Clone)]
pub struct DataConverter {
    layout: Layout,
    wire: RecordFormat,
    staged: VartextFormat,
    decoder: RecordDecoder,
    vt_class: [u8; 256],
}

impl DataConverter {
    /// Converter for a job.
    pub fn new(layout: Layout, wire: RecordFormat, staging_delimiter: u8) -> DataConverter {
        let staged = VartextFormat::with_delimiter(staging_delimiter);
        let mut vt_class = [0u8; 256];
        if let RecordFormat::Vartext { delimiter, .. } = wire {
            vt_class[delimiter as usize] |= CL_WIRE_DELIM;
        }
        vt_class[b'\\' as usize] |= CL_WIRE_ESCAPE;
        for b in [staged.delimiter, staged.quote, b'\\', b'\n', b'\r'] {
            vt_class[b as usize] |= CL_STAGED;
        }
        for c in vt_class.iter_mut().skip(0x80) {
            *c |= CL_HIGH;
        }
        DataConverter {
            decoder: RecordDecoder::new(layout.clone()),
            layout,
            wire,
            staged,
            vt_class,
        }
    }

    /// Fused vartext row scanner: splits `line` on the wire delimiter,
    /// undoes wire escapes, and appends the staged-escaped rendering of
    /// every field to `out` — one pass over the input, no intermediate
    /// buffer. Runs of class-0 bytes copy with a single
    /// `extend_from_slice`, and UTF-8 validation only runs for fields
    /// that contained a non-ASCII byte (staged escaping inserts ASCII
    /// only between scalar boundaries, so validating the escaped bytes is
    /// equivalent to validating the raw content).
    ///
    /// Each field is preceded by a staged delimiter (the `__SEQ` column is
    /// already in `out`). Semantics mirror
    /// [`VartextFormat::decode_line_with`] exactly, including error
    /// precedence, without calling it — proven byte-for-byte by
    /// `tests/convert_differential.rs`, whose reference decodes with it.
    fn stage_vartext_line(
        &self,
        delimiter: u8,
        quote: u8,
        line: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, VartextError> {
        let class = &self.vt_class;
        // The reference decoder checks backslash, then delimiter, then
        // quote — so a quote that collides with either never starts a
        // quoted-empty field.
        let probe_quote = quote != delimiter && quote != b'\\';
        let mut nfields = 0usize;
        let mut i = 0usize;
        loop {
            out.push(self.staged.delimiter);
            if probe_quote
                && i + 1 < line.len()
                && line[i] == quote
                && line[i + 1] == quote
                && (i + 2 == line.len() || line[i + 2] == delimiter)
            {
                out.extend_from_slice(&[self.staged.quote; 2]);
                i += 2;
            } else {
                let field_start = i;
                let check_start = out.len();
                let mut run_start = i;
                let mut saw_high = false;
                loop {
                    while i < line.len() && class[line[i] as usize] == 0 {
                        i += 1;
                    }
                    if i >= line.len() {
                        out.extend_from_slice(&line[run_start..i]);
                        break;
                    }
                    let b = line[i];
                    let c = class[b as usize];
                    if c & CL_WIRE_ESCAPE != 0 {
                        if i + 1 >= line.len() {
                            return Err(VartextError::DanglingEscape);
                        }
                        out.extend_from_slice(&line[run_start..i]);
                        let u = match line[i + 1] {
                            b'n' => b'\n',
                            b'r' => b'\r',
                            other => other,
                        };
                        if class[u as usize] & CL_STAGED != 0 {
                            out.push(b'\\');
                            out.push(match u {
                                b'\n' => b'n',
                                b'\r' => b'r',
                                other => other,
                            });
                        } else {
                            saw_high |= class[u as usize] & CL_HIGH != 0;
                            out.push(u);
                        }
                        i += 2;
                        run_start = i;
                        continue;
                    }
                    if c & CL_WIRE_DELIM != 0 {
                        out.extend_from_slice(&line[run_start..i]);
                        break;
                    }
                    if c & CL_STAGED != 0 {
                        out.extend_from_slice(&line[run_start..i]);
                        out.push(b'\\');
                        out.push(match b {
                            b'\n' => b'n',
                            b'\r' => b'r',
                            other => other,
                        });
                        i += 1;
                        run_start = i;
                        continue;
                    }
                    // Non-ASCII content byte: stays in the run, but the
                    // field needs UTF-8 validation when it closes.
                    saw_high = true;
                    i += 1;
                }
                // A zero-length field is NULL (nothing emitted at all);
                // anything else must be valid UTF-8.
                if i != field_start && saw_high && std::str::from_utf8(&out[check_start..]).is_err()
                {
                    return Err(VartextError::BadUtf8);
                }
            }
            nfields += 1;
            if i >= line.len() {
                return Ok(nfields);
            }
            i += 1; // consume the wire delimiter
        }
    }

    /// Convert one raw chunk, appending staged text to `out` and reusing
    /// `scratch` across calls — the zero-allocation streaming kernel.
    ///
    /// Wire records are decoded directly from `data` (borrowed fields, no
    /// intermediate `Vec<Value>` row) and field text is rendered straight
    /// into `out`; the only heap traffic in the steady state is amortized
    /// buffer growth. Output bytes, row counts, acquisition errors and
    /// fatal errors are byte-for-byte identical to the materializing
    /// reference path kept in `tests/convert_differential.rs`, which
    /// proves it.
    ///
    /// On `Err`, the contents of `out` are unspecified; callers recycle
    /// the buffer. Acquisition errors land in `scratch` (cleared on
    /// entry); drain them with [`ConvertScratch::drain_errors_into`].
    pub fn convert_into(
        &self,
        base_seq: u64,
        data: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut ConvertScratch,
    ) -> Result<u32, ConvertFatal> {
        let errors = &mut scratch.errors;
        errors.clear();
        out.reserve(data.len() + data.len() / 8 + 64);
        let mut rows = 0u32;
        match self.wire {
            RecordFormat::Vartext { delimiter, quote } => {
                let arity = self.layout.arity();
                for (seq, line) in (base_seq..).zip(records(data)) {
                    let row_start = out.len();
                    self.staged.encode_field(FieldRef::Int(seq as i64), out);
                    let res = self
                        .stage_vartext_line(delimiter, quote, line, out)
                        .and_then(|actual| {
                            if actual != arity {
                                Err(VartextError::FieldCount {
                                    expected: arity,
                                    actual,
                                })
                            } else {
                                Ok(())
                            }
                        });
                    match res {
                        Ok(()) => {
                            out.push(b'\n');
                            rows += 1;
                        }
                        Err(e) => {
                            out.truncate(row_start);
                            errors.push(AcqError {
                                seq,
                                code: e.code(),
                                message: e.to_string(),
                            });
                        }
                    }
                }
            }
            RecordFormat::Binary => {
                let mut buf: &[u8] = data;
                let mut seq = base_seq;
                while !buf.is_empty() {
                    let row_start = out.len();
                    self.staged.encode_field(FieldRef::Int(seq as i64), out);
                    let res = self.decoder.decode_record_with(&mut buf, |f| {
                        out.push(self.staged.delimiter);
                        self.staged.encode_field(f, out);
                    });
                    match res {
                        Ok(()) => {
                            out.push(b'\n');
                            rows += 1;
                        }
                        Err(RecordError::BadValue(msg)) => {
                            // Same rationale as the reference path: BadValue
                            // can leave `buf` unadvanced mid-record, so
                            // resynchronization is unsafe — fatal.
                            out.truncate(row_start);
                            return Err(ConvertFatal {
                                message: format!("bad value in binary record {seq}: {msg}"),
                            });
                        }
                        Err(e) => {
                            out.truncate(row_start);
                            return Err(ConvertFatal {
                                message: format!(
                                    "binary chunk framing broken at record {seq}: {e}"
                                ),
                            });
                        }
                    }
                    seq += 1;
                }
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::data::{Date, Decimal, LegacyType as T, Value};
    use etlv_protocol::record::RecordEncoder;

    const WIRE_VT: RecordFormat = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };

    fn vt_layout() -> Layout {
        Layout::new("L")
            .field("A", T::VarChar(5))
            .field("B", T::VarChar(50))
            .field("C", T::VarChar(10))
    }

    /// One chunk through the kernel with fresh buffers: rows converted,
    /// staged bytes, acquisition errors.
    fn convert(
        conv: &DataConverter,
        base_seq: u64,
        data: &[u8],
    ) -> Result<(u32, Vec<u8>, Vec<AcqError>), ConvertFatal> {
        let mut out = Vec::new();
        let mut scratch = ConvertScratch::new();
        let rows = conv.convert_into(base_seq, data, &mut out, &mut scratch)?;
        Ok((rows, out, scratch.take_errors()))
    }

    #[test]
    fn vartext_conversion_prefixes_seq() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let (rows, bytes, errors) = convert(&conv, 11, b"x|y|z\na||c\n").unwrap();
        assert_eq!(rows, 2);
        assert!(errors.is_empty());
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "11|x|y|z\n12|a||c\n");
    }

    #[test]
    fn field_count_errors_skipped_not_fatal() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let (rows, bytes, errors) = convert(&conv, 1, b"a|b|c\nwrong|count\nd|e|f\n").unwrap();
        assert_eq!(rows, 2);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].seq, 2);
        assert_eq!(errors[0].code, ErrCode::FIELD_COUNT);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "1|a|b|c\n3|d|e|f\n");
    }

    #[test]
    fn binary_conversion_renders_cdw_text() {
        let layout = Layout::new("L")
            .field("I", T::Integer)
            .field("D", T::Date)
            .field("DEC", T::Decimal(10, 2))
            .field("S", T::VarChar(10));
        let enc = RecordEncoder::new(layout.clone());
        let rows = vec![
            vec![
                Value::Int(42),
                Value::Date(Date::new(2012, 1, 5).unwrap()),
                Value::Decimal(Decimal::parse("3.50").unwrap()),
                Value::Str("hi|there".into()),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Str(String::new()),
            ],
        ];
        let data = enc.encode_batch(&rows).unwrap();
        let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
        let (rows, bytes, _) = convert(&conv, 7, &data).unwrap();
        assert_eq!(rows, 2);
        let text = String::from_utf8(bytes).unwrap();
        // Dates become ISO, decimals keep scale, delimiter escaped, nulls
        // empty, empty string quoted.
        assert_eq!(text, "7|42|2012-01-05|3.50|hi\\|there\n8||||\"\"\n");
    }

    #[test]
    fn binary_framing_error_is_fatal() {
        let layout = Layout::new("L").field("I", T::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let mut data = enc.encode_batch(&[vec![Value::Int(1)]]).unwrap();
        data.pop();
        let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
        assert!(convert(&conv, 1, &data).is_err());
    }

    #[test]
    fn staged_output_parses_back() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let (_, bytes, _) = convert(&conv, 1, b"a|b|c\n\"\"||z\n").unwrap();
        let rows = VartextFormat::with_delimiter(b'|')
            .decode_lines(&bytes, Some(4))
            .unwrap();
        assert_eq!(rows[0][0], Value::Str("1".into()));
        assert_eq!(rows[1][1], Value::Str(String::new())); // empty string preserved
        assert_eq!(rows[1][2], Value::Null); // null preserved
    }
}
