//! Differential property tests for the zero-allocation conversion kernel.
//!
//! The streaming kernel (`DataConverter::convert_into`) must be
//! observationally identical to the naive implementation kept here
//! (`convert_reference`): byte-identical staged output, identical row
//! counts, identical `AcqError` sequences, and identical fatal errors —
//! for arbitrary layouts, null patterns, malformed records, and corrupted
//! chunk framing.
//!
//! The reference decodes vartext with `VartextFormat::decode_line`, a
//! collector over `decode_line_with`, which the kernel's fused scan does
//! not call: the two decoders are written independently. Binary records
//! and field text go through a decoder and a renderer frozen in this file
//! (`reference_decode_record`, `reference_display_text`), so the kernel
//! and the reference share no binary decode or render code.

use bytes::Buf;
use proptest::prelude::*;

use etlv_core::convert::{AcqError, ConvertFatal, ConvertScratch, DataConverter};
use etlv_protocol::data::{Date, Decimal, LegacyType, Timestamp, Value};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{RecordEncoder, RecordError};
use etlv_protocol::vartext::{records, VartextFormat};

/// Output of converting one chunk.
#[derive(Debug, Clone, PartialEq)]
struct ConvertedChunk {
    /// 1-based row number of the first input record.
    pub base_seq: u64,
    /// Rows successfully converted.
    pub rows: u32,
    /// Staged bytes (delimited text, `__SEQ` first).
    pub bytes: Vec<u8>,
    /// Records skipped with data errors.
    pub errors: Vec<AcqError>,
}

/// Convert one raw chunk into a fresh buffer.
fn convert(
    conv: &DataConverter,
    base_seq: u64,
    data: &[u8],
) -> Result<ConvertedChunk, ConvertFatal> {
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    let rows = conv.convert_into(base_seq, data, &mut out, &mut scratch)?;
    Ok(ConvertedChunk {
        base_seq,
        rows,
        bytes: out,
        errors: scratch.take_errors(),
    })
}

/// The original materializing conversion path, retained as the
/// reference implementation for differential tests: every record is
/// decoded into an owned `Vec<Value>` row and rendered by
/// [`write_staged_row`]. Must stay semantically frozen so `convert_into`
/// can be proven byte-identical against it.
fn convert_reference(
    layout: &Layout,
    wire: RecordFormat,
    staged: &VartextFormat,
    base_seq: u64,
    data: &[u8],
) -> Result<ConvertedChunk, ConvertFatal> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 8 + 64);
    let mut errors = Vec::new();
    let mut rows = 0u32;
    match wire {
        RecordFormat::Vartext { delimiter, quote } => {
            let vt = VartextFormat { delimiter, quote };
            let arity = layout.arity();
            for (seq, line) in (base_seq..).zip(records(data)) {
                match vt.decode_line(line, Some(arity)) {
                    Ok(fields) => {
                        write_staged_row(staged, seq, &fields, &mut out);
                        rows += 1;
                    }
                    Err(e) => {
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
                match reference_decode_record(layout, &mut buf) {
                    Ok(values) => {
                        write_staged_row(staged, seq, &values, &mut out);
                        rows += 1;
                    }
                    Err(RecordError::BadValue(msg)) => {
                        // The framing advanced past the record; the
                        // value inside was bad. Record and continue...
                        // except BadValue can also leave `buf`
                        // unadvanced mid-record, so resynchronization
                        // is unsafe: treat as fatal.
                        return Err(ConvertFatal {
                            message: format!("bad value in binary record {seq}: {msg}"),
                        });
                    }
                    Err(e) => {
                        return Err(ConvertFatal {
                            message: format!("binary chunk framing broken at record {seq}: {e}"),
                        })
                    }
                }
                seq += 1;
            }
        }
    }
    Ok(ConvertedChunk {
        base_seq,
        rows,
        bytes: out,
        errors,
    })
}

/// Serialize one converted row: `__SEQ` plus the CDW text rendering of
/// each field (nulls as empty fields, empty strings quoted, special
/// characters escaped).
///
/// Deliberately frozen as the pre-kernel implementation, including an
/// inlined copy of the original per-byte escape loop: the reference
/// path must not share optimized primitives with the streaming kernel,
/// both so differential tests compare independently-written code and
/// so benchmarks measure the kernel against the true pre-change hot
/// path.
fn write_staged_row(staged: &VartextFormat, seq: u64, values: &[Value], out: &mut Vec<u8>) {
    let mut row: Vec<Value> = Vec::with_capacity(values.len() + 1);
    row.push(Value::Int(seq as i64));
    for v in values {
        // The staged format stores text renderings; conversion to the
        // CDW value model happens at COPY against the staging schema.
        row.push(match v {
            Value::Null => Value::Null,
            Value::Str(s) => Value::Str(s.clone()),
            other => Value::Str(reference_display_text(other)),
        });
    }
    let (delimiter, quote) = (staged.delimiter, staged.quote);
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(delimiter);
        }
        match v {
            Value::Null => {}
            Value::Str(s) if s.is_empty() => {
                out.push(quote);
                out.push(quote);
            }
            other => {
                for &b in reference_display_text(other).as_bytes() {
                    if b == delimiter || b == quote || b == b'\\' || b == b'\n' || b == b'\r' {
                        out.push(b'\\');
                        if b == b'\n' {
                            out.push(b'n');
                            continue;
                        }
                        if b == b'\r' {
                            out.push(b'r');
                            continue;
                        }
                    }
                    out.push(b);
                }
            }
        }
    }
    out.push(b'\n');
}

/// One binary record decoded into owned values: the record decoder as it
/// was before the kernel's borrowed-field decoder became the only one,
/// kept frozen as the reference's own.
fn reference_decode_record(layout: &Layout, buf: &mut &[u8]) -> Result<Vec<Value>, RecordError> {
    if buf.remaining() < 2 {
        return Err(RecordError::Truncated);
    }
    let body_len = buf.get_u16_le() as usize;
    if buf.remaining() < body_len {
        return Err(RecordError::Truncated);
    }
    let (mut body, rest) = buf.split_at(body_len);
    *buf = rest;

    let ind_bytes = layout.indicator_bytes();
    if body.len() < ind_bytes {
        return Err(RecordError::Truncated);
    }
    let indicators = &body[..ind_bytes].to_vec();
    body.advance(ind_bytes);

    let mut values = Vec::with_capacity(layout.arity());
    for (i, field) in layout.fields.iter().enumerate() {
        let is_null = indicators[i / 8] & (0x80 >> (i % 8)) != 0;
        if is_null {
            values.push(Value::Null);
            continue;
        }
        values.push(reference_decode_value(field.ty, &mut body)?);
    }
    if body.has_remaining() {
        return Err(RecordError::LengthMismatch {
            declared: body_len,
            actual: body_len - body.remaining(),
        });
    }
    Ok(values)
}

/// One non-NULL binary field as an owned value (frozen, as above).
fn reference_decode_value(ty: LegacyType, body: &mut &[u8]) -> Result<Value, RecordError> {
    macro_rules! need {
        ($n:expr) => {
            if body.remaining() < $n {
                return Err(RecordError::Truncated);
            }
        };
    }
    Ok(match ty {
        LegacyType::ByteInt => {
            need!(1);
            Value::Int(body.get_i8() as i64)
        }
        LegacyType::SmallInt => {
            need!(2);
            Value::Int(body.get_i16_le() as i64)
        }
        LegacyType::Integer => {
            need!(4);
            Value::Int(body.get_i32_le() as i64)
        }
        LegacyType::BigInt => {
            need!(8);
            Value::Int(body.get_i64_le())
        }
        LegacyType::Float => {
            need!(8);
            Value::Float(body.get_f64_le())
        }
        LegacyType::Decimal(_, s) => {
            need!(16);
            Value::Decimal(Decimal::new(body.get_i128_le(), s))
        }
        LegacyType::Date => {
            need!(4);
            let raw = body.get_i32_le();
            Value::Date(
                Date::from_legacy_int(raw).map_err(|e| RecordError::BadValue(e.to_string()))?,
            )
        }
        LegacyType::Timestamp => {
            need!(8);
            Value::Timestamp(Timestamp::from_micros(body.get_i64_le()))
        }
        LegacyType::Char(n) => {
            need!(n as usize);
            let mut bytes = vec![0u8; n as usize];
            body.copy_to_slice(&mut bytes);
            let s = String::from_utf8(bytes)
                .map_err(|_| RecordError::BadValue("CHAR field is not UTF-8".into()))?;
            Value::Str(s)
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
            let mut bytes = vec![0u8; len];
            body.copy_to_slice(&mut bytes);
            let s = String::from_utf8(bytes)
                .map_err(|_| RecordError::BadValue("VARCHAR field is not UTF-8".into()))?;
            Value::Str(s)
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
            let mut bytes = vec![0u8; len];
            body.copy_to_slice(&mut bytes);
            Value::Bytes(bytes)
        }
    })
}

/// A value's text (frozen, as above; NULL renders as the empty string).
fn reference_display_text(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Int(v) => v.to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{:.1}", f)
            } else {
                format!("{f}")
            }
        }
        Value::Decimal(d) => d.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bytes(b) => b.iter().map(|x| format!("{x:02X}")).collect(),
        Value::Date(d) => d.to_string(),
        Value::Timestamp(ts) => ts.to_string(),
    }
}

/// The staged format every converter in this file writes.
fn staged() -> VartextFormat {
    VartextFormat::with_delimiter(b'|')
}

/// Small deterministic generator so one proptest seed drives layout,
/// data, and corruption choices together.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn random_type(rng: &mut Lcg) -> LegacyType {
    match rng.below(12) {
        0 => LegacyType::ByteInt,
        1 => LegacyType::SmallInt,
        2 => LegacyType::Integer,
        3 => LegacyType::BigInt,
        4 => LegacyType::Float,
        5 => LegacyType::Decimal(9, 1 + rng.below(4) as u8),
        6 => LegacyType::Char(1 + rng.below(6) as u16),
        7 => LegacyType::VarChar(1 + rng.below(10) as u16),
        8 => LegacyType::VarCharUnicode(2 + rng.below(8) as u16),
        9 => LegacyType::Date,
        10 => LegacyType::Timestamp,
        _ => LegacyType::VarByte(1 + rng.below(8) as u16),
    }
}

fn random_layout(rng: &mut Lcg) -> Layout {
    let arity = 1 + rng.below(8) as usize;
    let mut layout = Layout::new("PROP");
    for i in 0..arity {
        layout = layout.field(format!("F{i}"), random_type(rng));
    }
    layout
}

fn random_value(rng: &mut Lcg, ty: LegacyType) -> Value {
    if rng.chance(25) {
        return Value::Null;
    }
    match ty {
        LegacyType::ByteInt => Value::Int(rng.below(256) as i64 - 128),
        LegacyType::SmallInt => Value::Int(rng.below(65536) as i64 - 32768),
        LegacyType::Integer => Value::Int(rng.below(1 << 32) as i64 - (1 << 31)),
        LegacyType::BigInt => Value::Int(rng.next() as i64),
        LegacyType::Float => {
            // Mix of integral-valued and fractional floats to cover both
            // display branches.
            let base = rng.below(10_000) as f64 - 5_000.0;
            if rng.chance(50) {
                Value::Float(base)
            } else {
                Value::Float(base + 0.25)
            }
        }
        LegacyType::Decimal(_, s) => {
            Value::Decimal(Decimal::new(rng.below(2_000_000) as i128 - 1_000_000, s))
        }
        LegacyType::Char(n) | LegacyType::VarChar(n) => {
            let len = rng.below(n as u64 + 1) as usize;
            let s: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Value::Str(s)
        }
        LegacyType::VarCharUnicode(n) => {
            // Mix ASCII and multi-byte characters, staying within the
            // declared byte budget (each 'é' is two bytes).
            let mut s = String::new();
            while s.len() + 2 <= n as usize && rng.chance(70) {
                if rng.chance(50) {
                    s.push((b'A' + rng.below(26) as u8) as char);
                } else {
                    s.push('é');
                }
            }
            Value::Str(s)
        }
        LegacyType::Date => Value::Date(
            Date::new(
                1900 + rng.below(200) as i32,
                1 + rng.below(12) as u8,
                1 + rng.below(28) as u8,
            )
            .unwrap(),
        ),
        LegacyType::Timestamp => {
            Value::Timestamp(Timestamp::from_micros(rng.below(1 << 50) as i64))
        }
        LegacyType::VarByte(n) => {
            let len = rng.below(n as u64 + 1) as usize;
            Value::Bytes((0..len).map(|_| rng.below(256) as u8).collect())
        }
    }
}

/// Build a random binary chunk (possibly corrupted) and its layout.
fn binary_chunk(seed: u64) -> (Layout, Vec<u8>) {
    let mut rng = Lcg(seed);
    let layout = random_layout(&mut rng);
    let encoder = RecordEncoder::new(layout.clone());
    let mut data = Vec::new();
    let rows = rng.below(12);
    for _ in 0..rows {
        let values: Vec<Value> = layout
            .fields
            .iter()
            .map(|f| random_value(&mut rng, f.ty))
            .collect();
        encoder.encode_record(&values, &mut data).unwrap();
    }
    // Half the cases get corrupted framing: truncation or a byte flip.
    if rng.chance(50) && !data.is_empty() {
        if rng.chance(50) {
            let keep = rng.below(data.len() as u64) as usize;
            data.truncate(keep);
        } else {
            let pos = rng.below(data.len() as u64) as usize;
            data[pos] ^= 0xFF;
        }
    }
    (layout, data)
}

/// Build a random vartext chunk: valid rows, wrong-arity rows, bad
/// escapes, bad UTF-8, quoted empties, CRLF endings, blank lines.
fn vartext_chunk(seed: u64) -> (Layout, u8, u8, Vec<u8>) {
    let mut rng = Lcg(seed);
    let arity = 1 + rng.below(6) as usize;
    let mut layout = Layout::new("PROP");
    for i in 0..arity {
        layout = layout.field(format!("F{i}"), LegacyType::VarChar(64));
    }
    // Include pathological formats: quote colliding with the delimiter or
    // the escape character exercises the decoder's precedence rules.
    let (delimiter, quote) = match rng.below(4) {
        0 => (b'|', b'"'),
        1 => (b',', b'\''),
        2 => (b'|', b'|'),
        _ => (b',', b'\\'),
    };
    let mut data = Vec::new();
    let rows = rng.below(10);
    for _ in 0..rows {
        let fields = if rng.chance(80) {
            arity as u64
        } else {
            1 + rng.below(arity as u64 + 3)
        };
        for i in 0..fields {
            if i > 0 {
                data.push(delimiter);
            }
            match rng.below(8) {
                0 => {}                                       // NULL (zero-length)
                1 => data.extend_from_slice(&[quote, quote]), // quoted empty
                2 => {
                    // Escaped content: delimiter, quote, backslash.
                    data.extend_from_slice(b"a\\");
                    data.push(delimiter);
                    data.extend_from_slice(b"b\\\\");
                }
                3 if rng.chance(50) => data.push(0xC3), // lone UTF-8 lead byte
                4 if rng.chance(30) => data.push(b'\\'), // dangling escape
                _ => {
                    let len = 1 + rng.below(12) as usize;
                    for _ in 0..len {
                        data.push(b'a' + rng.below(26) as u8);
                    }
                }
            }
        }
        if rng.chance(20) {
            data.push(b'\r');
        }
        data.push(b'\n');
        if rng.chance(10) {
            data.push(b'\n'); // blank line: skipped, consumes no seq
        }
    }
    (layout, delimiter, quote, data)
}

/// Run a conversion, treating a panic as a comparable outcome. Corrupted
/// binary framing can decode to out-of-range temporals whose rendering
/// panics; the pipeline catches that per-chunk, and both kernels must
/// panic (or not) on exactly the same inputs.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, &'static str> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| "panicked")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn binary_kernel_matches_reference(seed in any::<u64>(), base_seq in 1u64..1_000_000) {
        let (layout, data) = binary_chunk(seed);
        let conv = DataConverter::new(layout.clone(), RecordFormat::Binary, b'|');
        let fast = catching(|| convert(&conv, base_seq, &data));
        let slow = catching(|| {
            convert_reference(&layout, RecordFormat::Binary, &staged(), base_seq, &data)
        });
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn vartext_kernel_matches_reference(seed in any::<u64>(), base_seq in 1u64..1_000_000) {
        let (layout, delimiter, quote, data) = vartext_chunk(seed);
        let wire = RecordFormat::Vartext { delimiter, quote };
        let conv = DataConverter::new(layout.clone(), wire, b'|');
        let fast = convert(&conv, base_seq, &data);
        let slow = convert_reference(&layout, wire, &staged(), base_seq, &data);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn reused_buffers_stay_identical_across_chunks(seed in any::<u64>()) {
        // The pipeline reuses one output buffer and one scratch across
        // many chunks; staleness in either would corrupt later chunks.
        let mut rng = Lcg(seed);
        let mut out = Vec::new();
        let mut scratch = ConvertScratch::new();
        for round in 0..4u64 {
            let chunk_seed = rng.next();
            let base_seq = 1 + rng.below(10_000);
            let (layout, data) = binary_chunk(chunk_seed);
            let conv = DataConverter::new(layout.clone(), RecordFormat::Binary, b'|');
            out.clear();
            let fast = catching(|| {
                conv.convert_into(base_seq, &data, &mut out, &mut scratch)
            });
            let slow = catching(|| {
                convert_reference(&layout, RecordFormat::Binary, &staged(), base_seq, &data)
            });
            match (fast, slow) {
                (Ok(fast), Ok(slow)) => {
                    let fast = fast.map(|rows| (rows, out.clone(), scratch_errors(&mut scratch)));
                    let slow = slow.map(|c| (c.rows, c.bytes, c.errors));
                    prop_assert_eq!(fast, slow, "diverged on round {}", round);
                }
                (fast, slow) => {
                    // Both must have panicked; mirror the pipeline, which
                    // discards the output buffer and keeps the scratch.
                    prop_assert_eq!(fast.is_err(), slow.is_err(), "panic mismatch on round {}", round);
                    out.clear();
                }
            }
        }
    }
}

/// Lines whose decoding turns on escape, quote and error precedence:
/// each must stage the same bytes, or fail with the same error, through
/// the kernel and the reference, at every arity and on two delimiters.
#[test]
fn tricky_lines_match_reference() {
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
    for delimiter in [b'|', b','] {
        let wire = RecordFormat::Vartext {
            delimiter,
            quote: b'"',
        };
        for arity in 1..=3 {
            let mut layout = Layout::new("TRICKY");
            for i in 0..arity {
                layout = layout.field(format!("F{i}"), LegacyType::VarChar(64));
            }
            let conv = DataConverter::new(layout.clone(), wire, b'|');
            for &line in cases {
                let data = [line, b"\n"].concat();
                assert_eq!(
                    convert(&conv, 1, &data),
                    convert_reference(&layout, wire, &staged(), 1, &data),
                    "line {:?} delimiter {:?} arity {arity}",
                    String::from_utf8_lossy(line),
                    delimiter as char,
                );
            }
        }
    }
}

/// One record of every binary field type, cut short at five points and
/// with each byte flipped in turn: the kernel and the reference stage the
/// same bytes, fail with the same fatal error, or both panic.
#[test]
fn corrupt_binary_records_match_reference() {
    let layout = Layout::new("CORRUPT")
        .field("BI", LegacyType::ByteInt)
        .field("SI", LegacyType::SmallInt)
        .field("I", LegacyType::Integer)
        .field("B", LegacyType::BigInt)
        .field("F", LegacyType::Float)
        .field("DEC", LegacyType::Decimal(10, 2))
        .field("C", LegacyType::Char(4))
        .field("VC", LegacyType::VarChar(20))
        .field("D", LegacyType::Date)
        .field("TS", LegacyType::Timestamp)
        .field("VB", LegacyType::VarByte(8));
    let row = vec![
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
    ];
    let mut one = Vec::new();
    RecordEncoder::new(layout.clone())
        .encode_record(&row, &mut one)
        .unwrap();
    let mut corruptions: Vec<Vec<u8>> = [0, 1, 3, one.len() / 2, one.len() - 1]
        .iter()
        .map(|&cut| one[..cut].to_vec())
        .collect();
    for i in 0..one.len() {
        let mut c = one.clone();
        c[i] ^= 0xFF;
        corruptions.push(c);
    }
    let conv = DataConverter::new(layout.clone(), RecordFormat::Binary, b'|');
    for c in corruptions {
        assert_eq!(
            catching(|| convert(&conv, 1, &c)),
            catching(|| convert_reference(&layout, RecordFormat::Binary, &staged(), 1, &c)),
            "corrupt input {c:02X?}"
        );
    }
}

fn scratch_errors(scratch: &mut ConvertScratch) -> Vec<AcqError> {
    let mut errors = Vec::new();
    scratch.drain_errors_into(&mut errors);
    errors
}
