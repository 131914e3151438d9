//! Golden staged bytes: the converter's output for one vartext and one
//! binary chunk, pinned byte for byte (`__SEQ` plus the staged text), and
//! the client's chunk numbering for the same vartext input.
//!
//! COPY parses these bytes and the client numbers the rows that become
//! `__SEQ`; a change to either side that moves a byte or a row number
//! fails here before it reaches a load.

use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_legacy_client::input::split_chunks;
use etlv_protocol::data::{Date, Decimal, LegacyType as T, Timestamp, Value};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::RecordEncoder;

const WIRE_VT: RecordFormat = RecordFormat::Vartext {
    delimiter: b'|',
    quote: b'"',
};

/// Escapes (delimiter, backslash, quote, newline, CR), a NULL, a quoted
/// empty, a CRLF line, a blank line, a short record, invalid UTF-8,
/// non-ASCII text and a last record without a newline.
const VARTEXT_INPUT: &[u8] = b"a\\|b|c\\\\d|e\\\"f\n\
||\"\"\r\n\
\n\
short|record\n\
\xff|bad|utf8\n\
g\\nh|i\\rj|caf\xc3\xa9\n\
x|\"\"|y";

/// The converter's staged bytes for [`VARTEXT_INPUT`]. Recorded, not
/// derived: edit only in a change that means to move staged bytes.
const VARTEXT_STAGED: &[u8] = b"1|a\\|b|c\\\\d|e\\\"f\n\
2|||\"\"\n\
5|g\\nh|i\\rj|caf\xc3\xa9\n\
6|x|\"\"|y\n";

/// The converter's staged bytes for the binary rows of
/// `binary_chunk_every_type`, recorded the same way.
const BINARY_STAGED: &[u8] = b"40|-7|300|-70000|1099511627776|2.0|-3.50|ab  |p\\|q\\\\r|n\xc3\xa9|2012-01-05|2012-01-01 00:00:00.123456|00AB7F\n\
41|||||0.25|||\"\"|a\\nb|||\"\"\n";

#[test]
fn vartext_chunks_number_and_stage_byte_for_byte() {
    let chunks = split_chunks(VARTEXT_INPUT, WIRE_VT, 2).unwrap();
    let numbering: Vec<(u64, u32)> = chunks
        .iter()
        .map(|c| (c.base_seq, c.record_count))
        .collect();
    assert_eq!(numbering, [(1, 2), (3, 2), (5, 2)]);

    let layout = Layout::new("L")
        .field("A", T::VarChar(10))
        .field("B", T::VarChar(10))
        .field("C", T::VarChar(10));
    let conv = DataConverter::new(layout, WIRE_VT, b'|');
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    let mut rows = Vec::new();
    let mut errors = Vec::new();
    for c in &chunks {
        rows.push(
            conv.convert_into(c.base_seq, &c.data, &mut out, &mut scratch)
                .unwrap(),
        );
        errors.extend(scratch.take_errors().into_iter().map(|e| (e.seq, e.code.0)));
    }
    assert_eq!(rows, [2, 0, 2]);
    assert_eq!(errors, [(3, 2673), (4, 2665)]);
    assert_eq!(
        out,
        VARTEXT_STAGED,
        "staged text moved:\n{}",
        String::from_utf8_lossy(&out)
    );
}

#[test]
fn binary_chunk_every_type() {
    let layout = Layout::new("B")
        .field("BI", T::ByteInt)
        .field("SI", T::SmallInt)
        .field("I", T::Integer)
        .field("BG", T::BigInt)
        .field("F", T::Float)
        .field("D", T::Decimal(9, 2))
        .field("CH", T::Char(4))
        .field("VC", T::VarChar(8))
        .field("VU", T::VarCharUnicode(8))
        .field("DT", T::Date)
        .field("TS", T::Timestamp)
        .field("VB", T::VarByte(4));
    let rows = vec![
        vec![
            Value::Int(-7),
            Value::Int(300),
            Value::Int(-70000),
            Value::Int(1 << 40),
            Value::Float(2.0),
            Value::Decimal(Decimal::parse("-3.50").unwrap()),
            Value::Str("ab".into()),
            Value::Str("p|q\\r".into()),
            Value::Str("né".into()),
            Value::Date(Date::new(2012, 1, 5).unwrap()),
            Value::Timestamp(Timestamp::from_micros(1_325_376_000_123_456)),
            Value::Bytes(vec![0x00, 0xAB, 0x7F]),
        ],
        vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Float(0.25),
            Value::Null,
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a\nb".into()),
            Value::Null,
            Value::Null,
            Value::Bytes(Vec::new()),
        ],
    ];
    let data = RecordEncoder::new(layout.clone())
        .encode_batch(&rows)
        .unwrap();
    let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    let n = conv
        .convert_into(40, &data, &mut out, &mut scratch)
        .unwrap();
    assert_eq!(n, 2);
    assert!(!scratch.has_errors());
    assert_eq!(
        out,
        BINARY_STAGED,
        "staged text moved:\n{}",
        String::from_utf8_lossy(&out)
    );
}
