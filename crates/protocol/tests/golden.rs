//! Golden wire bytes. The frames of one fixed import chunk and one fixed
//! vartext export chunk must encode to exactly the bytes below, which
//! were recorded from the bytewise-table CRC-32 and the `display_text`
//! export encoder. A change to the checksum kernel, the frame layout or
//! the vartext escaping that moves a single byte fails here.

use bytes::Bytes;

use etlv_protocol::data::{Date, Decimal, LegacyType, Value};
use etlv_protocol::frame::{Frame, FrameDecoder};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::{DataChunk, ExportChunk, Message, RecordFormat};
use etlv_protocol::record::encode_rows;

/// An import chunk of four vartext rows: an escaped delimiter, a NULL, a
/// quoted empty string, an escaped backslash. 111 payload bytes: the checksum covers 127
/// bytes, seven 16-byte steps and a 15-byte tail.
fn data_chunk_frame() -> Frame {
    Message::DataChunk(DataChunk {
        chunk_seq: 3,
        base_seq: 2001,
        record_count: 4,
        data: Bytes::from_static(
            b"1001|Smith|2024-01-15\n1002|O\\|Brien|\n1003|\"\"|1999-12-31\n1004|Nguyen \\\\ Tran|2000-02-29\n",
        ),
    })
    .into_frame(7, 42)
}

/// An export chunk whose records come from the vartext export encoder:
/// strings holding every byte it escapes, the empty string, NULL, and
/// the non-string types that render through their canonical text.
fn export_chunk_frame() -> Frame {
    let layout = Layout::new("out")
        .field("ID", LegacyType::Integer)
        .field("NAME", LegacyType::VarChar(40))
        .field("AMT", LegacyType::Decimal(10, 2))
        .field("D", LegacyType::Date)
        .field("F", LegacyType::Float);
    let rows = vec![
        vec![
            Value::Int(1),
            Value::Str("plain".into()),
            Value::Decimal(Decimal::new(12345, 2)),
            Value::Date(Date::new(2024, 1, 15).unwrap()),
            Value::Float(1.5),
        ],
        vec![
            Value::Int(-2),
            Value::Str("a|b\"c\\d\ne\rf".into()),
            Value::Null,
            Value::Null,
            Value::Float(-0.25),
        ],
        vec![
            Value::Int(3),
            Value::Str(String::new()),
            Value::Decimal(Decimal::new(-7, 2)),
            Value::Date(Date::new(1999, 12, 31).unwrap()),
            Value::Null,
        ],
    ];
    let format = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };
    let data = encode_rows(&layout, format, &rows).unwrap();
    Message::ExportChunk(ExportChunk {
        index: 5,
        record_count: rows.len() as u32,
        last: false,
        data: data.into(),
    })
    .into_frame(9, 6)
}

/// `data_chunk_frame()` as recorded: 16-byte header, payload, CRC-32.
const DATA_CHUNK_FRAME: &str = concat!(
    "05db0107070000002a0000006f0000000300000000000000d107000000000000",
    "0400000057000000313030317c536d6974687c323032342d30312d31350a3130",
    "30327c4f5c7c427269656e7c0a313030337c22227c313939392d31322d33310a",
    "313030347c4e677579656e205c5c205472616e7c323030302d30322d32390a78",
    "f5308f",
);

/// `export_chunk_frame()` as recorded.
const EXPORT_CHUNK_FRAME: &str = concat!(
    "05db010e09000000060000006200000005000000000000000300000000510000",
    "00317c706c61696e7c3132332e34357c323032342d30312d31357c312e350a2d",
    "327c615c7c625c22635c5c645c6e655c72667c7c7c2d302e32350a337c22227c",
    "2d302e30377c313939392d31322d33317c0acf1dd5a0",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frame's bytes equal `golden`, and the decoder accepts them back.
fn assert_pinned(frame: Frame, golden: &str) {
    let bytes = frame.to_bytes();
    assert_eq!(hex(&bytes), golden);
    let mut dec = FrameDecoder::new();
    dec.feed(&bytes);
    assert_eq!(dec.next_frame().unwrap(), Some(frame));
    assert_eq!(dec.buffered(), 0);
}

#[test]
fn data_chunk_frame_bytes_are_pinned() {
    assert_pinned(data_chunk_frame(), DATA_CHUNK_FRAME);
}

#[test]
fn export_chunk_frame_bytes_are_pinned() {
    assert_pinned(export_chunk_frame(), EXPORT_CHUNK_FRAME);
}
