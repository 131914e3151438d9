//! The bounds-checked payload reader: every read past the end is
//! `Truncated`, counts must fit the bytes that remain, raw bytes share
//! the payload, and a `LegacyType` on the wire obeys the one `DECIMAL`
//! rule.

use bytes::{BufMut, Bytes};

use etlv_protocol::data::{Decimal, LegacyType, Value};
use etlv_protocol::frame::FrameError;
use etlv_protocol::layout::Layout;
use etlv_protocol::message::{BeginLoad, Message, RecordFormat, SqlResult};
use etlv_protocol::WireReader;

#[test]
fn reads_past_the_end_are_truncated() {
    let mut r = WireReader::new(&[1u8, 2, 3][..]);
    assert_eq!(r.u16(), Ok(0x0201));
    assert_eq!(r.u16(), Err(FrameError::Truncated));
    assert_eq!(r.u64(), Err(FrameError::Truncated));
    assert_eq!(r.bytes(2), Err(FrameError::Truncated));
    assert_eq!(r.u8(), Ok(3));
    assert_eq!(r.flag(), Err(FrameError::Truncated));
}

#[test]
fn string_lengths_are_checked_before_allocating() {
    let mut r = WireReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, b'a'][..]);
    assert_eq!(r.lstring(), Err(FrameError::Truncated));
    let mut r = WireReader::new(&[2, 0, 0xC3, 0x28][..]);
    assert!(matches!(r.string(), Err(FrameError::Malformed(_))));
}

#[test]
fn counts_must_fit_the_bytes_that_remain() {
    let r = WireReader::new(&[0u8; 10][..]);
    assert_eq!(r.count(0, 0), Ok(0));
    assert_eq!(r.count(5, 2), Ok(5));
    assert_eq!(r.count(6, 2), Err(FrameError::Truncated));
    assert_eq!(r.count(usize::MAX, 2), Err(FrameError::Truncated));
    assert!(matches!(r.count(1, 0), Err(FrameError::Malformed(_))));
}

#[test]
fn bytes_share_the_payload() {
    let payload = Bytes::from(vec![1, 2, 3, 4]);
    let mut r = WireReader::new(payload.clone());
    r.u8().unwrap();
    let data = r.bytes(2).unwrap();
    assert_eq!(&data[..], &[2, 3]);
    assert_eq!(data.as_ptr(), payload[1..].as_ptr());
    assert_eq!(r.u8(), Ok(4));
    assert_eq!(r.peek_u8(), None);
}

/// A data chunk's records are a slice of the frame's payload.
#[test]
fn data_chunk_records_are_not_copied() {
    let frame = Message::DataChunk(etlv_protocol::message::DataChunk {
        chunk_seq: 1,
        base_seq: 1,
        record_count: 1,
        data: Bytes::from_static(b"a|b\n"),
    })
    .into_frame(0, 0);
    let Ok(Message::DataChunk(chunk)) = Message::from_frame(&frame) else {
        panic!("expected a DataChunk");
    };
    assert_eq!(chunk.data.as_ptr(), frame.payload[24..].as_ptr());
}

#[test]
fn decimal_rule() {
    assert_eq!(
        LegacyType::decimal(38, 38),
        Some(LegacyType::Decimal(38, 38))
    );
    assert_eq!(LegacyType::decimal(1, 0), Some(LegacyType::Decimal(1, 0)));
    // `as u8` once made DECIMAL(300,2) precision 44.
    for (p, s) in [(300, 2), (0, 0), (39, 0), (10, 11), (38, 150), (256, 0)] {
        assert_eq!(LegacyType::decimal(p, s), None, "DECIMAL({p},{s})");
    }
}

fn wire_type(tag: u8, p1: u16, p2: u16) -> Vec<u8> {
    let mut buf = vec![tag];
    buf.put_u16_le(p1);
    buf.put_u16_le(p2);
    buf
}

#[test]
fn legacy_types_obey_the_decimal_rule_on_the_wire() {
    for ty in [
        LegacyType::Decimal(38, 38),
        LegacyType::VarChar(300),
        LegacyType::Timestamp,
    ] {
        let (p1, p2) = ty.params();
        let buf = wire_type(ty.tag(), p1, p2);
        assert_eq!(WireReader::new(&buf[..]).legacy_type(), Ok(ty));
    }
    // DECIMAL(300,2) once read back as DECIMAL(44,2); a scale above the
    // precision was accepted.
    let tag = LegacyType::Decimal(1, 0).tag();
    for (p, s) in [(300, 2), (38, 200), (10, 11), (0, 0), (39, 0)] {
        let buf = wire_type(tag, p, s);
        assert!(matches!(
            WireReader::new(&buf[..]).legacy_type(),
            Err(FrameError::Malformed(_))
        ));
    }
}

/// A `BeginLoad` whose layout declares `DECIMAL(38,200)` is malformed.
/// It used to be accepted, and its load then failed in the converter.
#[test]
fn begin_load_with_an_out_of_range_decimal_is_malformed() {
    let msg = Message::BeginLoad(BeginLoad {
        target_table: "T".into(),
        error_table_et: "T_ET".into(),
        error_table_uv: "T_UV".into(),
        layout: Layout::new("L").field("AMT", LegacyType::Decimal(38, 200)),
        format: RecordFormat::Binary,
        sessions: 1,
        error_limit: 0,
        trace: None,
    });
    assert!(matches!(
        Message::from_frame(&msg.into_frame(0, 0)),
        Err(FrameError::Malformed(_))
    ));
}

/// A decimal value whose scale exceeds the maximum precision is
/// malformed: no renderer can print it.
#[test]
fn decimal_value_scale_is_bounded() {
    let result = |scale| {
        Message::SqlResult(SqlResult {
            activity_count: 1,
            columns: vec![("D".into(), LegacyType::Decimal(38, 2))],
            rows: vec![vec![Value::Decimal(Decimal::new(15, scale))]],
        })
        .into_frame(0, 0)
    };
    assert!(Message::from_frame(&result(38)).is_ok());
    assert!(matches!(
        Message::from_frame(&result(150)),
        Err(FrameError::Malformed(_))
    ));
}
