//! Golden wire bytes. The frames of one fixed import chunk and one fixed
//! vartext export chunk must encode to exactly the bytes below, which
//! were recorded from the bytewise-table CRC-32 and the `display_text`
//! export encoder. A change to the checksum kernel, the frame layout or
//! the vartext escaping that moves a single byte fails here.
//!
//! Beside them, one pinned frame per `MsgKind` (two for `Logon`: with and
//! without the trace trailer), recorded from the payload codecs before
//! they moved onto the bounds-checked `WireReader`. Every golden frame's
//! payload is also the seed of the hostile-payload tests below: each
//! truncated prefix and each single-byte flip must decode to `Ok` or
//! `Err`, never panic.

use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};

use etlv_protocol::data::{Date, Decimal, LegacyType, Timestamp, Value};
use etlv_protocol::frame::{Frame, FrameDecoder, FrameError, MsgKind};
use etlv_protocol::layout::{FieldDef, Layout};
use etlv_protocol::message::{
    BeginExport, BeginExportOk, BeginLoad, DataChunk, EndLoad, ExportChunk, Format,
    IntrospectReply, LoadReport, Logon, LogonOk, Message, RecordFormat, SessionRole, SqlResult,
    Topic, WireError,
};
use etlv_protocol::record::encode_rows;
use etlv_protocol::trace::TraceContext;

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

/// A layout of several fields: every parameterised type, a `DECIMAL`
/// among them, and one NOT NULL field.
fn wide_layout() -> Layout {
    let mut layout = Layout::new("CustLayout")
        .field("CUST_ID", LegacyType::Integer)
        .field("NAME", LegacyType::VarChar(50))
        .field("AMT", LegacyType::Decimal(18, 4))
        .field("CODE", LegacyType::Char(3))
        .field("JOINED", LegacyType::Date)
        .field("SEEN", LegacyType::Timestamp)
        .field("RAW", LegacyType::VarByte(16))
        .field("NOTE", LegacyType::VarCharUnicode(20));
    layout.fields.push(FieldDef {
        name: "FLAG".into(),
        ty: LegacyType::ByteInt,
        nullable: false,
    });
    layout
}

fn logon(trace: Option<TraceContext>) -> Message {
    Message::Logon(Logon {
        username: "etl_user".into(),
        password: "s3cret".into(),
        role: SessionRole::Data,
        job_token: 0x0102_0304_0506_0708,
        trace,
    })
}

/// One frame of every kind, each with its recorded bytes.
fn golden_frames() -> Vec<(Frame, &'static str)> {
    let messages = vec![
        (logon(None), LOGON_FRAME),
        (
            logon(Some(TraceContext {
                trace_id: 0x1234_5678_9ABC_DEF1,
                parent_span: 77,
            })),
            LOGON_TRACED_FRAME,
        ),
        (
            Message::LogonOk(LogonOk {
                session: 42,
                banner: "etlv gateway".into(),
            }),
            LOGON_OK_FRAME,
        ),
        (
            Message::Sql {
                text: "SELECT A, B FROM T WHERE A > 1".into(),
            },
            SQL_FRAME,
        ),
        (
            Message::SqlResult(SqlResult {
                activity_count: 2,
                columns: vec![
                    ("N".into(), LegacyType::SmallInt),
                    ("I".into(), LegacyType::BigInt),
                    ("F".into(), LegacyType::Float),
                    ("D".into(), LegacyType::Decimal(10, 2)),
                    ("S".into(), LegacyType::VarChar(20)),
                    ("B".into(), LegacyType::VarByte(8)),
                    ("DT".into(), LegacyType::Date),
                    ("TS".into(), LegacyType::Timestamp),
                ],
                rows: vec![
                    vec![
                        Value::Null,
                        Value::Int(-9_000_000_000),
                        Value::Float(2.5),
                        Value::Decimal(Decimal::new(-12345, 2)),
                        Value::Str("héllo".into()),
                        Value::Bytes(vec![0x00, 0xFF, 0x10]),
                        Value::Date(Date::new(2024, 2, 29).unwrap()),
                        Value::Timestamp(Timestamp::from_micros(1_700_000_000_123_456)),
                    ],
                    vec![Value::Null; 8],
                ],
            }),
            SQL_RESULT_FRAME,
        ),
        (
            Message::BeginLoad(BeginLoad {
                target_table: "PROD.CUSTOMER".into(),
                error_table_et: "PROD.CUSTOMER_ET".into(),
                error_table_uv: "PROD.CUSTOMER_UV".into(),
                layout: wide_layout(),
                format: RecordFormat::Binary,
                sessions: 4,
                error_limit: 25,
                trace: Some(TraceContext {
                    trace_id: 99,
                    parent_span: 12,
                }),
            }),
            BEGIN_LOAD_FRAME,
        ),
        (Message::BeginLoadOk { load_token: 7 }, BEGIN_LOAD_OK_FRAME),
        (Message::Ack { chunk_seq: 3 }, ACK_FRAME),
        (
            Message::EndLoad(EndLoad {
                dml: "INSERT INTO PROD.CUSTOMER VALUES (:CUST_ID, :NAME)".into(),
            }),
            END_LOAD_FRAME,
        ),
        (
            Message::LoadReport(LoadReport {
                rows_received: 100,
                rows_applied: 95,
                errors_et: 3,
                errors_uv: 2,
                acquisition_micros: 1000,
                application_micros: 2000,
                other_micros: 30,
                retries: 4,
                faults_injected: 6,
                upload_retries: 3,
                cdw_retries: 1,
            }),
            LOAD_REPORT_FRAME,
        ),
        (
            Message::BeginExport(BeginExport {
                select: "SELECT * FROM PROD.CUSTOMER".into(),
                format: RecordFormat::Vartext {
                    delimiter: b'|',
                    quote: b'"',
                },
                sessions: 2,
                chunk_rows: 1000,
            }),
            BEGIN_EXPORT_FRAME,
        ),
        (
            Message::BeginExportOk(BeginExportOk {
                export_token: 5,
                layout: wide_layout(),
            }),
            BEGIN_EXPORT_OK_FRAME,
        ),
        (Message::ExportChunkReq { index: 9 }, EXPORT_CHUNK_REQ_FRAME),
        (
            Message::Error(WireError {
                code: 2666,
                message: "invalid date".into(),
                fatal: true,
            }),
            ERROR_FRAME,
        ),
        (Message::Logoff, LOGOFF_FRAME),
        (Message::LogoffOk, LOGOFF_OK_FRAME),
        (Message::Keepalive, KEEPALIVE_FRAME),
        (
            Message::Introspect {
                topic: Topic::Trace { job: 17 },
                format: Format::Json,
            },
            INTROSPECT_FRAME,
        ),
        (
            Message::IntrospectReply(IntrospectReply {
                topic: Topic::Health,
                format: Format::Text,
                found: true,
                body: "etlv_node_overloaded 0\n".into(),
            }),
            INTROSPECT_REPLY_FRAME,
        ),
    ];
    let mut frames: Vec<(Frame, &str)> = messages
        .into_iter()
        .map(|(msg, golden)| (msg.into_frame(5, 6), golden))
        .collect();
    frames.push((data_chunk_frame(), DATA_CHUNK_FRAME));
    frames.push((export_chunk_frame(), EXPORT_CHUNK_FRAME));
    frames
}

/// `Logon`, as recorded.
const LOGON_FRAME: &str = concat!(
    "05db010105000000060000001b000000080065746c5f75736572060073336372",
    "65740108070605040302019a5e3189",
);
/// `Logon`, as recorded.
const LOGON_TRACED_FRAME: &str = concat!(
    "05db010105000000060000002d000000080065746c5f75736572060073336372",
    "6574010807060504030201c701f1debc9a785634124d00000000000000fe3f0a",
    "c3",
);
/// `LogonOk`, as recorded.
const LOGON_OK_FRAME: &str = concat!(
    "05db01020500000006000000120000002a0000000c0065746c76206761746577",
    "61797847d58a",
);
/// `Sql`, as recorded.
const SQL_FRAME: &str = concat!(
    "05db01030500000006000000220000001e00000053454c45435420412c204220",
    "46524f4d20542057484552452041203e2031a5951651",
);
/// `SqlResult`, as recorded.
const SQL_RESULT_FRAME: &str = concat!(
    "05db010405000000060000009e0000000200000000000000080001004e020000",
    "000001004904000000000100460500000000010044060a000200010053081400",
    "00000100420c08000000020044540a00000000020054530b0000000002000000",
    "000100e68ee7fdffffff02000000000000044003c7cfffffffffffffffffffff",
    "ffffffff02040600000068c3a96c6c6f050300000000ff1006a5ec1200074022",
    "2018240a060000000000000000002d0aad6b",
);
/// `BeginLoad`, as recorded.
const BEGIN_LOAD_FRAME: &str = concat!(
    "05db01050500000006000000cd0000000d0050524f442e435553544f4d455210",
    "0050524f442e435553544f4d45525f4554100050524f442e435553544f4d4552",
    "5f55560a00437573744c61796f757409000700435553545f4944030000000001",
    "04004e414d450832000000010300414d540612000400010400434f4445070300",
    "00000106004a4f494e45440a000000000104005345454e0b0000000001030052",
    "41570c100000000104004e4f54450914000000010400464c4147010000000000",
    "0004001900000000000000c70163000000000000000c000000000000001463b7",
    "a9",
);
/// `BeginLoadOk`, as recorded.
const BEGIN_LOAD_OK_FRAME: &str = "05db01060500000006000000080000000700000000000000454155a7";
/// `Ack`, as recorded.
const ACK_FRAME: &str = "05db010805000000060000000800000003000000000000000f43d0f0";
/// `EndLoad`, as recorded.
const END_LOAD_FRAME: &str = concat!(
    "05db010905000000060000003600000032000000494e5345525420494e544f20",
    "50524f442e435553544f4d45522056414c55455320283a435553545f49442c20",
    "3a4e414d45298a811a6e",
);
/// `LoadReport`, as recorded.
const LOAD_REPORT_FRAME: &str = concat!(
    "05db010a05000000060000005800000064000000000000005f00000000000000",
    "03000000000000000200000000000000e803000000000000d007000000000000",
    "1e00000000000000040000000000000006000000000000000300000000000000",
    "0100000000000000e6cc8e5d",
);
/// `BeginExport`, as recorded.
const BEGIN_EXPORT_FRAME: &str = concat!(
    "05db010b0500000006000000280000001b00000053454c454354202a2046524f",
    "4d2050524f442e435553544f4d4552017c220200e80300000bbbf431",
);
/// `BeginExportOk`, as recorded.
const BEGIN_EXPORT_OK_FRAME: &str = concat!(
    "05db010c05000000060000008500000005000000000000000a00437573744c61",
    "796f757409000700435553545f494403000000000104004e414d450832000000",
    "010300414d540612000400010400434f444507030000000106004a4f494e4544",
    "0a000000000104005345454e0b000000000103005241570c100000000104004e",
    "4f54450914000000010400464c4147010000000000c8622dea",
);
/// `ExportChunkReq`, as recorded.
const EXPORT_CHUNK_REQ_FRAME: &str = "05db010d0500000006000000080000000900000000000000e2d833ec";
/// `Error`, as recorded.
const ERROR_FRAME: &str = concat!(
    "05db010f0500000006000000130000006a0a010c000000696e76616c69642064",
    "617465ae25e969",
);
/// `Logoff`, as recorded.
const LOGOFF_FRAME: &str = "05db01100500000006000000000000000f1dccff";
/// `LogoffOk`, as recorded.
const LOGOFF_OK_FRAME: &str = "05db01110500000006000000000000008ac45a22";
/// `Keepalive`, as recorded.
const KEEPALIVE_FRAME: &str = "05db011205000000060000000000000044a8909f";
/// `Introspect`, as recorded.
const INTROSPECT_FRAME: &str = "05db011305000000060000000a000000041100000000000000007b9bb3e6";
/// `IntrospectReply`, as recorded.
const INTROSPECT_REPLY_FRAME: &str = concat!(
    "05db011405000000060000001e0000000201011700000065746c765f6e6f6465",
    "5f6f7665726c6f6164656420300a8e3b42e2",
);

/// Every kind has a golden frame; each decodes, re-encodes to the same
/// frame, and matches its recorded bytes.
#[test]
fn every_kind_frame_bytes_are_pinned() {
    let frames = golden_frames();
    let mut kinds: Vec<u8> = frames.iter().map(|(f, _)| f.kind as u8).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        (1..=20).collect::<Vec<u8>>(),
        "one frame per MsgKind"
    );
    for (frame, golden) in frames {
        let msg = Message::from_frame(&frame).unwrap();
        assert_eq!(msg.into_frame(frame.session, frame.seq), frame);
        assert_pinned(frame, golden);
    }
}

/// Decode `payload` as the payload of a `kind` frame.
fn decode(kind: MsgKind, payload: &[u8]) -> Result<Message, FrameError> {
    Message::from_frame(&Frame::new(kind, 0, 0, payload.to_vec()))
}

/// Every truncated prefix and every single-byte flip of every golden
/// payload decodes to `Ok` or `Err`: no panic, no allocation sized by a
/// corrupted count.
#[test]
fn truncated_and_flipped_payloads_never_panic() {
    for (frame, _) in golden_frames() {
        let payload = frame.payload.to_vec();
        for cut in 0..payload.len() {
            let _ = decode(frame.kind, &payload[..cut]);
        }
        let mut flipped = payload.clone();
        for i in 0..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                flipped[i] ^= mask;
                let _ = decode(frame.kind, &flipped);
                flipped[i] ^= mask;
            }
        }
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Headers whose counts are as large as their fields allow, with no
/// elements behind them, are refused at once: the count is checked
/// against the bytes that remain before it sizes anything.
#[test]
fn maximal_counts_are_refused_at_once() {
    let t0 = Instant::now();

    // A BeginLoad layout declaring u16::MAX fields.
    let mut p = BytesMut::new();
    for s in ["T", "T_ET", "T_UV", "L"] {
        put_string(&mut p, s);
    }
    p.put_u16_le(u16::MAX);
    assert_eq!(decode(MsgKind::BeginLoad, &p), Err(FrameError::Truncated));

    // A SqlResult declaring u16::MAX columns.
    let mut p = BytesMut::new();
    p.put_u64_le(0);
    p.put_u16_le(u16::MAX);
    assert_eq!(decode(MsgKind::SqlResult, &p), Err(FrameError::Truncated));

    // A SqlResult of one column and u32::MAX rows.
    let mut p = BytesMut::new();
    p.put_u64_le(0);
    p.put_u16_le(1);
    put_string(&mut p, "C");
    p.put_u8(LegacyType::Integer.tag());
    p.put_u16_le(0);
    p.put_u16_le(0);
    p.put_u32_le(u32::MAX);
    assert_eq!(decode(MsgKind::SqlResult, &p), Err(FrameError::Truncated));

    // A SqlResult of zero columns and u32::MAX rows: the 34-byte frame
    // that once sized a 103 GB row vector. Zero columns carry zero rows.
    let mut p = BytesMut::new();
    p.put_u64_le(0);
    p.put_u16_le(0);
    p.put_u32_le(u32::MAX);
    let frame = Frame::new(MsgKind::SqlResult, 0, 0, p.freeze());
    assert_eq!(frame.to_bytes().len(), 34);
    assert!(matches!(
        Message::from_frame(&frame),
        Err(FrameError::Malformed(_))
    ));

    // Length prefixes past the payload's end.
    let mut p = BytesMut::new();
    p.put_u32_le(u32::MAX);
    assert_eq!(decode(MsgKind::Sql, &p), Err(FrameError::Truncated));
    let mut p = BytesMut::new();
    p.put_u64_le(1);
    p.put_u64_le(1);
    p.put_u32_le(1);
    p.put_u32_le(u32::MAX);
    assert_eq!(decode(MsgKind::DataChunk, &p), Err(FrameError::Truncated));

    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}
