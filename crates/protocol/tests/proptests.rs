//! Property-based tests for the wire codecs: arbitrary values roundtrip
//! through the binary record format, vartext survives arbitrary strings,
//! and the frame decoder is insensitive to fragmentation.

use proptest::prelude::*;

use etlv_protocol::data::{Date, Decimal, LegacyType, Value};
use etlv_protocol::frame::{Frame, FrameDecoder, MsgKind};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{encode_rows, RecordDecoder, RecordEncoder};
use etlv_protocol::vartext::VartextFormat;

/// A strategy producing a (type, conforming value) pair.
fn field_value() -> impl Strategy<Value = (LegacyType, Value)> {
    prop_oneof![
        any::<i8>().prop_map(|v| (LegacyType::ByteInt, Value::Int(v as i64))),
        any::<i16>().prop_map(|v| (LegacyType::SmallInt, Value::Int(v as i64))),
        any::<i32>().prop_map(|v| (LegacyType::Integer, Value::Int(v as i64))),
        any::<i64>().prop_map(|v| (LegacyType::BigInt, Value::Int(v))),
        // Finite floats only (NaN breaks Eq-style comparison on purpose).
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(|f| (LegacyType::Float, Value::Float(f))),
        (-99_999_999_999_999_999i64..=99_999_999_999_999_999, 0u8..6).prop_map(|(u, s)| {
            (
                LegacyType::Decimal(18, s),
                Value::Decimal(Decimal::new(u as i128, s)),
            )
        }),
        "[a-zA-Z0-9 _|,\\\\\"'-]{0,40}".prop_map(|s| {
            let len = s.len().max(1) as u16;
            (LegacyType::VarChar(len.max(40)), Value::Str(s))
        }),
        (1i32..9999, 1u8..13, 1u8..29).prop_map(|(y, m, d)| {
            (
                LegacyType::Date,
                Value::Date(Date::new(y, m, d).expect("day <= 28 always valid")),
            )
        }),
        proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| (LegacyType::VarByte(32), Value::Bytes(b))),
        Just((LegacyType::Integer, Value::Null)),
    ]
}

fn rows_strategy() -> impl Strategy<Value = (Vec<LegacyType>, Vec<Vec<Value>>)> {
    proptest::collection::vec(field_value(), 1..8).prop_flat_map(|first_row| {
        let types: Vec<LegacyType> = first_row.iter().map(|(t, _)| *t).collect();
        let types2 = types.clone();
        let row_strategies: Vec<_> = types.iter().map(|t| value_for_type(*t).boxed()).collect();
        proptest::collection::vec(row_strategies, 1..20)
            .prop_map(move |rows| (types2.clone(), rows))
    })
}

fn value_for_type(ty: LegacyType) -> impl Strategy<Value = Value> {
    match ty {
        LegacyType::ByteInt => any::<i8>().prop_map(|v| Value::Int(v as i64)).boxed(),
        LegacyType::SmallInt => any::<i16>().prop_map(|v| Value::Int(v as i64)).boxed(),
        LegacyType::Integer => prop_oneof![
            any::<i32>().prop_map(|v| Value::Int(v as i64)),
            Just(Value::Null)
        ]
        .boxed(),
        LegacyType::BigInt => any::<i64>().prop_map(Value::Int).boxed(),
        LegacyType::Float => any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float)
            .boxed(),
        LegacyType::Decimal(_, s) => (-99_999_999_999_999_999i64..=99_999_999_999_999_999)
            .prop_map(move |u| Value::Decimal(Decimal::new(u as i128, s)))
            .boxed(),
        LegacyType::VarChar(n) => proptest::string::string_regex("[ -~]{0,30}")
            .expect("regex")
            .prop_map(move |s| {
                let mut s = s;
                s.truncate(n as usize);
                Value::Str(s)
            })
            .boxed(),
        LegacyType::Date => (1i32..9999, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d).expect("valid")))
            .boxed(),
        LegacyType::VarByte(n) => proptest::collection::vec(any::<u8>(), 0..(n as usize))
            .prop_map(Value::Bytes)
            .boxed(),
        _ => Just(Value::Null).boxed(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_record_roundtrip((types, rows) in rows_strategy()) {
        let mut layout = Layout::new("P");
        for (i, ty) in types.iter().enumerate() {
            layout = layout.field(format!("F{i}"), *ty);
        }
        let encoder = RecordEncoder::new(layout.clone());
        let decoder = RecordDecoder::new(layout);
        let encoded = encoder.encode_batch(&rows).unwrap();
        let decoded = decoder.decode_batch(&encoded).unwrap();
        prop_assert_eq!(decoded, rows);
    }

    #[test]
    fn vartext_roundtrip((arity, rows) in (1usize..10).prop_flat_map(|arity| {
        let field = prop_oneof![
            Just(None),
            Just(Some(String::new())),
            // Printable ASCII covers the delimiter, the quote and the
            // backslash; newline and carriage return are added.
            proptest::string::string_regex("[ -~\n\r]{0,40}").unwrap().prop_map(Some),
            proptest::collection::vec(
                prop_oneof![Just('|'), Just('"'), Just('\\'), Just('\n'), Just('\r'), Just('a')],
                1..8,
            )
            .prop_map(|cs| Some(cs.into_iter().collect())),
        ];
        (
            Just(arity),
            proptest::collection::vec(proptest::collection::vec(field, arity), 1..8),
        )
    })) {
        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|fields| {
                fields
                    .into_iter()
                    .map(|f| f.map_or(Value::Null, Value::Str))
                    .collect()
            })
            .collect();
        let fmt = VartextFormat::default();
        let mut layout = Layout::new("V");
        for i in 0..arity {
            layout = layout.field(format!("F{i}"), LegacyType::VarChar(40));
        }
        let format = RecordFormat::Vartext {
            delimiter: fmt.delimiter,
            quote: fmt.quote,
        };
        // The export encoder writes exactly each row's line plus `\n`.
        let encoded = encode_rows(&layout, format, &rows).unwrap();
        let mut expected = Vec::new();
        for row in &rows {
            fmt.encode_row(row, &mut expected);
            expected.push(b'\n');
        }
        prop_assert_eq!(&encoded, &expected);
        // Escaping keeps every line free of raw newlines, so splitting the
        // chunk recovers the rows.
        let lines: Vec<&[u8]> = encoded[..encoded.len() - 1].split(|&b| b == b'\n').collect();
        prop_assert_eq!(lines.len(), rows.len());
        for (line, row) in lines.into_iter().zip(&rows) {
            let decoded = fmt.decode_line(line, Some(arity)).unwrap();
            prop_assert_eq!(&decoded, row);
        }
    }

    #[test]
    fn frame_decoder_handles_any_fragmentation(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..64),
        cut_seed in any::<u64>(),
    ) {
        let frames: Vec<Frame> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| Frame::new(MsgKind::DataChunk, 1, i as u32, p))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_bytes());
        }
        // Deterministic pseudo-random cuts of 1..=4096 bytes: a feed may
        // end mid-header, mid-payload or mid-CRC, or hold several whole
        // frames, so the decoder drains many frames per feed and compacts
        // its buffer mid-stream.
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut state = cut_seed | 1;
        while pos < stream.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let take = ((state >> 33) as usize % 4096) + 1;
            let end = (pos + take).min(stream.len());
            decoder.feed(&stream[pos..end]);
            pos = end;
            while let Some(frame) = decoder.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(decoder.buffered(), 0);
        prop_assert_eq!(out, frames);
    }

    #[test]
    fn date_legacy_int_roundtrip(y in 1i32..9999, m in 1u8..13, d in 1u8..29) {
        let date = Date::new(y, m, d).unwrap();
        prop_assert_eq!(Date::from_legacy_int(date.to_legacy_int()).unwrap(), date);
        prop_assert_eq!(Date::from_ordinal(date.to_ordinal()).unwrap(), date);
    }

    #[test]
    fn decimal_parse_display_roundtrip(u in any::<i64>(), s in 0u8..10) {
        let d = Decimal::new(u as i128, s);
        let reparsed = Decimal::parse(&d.to_string()).unwrap();
        prop_assert_eq!(reparsed, d);
    }
}
