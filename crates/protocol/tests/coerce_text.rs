//! `coerce_text`, the rule COPY coerces each staged field by, against
//! coercing the same text as a string value: for every legacy type and
//! seeded text (signs, spaces, exponents, over-long and non-ASCII
//! values), both give the same value or the same error.

use etlv_protocol::data::{coerce_text, parse_float, LegacyType as T, Value, ValueError};
use etlv_protocol::errcode::Cause;
use etlv_protocol::rng::SeededRng;

const TYPES: [T; 16] = [
    T::ByteInt,
    T::SmallInt,
    T::Integer,
    T::BigInt,
    T::Float,
    T::Decimal(5, 2),
    T::Decimal(18, 0),
    T::Decimal(38, 10),
    T::Char(1),
    T::Char(6),
    T::VarChar(4),
    T::VarChar(40),
    T::VarCharUnicode(6),
    T::Date,
    T::Timestamp,
    T::VarByte(8),
];

/// Whole texts worth trying as they are.
const TEXTS: [&str; 35] = [
    "",
    " ",
    "0",
    "-0",
    "+7",
    " 42 ",
    "127",
    "128",
    "-129",
    "32768",
    "2147483648",
    "9223372036854775808",
    "1.5",
    "-0.005",
    "1e3",
    "NaN",
    "nan",
    "inf",
    "-Infinity",
    " infinity ",
    "1e999",
    "-1e999",
    "123.456",
    "99999999999999999999999999999.5",
    "2012-01-01",
    "2012-02-30",
    " 2012-01-01",
    "2023-07-04 12:30:45.123456",
    "2023-07-04 12:30:45.12345é",
    "2023-07-04T12:30:45",
    "abc",
    "é",
    "ééé",
    "€uro",
    "a string longer than forty bytes, for the length checks",
];

/// Pieces seeded texts are made of.
const PIECES: [&str; 18] = [
    "0",
    "1",
    "9",
    "42",
    "-",
    "+",
    " ",
    ".",
    "e",
    "E",
    ":",
    "2020",
    "-01",
    "-31",
    " 12:00:00",
    "x",
    "é",
    "€",
];

fn seeded_texts() -> Vec<String> {
    let mut rng = SeededRng::new(7);
    let mut out: Vec<String> = TEXTS.iter().map(|s| s.to_string()).collect();
    for _ in 0..3000 {
        let n = rng.gen_range(1, 7);
        out.push(
            (0..n)
                .map(|_| PIECES[rng.gen_range(0, PIECES.len() as u64) as usize])
                .collect(),
        );
    }
    out
}

/// Value equality that tells float bit patterns apart (and so sees NaN
/// equal to itself).
fn same(a: &Result<Value, ValueError>, b: &Result<Value, ValueError>) -> bool {
    match (a, b) {
        (Ok(Value::Float(x)), Ok(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn coerce_text_is_coercing_a_string() {
    for text in seeded_texts() {
        for ty in TYPES {
            let typed = coerce_text(&text, ty);
            let string = Value::Str(text.clone()).coerce_to(ty);
            assert!(
                same(&typed, &string),
                "{text:?} as {ty}: {typed:?} vs {string:?}"
            );
        }
    }
}

#[test]
fn only_character_types_keep_text() {
    assert_eq!(coerce_text(" 42 ", T::SmallInt), Ok(Value::Int(42)));
    assert_eq!(coerce_text("ab", T::Char(4)), Ok(Value::Str("ab  ".into())));
    assert_eq!(
        coerce_text("ab", T::VarChar(4)),
        Ok(Value::Str("ab".into()))
    );
    assert_eq!(
        coerce_text("ab", T::VarByte(4)).unwrap_err().reason,
        "cannot cast VARCHAR to VARBYTE"
    );
    assert_eq!(
        coerce_text("4x2", T::Integer).unwrap_err().reason,
        "'4x2' is not a valid INTEGER"
    );
}

#[test]
fn no_nan_or_infinity_from_text() {
    for text in ["NaN", "nan", " NaN ", "-nan", "inf", "+inf", "-inf", "INF"]
        .into_iter()
        .chain(["Infinity", "infinity", "-Infinity", " infinity "])
    {
        for value in [
            coerce_text(text, T::Float),
            Value::Str(text.into()).coerce_to(T::Float),
        ] {
            let e = value.unwrap_err();
            assert_eq!(e.cause, Cause::Value, "{text:?}");
            assert_eq!(e.reason, format!("'{text}' is not a valid FLOAT"));
        }
        assert!(parse_float(text).is_err(), "{text:?}");
    }
    for text in ["1e999", "-1e999"] {
        let e = coerce_text(text, T::Float).unwrap_err();
        assert_eq!(e.cause, Cause::Overflow, "{text:?}");
    }
    assert_eq!(coerce_text(" 1e3 ", T::Float), Ok(Value::Float(1000.0)));
    assert_eq!(parse_float("-0.5"), Ok(-0.5));
}
