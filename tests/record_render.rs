//! The record encoders against the ones they replaced: `encode_field`,
//! whose escaper finds escapable bytes a word at a time and whose
//! renderer writes integer, decimal, date and timestamp digits without
//! `core::fmt`, and `encode_rows` in both wire formats. The references
//! below are the `core::fmt` renderer, the bytewise escaper and the
//! binary record encoder as they stood; on seeded inputs the encoders
//! must write the same bytes.

use std::io::Write;

use bytes::BufMut;
use etlv_protocol::data::{Date, Decimal, FieldRef, LegacyType as T, Timestamp, Value};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::encode_rows;
use etlv_protocol::rng::SeededRng;
use etlv_protocol::vartext::VartextFormat;

/// The `core::fmt` renderer.
fn reference_render(field: FieldRef<'_>, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    match field {
        FieldRef::Null => {}
        FieldRef::Int(v) => write!(out, "{v}").unwrap(),
        FieldRef::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{f:.1}").unwrap(),
        FieldRef::Float(f) => write!(out, "{f}").unwrap(),
        FieldRef::Decimal(d) => write!(out, "{d}").unwrap(),
        FieldRef::Date(d) => write!(out, "{d}").unwrap(),
        FieldRef::Timestamp(ts) => write!(out, "{ts}").unwrap(),
        FieldRef::Str(s) => out.extend_from_slice(s.as_bytes()),
        FieldRef::Bytes(b) => {
            for &x in b {
                out.push(HEX[(x >> 4) as usize]);
                out.push(HEX[(x & 0x0F) as usize]);
            }
        }
    }
}

/// The bytewise escaper.
fn reference_escape(f: &VartextFormat, bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        if b == f.delimiter || b == f.quote || b == b'\\' || b == b'\n' || b == b'\r' {
            out.push(b'\\');
            out.push(match b {
                b'\n' => b'n',
                b'\r' => b'r',
                other => other,
            });
        } else {
            out.push(b);
        }
    }
}

/// The vartext field encoder over the two references.
fn reference_field(f: &VartextFormat, field: FieldRef<'_>, out: &mut Vec<u8>) {
    match field {
        FieldRef::Null => {}
        FieldRef::Str("") | FieldRef::Bytes([]) => out.extend_from_slice(&[f.quote; 2]),
        field => {
            let mut text = Vec::new();
            reference_render(field, &mut text);
            reference_escape(f, &text, out);
        }
    }
}

/// The vartext chunk: each row's fields between delimiters, a newline
/// after each row.
fn reference_vartext_rows(f: &VartextFormat, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(f.delimiter);
            }
            reference_field(f, v.as_field_ref(), &mut out);
        }
        out.push(b'\n');
    }
    out
}

/// The binary chunk: per record a `u16` body length, the NULL
/// indicators, then each non-NULL value coerced to its field type.
fn reference_binary_rows(layout: &Layout, rows: &[Vec<Value>]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        let mut body = vec![0u8; layout.indicator_bytes()];
        for (i, (value, field)) in row.iter().zip(&layout.fields).enumerate() {
            if value.is_null() {
                body[i / 8] |= 0x80 >> (i % 8);
                continue;
            }
            match (field.ty, value.clone().coerce_to(field.ty).unwrap()) {
                (T::Integer, Value::Int(v)) => body.put_i32_le(v as i32),
                (T::BigInt, Value::Int(v)) => body.put_i64_le(v),
                (T::Float, Value::Float(v)) => body.put_f64_le(v),
                (T::Decimal(..), Value::Decimal(d)) => body.put_i128_le(d.unscaled()),
                (T::Date, Value::Date(d)) => body.put_i32_le(d.to_legacy_int()),
                (T::Timestamp, Value::Timestamp(ts)) => body.put_i64_le(ts.micros()),
                (T::VarChar(_), Value::Str(s)) => {
                    body.put_u16_le(s.len() as u16);
                    body.put_slice(s.as_bytes());
                }
                (T::VarByte(_), Value::Bytes(b)) => {
                    body.put_u16_le(b.len() as u16);
                    body.put_slice(&b);
                }
                (ty, v) => panic!("no reference encoding of {v:?} as {ty}"),
            }
        }
        out.put_u16_le(body.len() as u16);
        out.extend_from_slice(&body);
    }
    out
}

/// The formats under test: the default, a comma with a single quote, and
/// delimiters and quotes that rendered numbers, dates and timestamps
/// contain, so typed fields take the escaping path too.
fn formats() -> Vec<VartextFormat> {
    [
        (b'|', b'"'),
        (b',', b'\''),
        (b'-', b'"'),
        (b':', b'.'),
        (b'0', b'E'),
    ]
    .into_iter()
    .map(|(delimiter, quote)| VartextFormat { delimiter, quote })
    .collect()
}

fn int_values(rng: &mut SeededRng) -> Vec<i64> {
    let mut values = vec![0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX, i64::MIN + 1];
    for shift in 0..64 {
        let v = (rng.next_u64() >> shift) as i64;
        values.extend([v, v.wrapping_neg()]);
    }
    values
}

/// Every year 1..=9999, each on a seeded valid day.
fn date_values(rng: &mut SeededRng) -> Vec<Date> {
    (1..=9999)
        .map(|year| {
            let month = 1 + (rng.next_u64() % 12) as u8;
            let day = 1 + (rng.next_u64() % 28) as u8;
            Date::new(year, month, day).unwrap()
        })
        .chain([
            Date::new(1, 1, 1).unwrap(),
            Date::new(9999, 12, 31).unwrap(),
            Date::new(2024, 2, 29).unwrap(),
        ])
        .collect()
}

/// Instants from 0001-01-01 to 9999-12-31: whole seconds (no fraction
/// printed), whole days, and seeded microseconds.
fn timestamp_values(rng: &mut SeededRng) -> Vec<Timestamp> {
    let first = Timestamp::from_date(Date::new(1, 1, 1).unwrap()).micros();
    let last = Timestamp::from_date(Date::new(9999, 12, 31).unwrap()).micros() + 86_399_999_999;
    let mut values = vec![
        Timestamp::from_micros(first),
        Timestamp::from_micros(last),
        Timestamp::from_micros(0),
        Timestamp::from_micros(-1),
        Timestamp::from_micros(1),
    ];
    for _ in 0..2000 {
        let micros = first + (rng.next_u64() % (last - first) as u64) as i64;
        values.push(Timestamp::from_micros(micros));
        values.push(Timestamp::from_micros(
            micros - micros.rem_euclid(1_000_000),
        ));
        values.push(Timestamp::from_micros(
            micros - micros.rem_euclid(86_400_000_000),
        ));
    }
    values
}

/// Decimals at scales 0, 2, 18 and 38: zero, one unit, the 38-digit
/// bounds and seeded magnitudes of every width.
fn decimal_values(rng: &mut SeededRng) -> Vec<Decimal> {
    let max = 10i128.pow(38) - 1;
    let mut values = Vec::new();
    for scale in [0u8, 2, 18, 38] {
        for unscaled in [0, 1, -1, 5, -5, max, -max] {
            values.push(Decimal::new(unscaled, scale));
        }
        for digits in 1..=38 {
            let wide =
                ((rng.next_u64() as i128) << 64 | rng.next_u64() as i128) % 10i128.pow(digits);
            values.extend([Decimal::new(wide, scale), Decimal::new(-wide, scale)]);
        }
    }
    values
}

fn float_values(rng: &mut SeededRng) -> Vec<f64> {
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -2.5,
        1e15,
        1e15 - 1.0,
        1e300,
        f64::MIN_POSITIVE,
    ];
    values.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    for _ in 0..500 {
        values.push(f64::from_bits(rng.next_u64()));
        values.push((rng.next_f64() - 0.5) * 1e6);
        values.push(((rng.next_u64() % 2_000_000) as f64) - 1e6);
    }
    values
}

/// Strings of 0..=40 bytes: clean, and with each escapable byte of `f`
/// (and a backslash, newline and carriage return) at every offset —
/// the last word's included — plus runs of them and non-ASCII text.
fn string_values(f: &VartextFormat) -> Vec<String> {
    let specials = [f.delimiter, f.quote, b'\\', b'\n', b'\r'];
    let mut values = Vec::new();
    for len in 0..=40 {
        let clean: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
        values.push(String::from_utf8(clean.clone()).unwrap());
        for at in 0..len {
            for special in specials {
                let mut s = clean.clone();
                s[at] = special;
                values.push(String::from_utf8(s).unwrap());
                // And every later byte escapable too.
                let mut s = clean.clone();
                s[at..].fill(special);
                values.push(String::from_utf8(s).unwrap());
            }
        }
    }
    values.extend(
        [
            "é",
            "naïve|café",
            "日本語のテキスト\\と\n改行",
            "emoji 🎉 at the end of a long-ish line|",
            "\u{80}\u{7FF}\u{800}\u{FFFF}\u{10000}",
        ]
        .map(String::from),
    );
    values
}

fn byte_values(rng: &mut SeededRng) -> Vec<Vec<u8>> {
    (0..=24)
        .map(|len| (0..len).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

/// Every seeded field as a value.
fn all_values(f: &VartextFormat) -> Vec<Value> {
    let mut rng = SeededRng::new(0x5EED_4E4D);
    let mut values = vec![
        Value::Null,
        Value::Str(String::new()),
        Value::Bytes(Vec::new()),
    ];
    values.extend(int_values(&mut rng).into_iter().map(Value::Int));
    values.extend(date_values(&mut rng).into_iter().map(Value::Date));
    values.extend(timestamp_values(&mut rng).into_iter().map(Value::Timestamp));
    values.extend(decimal_values(&mut rng).into_iter().map(Value::Decimal));
    values.extend(float_values(&mut rng).into_iter().map(Value::Float));
    values.extend(string_values(f).into_iter().map(Value::Str));
    values.extend(byte_values(&mut rng).into_iter().map(Value::Bytes));
    values
}

#[test]
fn encode_field_matches_the_reference() {
    for f in formats() {
        for value in all_values(&f) {
            let field = value.as_field_ref();
            let (mut got, mut want) = (b"prefix".to_vec(), b"prefix".to_vec());
            f.encode_field(field, &mut got);
            reference_field(&f, field, &mut want);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want),
                "{value:?} with delimiter {:?}",
                f.delimiter as char
            );
            assert_eq!(got, want, "{value:?}");
        }
    }
}

#[test]
fn typed_fields_render_as_display() {
    let mut rng = SeededRng::new(7);
    let check = |value: Value| {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        value.as_field_ref().render_into(&mut got);
        reference_render(value.as_field_ref(), &mut want);
        assert_eq!(got, want, "{value:?}");
    };
    int_values(&mut rng)
        .into_iter()
        .for_each(|v| check(Value::Int(v)));
    date_values(&mut rng)
        .into_iter()
        .for_each(|d| check(Value::Date(d)));
    timestamp_values(&mut rng)
        .into_iter()
        .for_each(|ts| check(Value::Timestamp(ts)));
    decimal_values(&mut rng)
        .into_iter()
        .for_each(|d| check(Value::Decimal(d)));
}

/// Rows of every kind of field, cut into chunks of 0..=20 rows (the
/// vartext encoder sizes its buffer after its first 8), encode as the
/// reference does in both formats.
#[test]
fn encode_rows_matches_the_reference() {
    let mut rng = SeededRng::new(11);
    let ints = int_values(&mut rng);
    let dates = date_values(&mut rng);
    let stamps = timestamp_values(&mut rng);
    let decimals: Vec<Decimal> = decimal_values(&mut rng)
        .into_iter()
        .filter(|d| d.scale() == 2 && d.fits(18, 2))
        .collect();
    let floats = float_values(&mut rng);
    let strings: Vec<String> = string_values(&VartextFormat::default())
        .into_iter()
        .filter(|s| s.len() <= 40)
        .collect();
    let blobs = byte_values(&mut rng);
    let layout = Layout::new("EXPORT")
        .field("I", T::Integer)
        .field("B", T::BigInt)
        .field("F", T::Float)
        .field("DEC", T::Decimal(18, 2))
        .field("D", T::Date)
        .field("TS", T::Timestamp)
        .field("S", T::VarChar(40))
        .field("VB", T::VarByte(24));
    let pick = |i: usize, n: usize| (i * 7919 + n * 31) % n;
    let rows: Vec<Vec<Value>> = (0..600)
        .map(|i| {
            let row = vec![
                Value::Int(ints[pick(i, ints.len())] as i32 as i64),
                Value::Int(ints[pick(i + 1, ints.len())]),
                Value::Float(floats[pick(i, floats.len())]),
                Value::Decimal(decimals[pick(i, decimals.len())]),
                Value::Date(dates[pick(i, dates.len())]),
                Value::Timestamp(stamps[pick(i, stamps.len())]),
                Value::Str(strings[pick(i, strings.len())].clone()),
                Value::Bytes(blobs[pick(i, blobs.len())].clone()),
            ];
            // Every third row has one NULL, at a different field each time.
            row.into_iter()
                .enumerate()
                .map(|(at, v)| {
                    if i % 3 == 0 && at == i % 8 {
                        Value::Null
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    let mut start = 0;
    for len in (0..=20).cycle() {
        if start + len > rows.len() {
            break;
        }
        let chunk = &rows[start..start + len];
        start += len;
        for f in formats() {
            let format = RecordFormat::Vartext {
                delimiter: f.delimiter,
                quote: f.quote,
            };
            // An export chunk escapes with the quote its format names.
            let got = encode_rows(&layout, format, chunk).unwrap();
            assert_eq!(got, reference_vartext_rows(&f, chunk), "{len} rows");
        }
        let got = encode_rows(&layout, RecordFormat::Binary, chunk).unwrap();
        assert_eq!(
            got,
            reference_binary_rows(&layout, chunk),
            "{len} binary rows"
        );
    }
}
