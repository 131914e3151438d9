//! The legacy value model: a dynamically-typed datum plus coercion rules.

use std::borrow::Cow;
use std::fmt;

use super::{Date, DateParseError, Decimal, DecimalError, LegacyType, Timestamp};
use crate::errcode::Cause;

/// Error raised when a value cannot be coerced to a target type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError {
    /// Why the value does not convert.
    pub cause: Cause,
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value error: {}", self.reason)
    }
}

impl std::error::Error for ValueError {}

fn err(cause: Cause, reason: impl Into<String>) -> ValueError {
    ValueError {
        cause,
        reason: reason.into(),
    }
}

/// `v`'s type has no conversion to `to` at all.
fn cannot_cast(cause: Cause, v: &Value, to: &str) -> ValueError {
    err(cause, format!("cannot cast {} to {to}", v.type_name()))
}

impl From<DateParseError> for ValueError {
    fn from(e: DateParseError) -> ValueError {
        err(Cause::Date, e.to_string())
    }
}

impl From<DecimalError> for ValueError {
    fn from(e: DecimalError) -> ValueError {
        err(e.cause, e.to_string())
    }
}

/// The one rule for coercing text to `ty`: what
/// `Value::Str(text.into()).coerce_to(ty)` returns, allocating only for
/// character data. COPY hands each staged field through it as it decodes,
/// so a number, date or timestamp is parsed straight from the staged
/// bytes.
pub fn coerce_text(text: &str, ty: LegacyType) -> Result<Value, ValueError> {
    coerce_str(Cow::Borrowed(text), ty)
}

/// [`coerce_text`] over text that may already be owned: character data
/// that fits keeps an owned string instead of copying it.
fn coerce_str(text: Cow<'_, str>, ty: LegacyType) -> Result<Value, ValueError> {
    match ty {
        LegacyType::ByteInt | LegacyType::SmallInt | LegacyType::Integer | LegacyType::BigInt => {
            let v = text.trim().parse::<i64>().map_err(|_| {
                err(
                    Cause::Value,
                    format!("'{text}' is not a valid {}", int_name(ty)),
                )
            })?;
            int_in_range(v, ty)
        }
        LegacyType::Float => Ok(Value::Float(parse_float(&text)?)),
        LegacyType::Decimal(p, s) => fit_decimal(Decimal::parse(&text)?, p, s),
        LegacyType::Char(_) | LegacyType::VarChar(_) | LegacyType::VarCharUnicode(_) => {
            fit_text(text, ty)
        }
        LegacyType::Date => Ok(Value::Date(Date::parse_iso(&text)?)),
        LegacyType::Timestamp => Ok(Value::Timestamp(Timestamp::parse(&text)?)),
        LegacyType::VarByte(_) => Err(err(Cause::Value, "cannot cast VARCHAR to VARBYTE")),
    }
}

/// The SQL name of an integer type.
fn int_name(ty: LegacyType) -> &'static str {
    match ty {
        LegacyType::ByteInt => "BYTEINT",
        LegacyType::SmallInt => "SMALLINT",
        LegacyType::Integer => "INTEGER",
        _ => "BIGINT",
    }
}

/// The inclusive range of an integer type.
fn int_range(ty: LegacyType) -> (i64, i64) {
    match ty {
        LegacyType::ByteInt => (i8::MIN as i64, i8::MAX as i64),
        LegacyType::SmallInt => (i16::MIN as i64, i16::MAX as i64),
        LegacyType::Integer => (i32::MIN as i64, i32::MAX as i64),
        _ => (i64::MIN, i64::MAX),
    }
}

/// `v` as a value of the integer type `ty`, if it is in range.
fn int_in_range(v: i64, ty: LegacyType) -> Result<Value, ValueError> {
    let (min, max) = int_range(ty);
    if v < min || v > max {
        return Err(err(
            Cause::Overflow,
            format!("{v} out of range for {}", int_name(ty)),
        ));
    }
    Ok(Value::Int(v))
}

/// Text as a FLOAT: the one text → float rule, for loads, casts and
/// comparisons alike. A FLOAT is finite, so `NaN`, `inf` and `infinity`
/// are not numbers, and digits beyond `f64`'s range (`1e999`) overflow.
pub fn parse_float(text: &str) -> Result<f64, ValueError> {
    match text.trim().parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(f),
        Ok(f) if f.is_infinite() && text.bytes().any(|b| b.is_ascii_digit()) => Err(err(
            Cause::Overflow,
            format!("'{text}' exceeds the FLOAT range"),
        )),
        _ => Err(err(Cause::Value, format!("'{text}' is not a valid FLOAT"))),
    }
}

/// `d` rescaled to `DECIMAL(p, s)`, if it fits.
fn fit_decimal(d: Decimal, p: u8, s: u8) -> Result<Value, ValueError> {
    let d = d
        .rescale(s)
        .map_err(|e| err(e.cause, format!("cannot fit in DECIMAL({p},{s}): {e}")))?;
    if !d.fits(p, s) {
        return Err(err(
            Cause::Overflow,
            format!("value {d} exceeds DECIMAL({p},{s})"),
        ));
    }
    Ok(Value::Decimal(d))
}

/// Text as a value of the character type `ty`, if it fits: CHAR is space
/// padded to its declared width, VARCHAR kept as it is.
fn fit_text(text: Cow<'_, str>, ty: LegacyType) -> Result<Value, ValueError> {
    let (n, name) = match ty {
        LegacyType::Char(n) => (n, "CHAR"),
        LegacyType::VarChar(n) | LegacyType::VarCharUnicode(n) => (n, "VARCHAR"),
        other => unreachable!("{other} is not character data"),
    };
    let n = n as usize;
    if text.len() > n {
        return Err(err(
            Cause::Length,
            format!("string length {} exceeds {name}({n})", text.len()),
        ));
    }
    let mut s = text.into_owned();
    if let LegacyType::Char(_) = ty {
        s.extend(std::iter::repeat_n(' ', n - s.len()));
    }
    Ok(Value::Str(s))
}

/// A dynamically-typed datum in the legacy data model.
///
/// This is the common currency between the protocol codecs, the reference
/// legacy server, and the virtualizer's data converters.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Any integral value (BYTEINT/SMALLINT/INTEGER/BIGINT collapse here;
    /// the declared [`LegacyType`] governs wire width and range checks).
    Int(i64),
    /// 8-byte IEEE float.
    Float(f64),
    /// Fixed-point decimal.
    Decimal(Decimal),
    /// Character data (CHAR/VARCHAR, Latin or Unicode).
    Str(String),
    /// Raw bytes (VARBYTE).
    Bytes(Vec<u8>),
    /// Calendar date.
    Date(Date),
    /// Timestamp (microseconds since the Unix epoch).
    Timestamp(Timestamp),
}

impl Value {
    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name for the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::Decimal(_) => "DECIMAL",
            Value::Str(_) => "VARCHAR",
            Value::Bytes(_) => "VARBYTE",
            Value::Date(_) => "DATE",
            Value::Timestamp(_) => "TIMESTAMP",
        }
    }

    /// Coerce this value to conform to `ty`, applying the legacy system's
    /// implicit-cast rules (numeric widening/narrowing with range checks,
    /// string truncation checks, text→date via ISO format). The value is
    /// consumed: a string or byte string that already fits is moved, not
    /// copied. Text follows [`coerce_text`], the one rule for it. A value
    /// already of type `ty` (text within a VARCHAR's length, a DATE into
    /// DATE, an integer within its type's range) is returned as it is.
    #[inline]
    pub fn coerce_to(self, ty: LegacyType) -> Result<Value, ValueError> {
        let fits = match (&self, ty) {
            (Value::Str(s), LegacyType::VarChar(n) | LegacyType::VarCharUnicode(n)) => {
                s.len() <= n as usize
            }
            (Value::Date(_), LegacyType::Date) => true,
            (Value::Int(v), LegacyType::ByteInt)
            | (Value::Int(v), LegacyType::SmallInt)
            | (Value::Int(v), LegacyType::Integer)
            | (Value::Int(v), LegacyType::BigInt) => {
                let (min, max) = int_range(ty);
                (min..=max).contains(v)
            }
            _ => false,
        };
        if fits {
            return Ok(self);
        }
        match self {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => coerce_str(Cow::Owned(s), ty),
            typed => typed.coerce_typed(ty),
        }
    }

    /// [`coerce_to`](Self::coerce_to) for a value that is neither NULL
    /// nor text.
    fn coerce_typed(self, ty: LegacyType) -> Result<Value, ValueError> {
        match ty {
            LegacyType::ByteInt
            | LegacyType::SmallInt
            | LegacyType::Integer
            | LegacyType::BigInt => {
                let tyname = int_name(ty);
                let v = match self {
                    Value::Int(v) => v,
                    Value::Float(f) => {
                        let (min, max) = int_range(ty);
                        if f.fract() != 0.0 || f < min as f64 || f > max as f64 {
                            return Err(err(
                                Cause::Value,
                                format!("float {f} not representable as {tyname}"),
                            ));
                        }
                        f as i64
                    }
                    Value::Decimal(d) => d.to_i64_exact().ok_or_else(|| {
                        err(
                            Cause::Value,
                            format!("decimal {d} not integral for {tyname}"),
                        )
                    })?,
                    other => return Err(cannot_cast(Cause::Value, &other, tyname)),
                };
                int_in_range(v, ty)
            }
            LegacyType::Float => Ok(Value::Float(self.to_f64()?)),
            LegacyType::Decimal(p, s) => fit_decimal(self.to_decimal()?, p, s),
            LegacyType::Char(_) | LegacyType::VarChar(_) | LegacyType::VarCharUnicode(_) => {
                fit_text(Cow::Owned(self.display_text()), ty)
            }
            LegacyType::Date => match self {
                Value::Date(d) => Ok(Value::Date(d)),
                Value::Int(v) => {
                    let v32 = i32::try_from(v)
                        .map_err(|_| err(Cause::Date, "integer out of DATE range"))?;
                    Ok(Value::Date(Date::from_legacy_int(v32)?))
                }
                other => Err(cannot_cast(Cause::Date, &other, "DATE")),
            },
            LegacyType::Timestamp => match self {
                Value::Timestamp(ts) => Ok(Value::Timestamp(ts)),
                Value::Date(d) => Ok(Value::Timestamp(Timestamp::from_date(d))),
                other => Err(cannot_cast(Cause::Value, &other, "TIMESTAMP")),
            },
            LegacyType::VarByte(n) => match self {
                Value::Bytes(b) => {
                    if b.len() > n as usize {
                        return Err(err(
                            Cause::Length,
                            format!("byte length {} exceeds VARBYTE({n})", b.len()),
                        ));
                    }
                    Ok(Value::Bytes(b))
                }
                other => Err(cannot_cast(Cause::Value, &other, "VARBYTE")),
            },
        }
    }

    /// Numeric value as `f64` (errors for non-numeric types).
    pub fn to_f64(&self) -> Result<f64, ValueError> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(f) => Ok(*f),
            Value::Decimal(d) => Ok(d.to_f64()),
            Value::Str(s) => parse_float(s),
            other => Err(cannot_cast(Cause::Value, other, "FLOAT")),
        }
    }

    /// Numeric value as [`Decimal`].
    pub fn to_decimal(&self) -> Result<Decimal, ValueError> {
        match self {
            Value::Int(v) => Ok(Decimal::from_i64(*v)),
            Value::Decimal(d) => Ok(*d),
            Value::Str(s) => Ok(Decimal::parse(s)?),
            Value::Float(f) => Ok(Decimal::parse(&format!("{f}"))?),
            other => Err(cannot_cast(Cause::Value, other, "DECIMAL")),
        }
    }

    /// Canonical text rendering (NULL renders as the empty string; callers
    /// that need NULL-awareness must check [`Value::is_null`] first): the
    /// text [`FieldRef::render_into`] writes.
    pub fn display_text(&self) -> String {
        let mut out = Vec::new();
        self.as_field_ref().render_into(&mut out);
        String::from_utf8(out).expect("rendered text is UTF-8")
    }

    /// This value as a borrowed [`FieldRef`].
    pub fn as_field_ref(&self) -> FieldRef<'_> {
        match self {
            Value::Null => FieldRef::Null,
            Value::Int(v) => FieldRef::Int(*v),
            Value::Float(f) => FieldRef::Float(*f),
            Value::Decimal(d) => FieldRef::Decimal(*d),
            Value::Str(s) => FieldRef::Str(s),
            Value::Bytes(b) => FieldRef::Bytes(b),
            Value::Date(d) => FieldRef::Date(*d),
            Value::Timestamp(ts) => FieldRef::Timestamp(*ts),
        }
    }
}

/// A typed field that borrows its variable-width data: the allocation-free
/// view of a [`Value`]. The binary record decoder hands these out straight
/// from the record body, and every text encoding of a typed field renders
/// one through [`FieldRef::render_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// SQL NULL.
    Null,
    /// Any integer type.
    Int(i64),
    /// FLOAT.
    Float(f64),
    /// DECIMAL.
    Decimal(Decimal),
    /// DATE.
    Date(Date),
    /// TIMESTAMP.
    Timestamp(Timestamp),
    /// CHAR/VARCHAR.
    Str(&'a str),
    /// VARBYTE.
    Bytes(&'a [u8]),
}

impl FieldRef<'_> {
    /// The one text renderer: append this field's canonical text to `out`.
    /// Integers, decimals, dates and timestamps print in their `Display`
    /// form, a float with no fractional part below 10^15 keeps one decimal
    /// (`2.0`), bytes print as upper-case hex, a string as itself, and
    /// NULL as nothing. Integers, decimals, dates and timestamps write
    /// their digits directly, byte for byte what `Display` writes, without
    /// `core::fmt`. Allocates only when `out` grows.
    pub fn render_into(self, out: &mut Vec<u8>) {
        use std::io::Write;
        const HEX: &[u8; 16] = b"0123456789ABCDEF";
        match self {
            FieldRef::Null => {}
            FieldRef::Int(v) => {
                if v < 0 {
                    out.push(b'-');
                }
                push_u128(out, u128::from(v.unsigned_abs()), 1);
            }
            FieldRef::Float(f) => {
                let written = if f.fract() == 0.0 && f.abs() < 1e15 {
                    write!(out, "{f:.1}")
                } else {
                    write!(out, "{f}")
                };
                written.expect("writing to a Vec<u8> cannot fail");
            }
            FieldRef::Decimal(d) => push_decimal(out, d),
            FieldRef::Date(d) => push_date(out, d),
            FieldRef::Timestamp(ts) => {
                // `Timestamp`'s `Display`: the date, then the time of day,
                // with six digits of fraction only when it is not zero.
                push_date(out, ts.date());
                let rem = ts.micros().rem_euclid(86_400 * 1_000_000);
                let (secs, micros) = (rem / 1_000_000, rem % 1_000_000);
                let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
                for (sep, n) in [(b' ', h), (b':', m), (b':', s)] {
                    out.push(sep);
                    push_u128(out, n as u128, 2);
                }
                if micros != 0 {
                    out.push(b'.');
                    push_u128(out, micros as u128, 6);
                }
            }
            FieldRef::Str(s) => out.extend_from_slice(s.as_bytes()),
            FieldRef::Bytes(b) => {
                out.reserve(2 * b.len());
                for &x in b {
                    out.push(HEX[(x >> 4) as usize]);
                    out.push(HEX[(x & 0x0F) as usize]);
                }
            }
        }
    }
}

/// Append `n` in decimal, left-padded with zeros to at least `width`
/// digits (`{n:0width$}`).
fn push_u128(out: &mut Vec<u8>, mut n: u128, width: usize) {
    // u128::MAX has 39 digits; a width beyond that pads with zeros only.
    let mut digits = [b'0'; 39];
    let mut at = digits.len();
    // Peel 19 digits at a time with one wide division, then work in u64.
    while n > u128::from(u64::MAX) {
        let low = (n % 10_000_000_000_000_000_000) as u64;
        n /= 10_000_000_000_000_000_000;
        at -= 19;
        push_u64_into(&mut digits[at..at + 19], low);
    }
    let mut low = n as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (low % 10) as u8;
        low /= 10;
        if low == 0 {
            break;
        }
    }
    let len = digits.len() - at;
    out.extend(std::iter::repeat_n(b'0', width.saturating_sub(len)));
    out.extend_from_slice(&digits[at..]);
}

/// Write `n` right-aligned in `slot` in decimal, the free places zero.
fn push_u64_into(slot: &mut [u8], mut n: u64) {
    for d in slot.iter_mut().rev() {
        *d = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// `Date`'s `Display`: `YYYY-MM-DD`.
fn push_date(out: &mut Vec<u8>, d: Date) {
    // A date's year is 1..=9999 (`Date::new` checks it), so `{:04}`
    // is its four digits.
    push_u128(out, d.year() as u128, 4);
    out.push(b'-');
    push_u128(out, u128::from(d.month()), 2);
    out.push(b'-');
    push_u128(out, u128::from(d.day()), 2);
}

/// `Decimal`'s `Display`: the unscaled digits with a point before the
/// last `scale` of them, padded so at least one digit precedes the point.
fn push_decimal(out: &mut Vec<u8>, d: Decimal) {
    let (unscaled, scale) = (d.unscaled(), d.scale() as usize);
    if unscaled < 0 {
        out.push(b'-');
    }
    push_u128(out, unscaled.unsigned_abs(), scale + 1);
    if scale > 0 {
        out.insert(out.len() - scale, b'.');
    }
}

impl From<FieldRef<'_>> for Value {
    fn from(f: FieldRef<'_>) -> Value {
        match f {
            FieldRef::Null => Value::Null,
            FieldRef::Int(v) => Value::Int(v),
            FieldRef::Float(v) => Value::Float(v),
            FieldRef::Decimal(d) => Value::Decimal(d),
            FieldRef::Date(d) => Value::Date(d),
            FieldRef::Timestamp(ts) => Value::Timestamp(ts),
            FieldRef::Str(s) => Value::Str(s.to_string()),
            FieldRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            other => f.write_str(&other.display_text()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Value {
        Value::Date(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<Decimal> for Value {
    fn from(v: Decimal) -> Value {
        Value::Decimal(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_coerces_to_anything() {
        for ty in [
            LegacyType::Integer,
            LegacyType::Date,
            LegacyType::VarChar(5),
        ] {
            assert_eq!(Value::Null.coerce_to(ty).unwrap(), Value::Null);
        }
    }

    #[test]
    fn int_range_checks() {
        assert!(Value::Int(127).coerce_to(LegacyType::ByteInt).is_ok());
        assert!(Value::Int(128).coerce_to(LegacyType::ByteInt).is_err());
        assert!(Value::Int(-32768).coerce_to(LegacyType::SmallInt).is_ok());
        assert!(Value::Int(40000).coerce_to(LegacyType::SmallInt).is_err());
        assert!(Value::Int(i64::MAX).coerce_to(LegacyType::BigInt).is_ok());
    }

    #[test]
    fn string_to_int() {
        assert_eq!(
            Value::Str(" 42 ".into())
                .coerce_to(LegacyType::Integer)
                .unwrap(),
            Value::Int(42)
        );
        assert!(Value::Str("4x2".into())
            .coerce_to(LegacyType::Integer)
            .is_err());
    }

    #[test]
    fn char_pads_varchar_checks_length() {
        assert_eq!(
            Value::Str("ab".into())
                .coerce_to(LegacyType::Char(4))
                .unwrap(),
            Value::Str("ab  ".into())
        );
        assert!(Value::Str("abcdef".into())
            .coerce_to(LegacyType::VarChar(5))
            .is_err());
        assert_eq!(
            Value::Str("abcde".into())
                .coerce_to(LegacyType::VarChar(5))
                .unwrap(),
            Value::Str("abcde".into())
        );
    }

    #[test]
    fn date_coercions() {
        let d = Date::new(2012, 1, 1).unwrap();
        assert_eq!(
            Value::Str("2012-01-01".into())
                .coerce_to(LegacyType::Date)
                .unwrap(),
            Value::Date(d)
        );
        assert_eq!(
            Value::Int(d.to_legacy_int() as i64)
                .coerce_to(LegacyType::Date)
                .unwrap(),
            Value::Date(d)
        );
        assert!(Value::Str("xxxx".into())
            .coerce_to(LegacyType::Date)
            .is_err());
        assert!(Value::Float(1.5).coerce_to(LegacyType::Date).is_err());
    }

    #[test]
    fn a_fitting_string_is_moved_not_copied() {
        let s = String::from("abc");
        let ptr = s.as_ptr();
        let coerced = Value::Str(s).coerce_to(LegacyType::VarChar(5)).unwrap();
        assert!(matches!(coerced, Value::Str(out) if out.as_ptr() == ptr));
    }

    #[test]
    fn decimal_fit() {
        let v = Value::Str("123.456".into());
        assert_eq!(
            v.clone().coerce_to(LegacyType::Decimal(6, 2)).unwrap(),
            Value::Decimal(Decimal::parse("123.46").unwrap())
        );
        assert!(v.coerce_to(LegacyType::Decimal(4, 2)).is_err());
    }

    #[test]
    fn float_to_int_requires_integral() {
        assert_eq!(
            Value::Float(5.0).coerce_to(LegacyType::Integer).unwrap(),
            Value::Int(5)
        );
        assert!(Value::Float(5.5).coerce_to(LegacyType::Integer).is_err());
    }

    #[test]
    fn display_text_conventions() {
        assert_eq!(Value::Null.display_text(), "");
        assert_eq!(Value::Float(2.0).display_text(), "2.0");
        assert_eq!(Value::Bytes(vec![0xAB, 0x01]).display_text(), "AB01");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn timestamp_coercion() {
        let ts = Value::Str("2023-01-02 03:04:05".into())
            .coerce_to(LegacyType::Timestamp)
            .unwrap();
        assert_eq!(ts.display_text(), "2023-01-02 03:04:05");
        let from_date = Value::Date(Date::new(2023, 1, 2).unwrap())
            .coerce_to(LegacyType::Timestamp)
            .unwrap();
        assert_eq!(from_date.display_text(), "2023-01-02 00:00:00");
    }
}
