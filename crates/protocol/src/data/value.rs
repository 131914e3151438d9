//! The legacy value model: a dynamically-typed datum plus coercion rules.

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
    /// copied.
    pub fn coerce_to(self, ty: LegacyType) -> Result<Value, ValueError> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        match ty {
            LegacyType::ByteInt => self.to_int_ranged(i8::MIN as i64, i8::MAX as i64, "BYTEINT"),
            LegacyType::SmallInt => {
                self.to_int_ranged(i16::MIN as i64, i16::MAX as i64, "SMALLINT")
            }
            LegacyType::Integer => self.to_int_ranged(i32::MIN as i64, i32::MAX as i64, "INTEGER"),
            LegacyType::BigInt => self.to_int_ranged(i64::MIN, i64::MAX, "BIGINT"),
            LegacyType::Float => Ok(Value::Float(self.to_f64()?)),
            LegacyType::Decimal(p, s) => {
                let d = self.to_decimal()?;
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
            LegacyType::Char(n) => {
                let s = self.into_text();
                if s.len() > n as usize {
                    return Err(err(
                        Cause::Length,
                        format!("string length {} exceeds CHAR({n})", s.len()),
                    ));
                }
                // CHAR is space padded to its declared width.
                let mut padded = s;
                while padded.len() < n as usize {
                    padded.push(' ');
                }
                Ok(Value::Str(padded))
            }
            LegacyType::VarChar(n) | LegacyType::VarCharUnicode(n) => {
                let s = self.into_text();
                if s.len() > n as usize {
                    return Err(err(
                        Cause::Length,
                        format!("string length {} exceeds VARCHAR({n})", s.len()),
                    ));
                }
                Ok(Value::Str(s))
            }
            LegacyType::Date => match self {
                Value::Date(d) => Ok(Value::Date(d)),
                Value::Str(s) => Ok(Value::Date(Date::parse_iso(&s)?)),
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
                Value::Str(s) => Ok(Value::Timestamp(Timestamp::parse(&s)?)),
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

    fn to_int_ranged(&self, min: i64, max: i64, tyname: &str) -> Result<Value, ValueError> {
        let v = match self {
            Value::Int(v) => *v,
            Value::Float(f) => {
                if f.fract() != 0.0 || *f < min as f64 || *f > max as f64 {
                    return Err(err(
                        Cause::Value,
                        format!("float {f} not representable as {tyname}"),
                    ));
                }
                *f as i64
            }
            Value::Decimal(d) => d.to_i64_exact().ok_or_else(|| {
                err(
                    Cause::Value,
                    format!("decimal {d} not integral for {tyname}"),
                )
            })?,
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map_err(|_| err(Cause::Value, format!("'{s}' is not a valid {tyname}")))?,
            other => return Err(cannot_cast(Cause::Value, other, tyname)),
        };
        if v < min || v > max {
            return Err(err(
                Cause::Overflow,
                format!("{v} out of range for {tyname}"),
            ));
        }
        Ok(Value::Int(v))
    }

    /// Numeric value as `f64` (errors for non-numeric types).
    pub fn to_f64(&self) -> Result<f64, ValueError> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(f) => Ok(*f),
            Value::Decimal(d) => Ok(d.to_f64()),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map_err(|_| err(Cause::Value, format!("'{s}' is not a valid FLOAT"))),
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

    /// Text rendering used when coercing to character types: a string is
    /// moved, anything else rendered by [`Value::display_text`].
    fn into_text(self) -> String {
        match self {
            Value::Str(s) => s,
            other => other.display_text(),
        }
    }

    /// Canonical text rendering (NULL renders as the empty string; callers
    /// that need NULL-awareness must check [`Value::is_null`] first).
    pub fn display_text(&self) -> String {
        match self {
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
