//! The legacy EDW data model: types, values, dates, and decimals.
//!
//! The legacy system predates the CDW's type system; bridging the two is one
//! of the virtualizer's jobs. This module defines the *legacy* side of that
//! bridge. The CDW side lives in `etlv-cdw`; the mapping between them lives
//! in the virtualizer's cross-compiler.

mod date;
mod decimal;
mod value;

pub use date::{Date, DateFormat, DateParseError, Timestamp};
pub use decimal::{Decimal, DecimalError, MAX_PRECISION};
pub use value::{coerce_text, parse_float, FieldRef, Value, ValueError};

use std::fmt;

/// A type in the legacy EDW type system.
///
/// These mirror the types a legacy ETL script can declare in a `.field`
/// statement and the types the legacy server stores. String lengths are in
/// bytes, as legacy systems measured them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LegacyType {
    /// 1-byte signed integer (`BYTEINT`).
    ByteInt,
    /// 2-byte signed integer (`SMALLINT`).
    SmallInt,
    /// 4-byte signed integer (`INTEGER`).
    Integer,
    /// 8-byte signed integer (`BIGINT`).
    BigInt,
    /// 8-byte IEEE float (`FLOAT`).
    Float,
    /// Fixed-point decimal with precision and scale (`DECIMAL(p,s)`).
    Decimal(u8, u8),
    /// Fixed-width character field, space padded (`CHAR(n)`).
    Char(u16),
    /// Variable-width character field (`VARCHAR(n)`).
    VarChar(u16),
    /// Variable-width unicode character field (`VARCHAR(n) UNICODE`).
    /// The legacy system distinguished Latin and Unicode character data;
    /// the CDW maps this to a national varchar type.
    VarCharUnicode(u16),
    /// Calendar date, stored as the packed legacy integer encoding.
    Date,
    /// Timestamp with microsecond precision.
    Timestamp,
    /// Variable-length raw bytes (`VARBYTE(n)`).
    VarByte(u16),
}

impl LegacyType {
    /// A stable numeric tag for wire encoding.
    pub fn tag(self) -> u8 {
        match self {
            LegacyType::ByteInt => 1,
            LegacyType::SmallInt => 2,
            LegacyType::Integer => 3,
            LegacyType::BigInt => 4,
            LegacyType::Float => 5,
            LegacyType::Decimal(_, _) => 6,
            LegacyType::Char(_) => 7,
            LegacyType::VarChar(_) => 8,
            LegacyType::VarCharUnicode(_) => 9,
            LegacyType::Date => 10,
            LegacyType::Timestamp => 11,
            LegacyType::VarByte(_) => 12,
        }
    }

    /// `DECIMAL(p, s)`, if `1 ≤ p ≤ MAX_PRECISION` and `s ≤ p`. The one
    /// rule for a declared decimal: the SQL type parser (and so `.field`
    /// declarations) and the wire decoder both apply it.
    pub fn decimal(p: u64, s: u64) -> Option<LegacyType> {
        ((1..=MAX_PRECISION as u64).contains(&p) && s <= p)
            .then_some(LegacyType::Decimal(p as u8, s as u8))
    }

    /// Reconstruct a type from its wire tag plus the two parameters;
    /// `None` for an unknown tag or a `DECIMAL` outside [`decimal`]'s rule.
    ///
    /// [`decimal`]: LegacyType::decimal
    pub fn from_tag(tag: u8, p1: u16, p2: u16) -> Option<LegacyType> {
        Some(match tag {
            1 => LegacyType::ByteInt,
            2 => LegacyType::SmallInt,
            3 => LegacyType::Integer,
            4 => LegacyType::BigInt,
            5 => LegacyType::Float,
            6 => return LegacyType::decimal(p1.into(), p2.into()),
            7 => LegacyType::Char(p1),
            8 => LegacyType::VarChar(p1),
            9 => LegacyType::VarCharUnicode(p1),
            10 => LegacyType::Date,
            11 => LegacyType::Timestamp,
            12 => LegacyType::VarByte(p1),
            _ => return None,
        })
    }

    /// The two parameter values carried alongside the tag on the wire.
    pub fn params(self) -> (u16, u16) {
        match self {
            LegacyType::Decimal(p, s) => (p as u16, s as u16),
            LegacyType::Char(n)
            | LegacyType::VarChar(n)
            | LegacyType::VarCharUnicode(n)
            | LegacyType::VarByte(n) => (n, 0),
            _ => (0, 0),
        }
    }

    /// Whether values of this type carry character data.
    pub fn is_character(self) -> bool {
        matches!(
            self,
            LegacyType::Char(_) | LegacyType::VarChar(_) | LegacyType::VarCharUnicode(_)
        )
    }

    /// Whether values of this type are numeric.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            LegacyType::ByteInt
                | LegacyType::SmallInt
                | LegacyType::Integer
                | LegacyType::BigInt
                | LegacyType::Float
                | LegacyType::Decimal(_, _)
        )
    }

    /// The maximum encoded size of a non-null value of this type in the
    /// legacy binary record format, excluding the null-indicator bits.
    pub fn max_encoded_len(self) -> usize {
        match self {
            LegacyType::ByteInt => 1,
            LegacyType::SmallInt => 2,
            LegacyType::Integer => 4,
            LegacyType::BigInt => 8,
            LegacyType::Float => 8,
            LegacyType::Decimal(_, _) => 16,
            LegacyType::Char(n) => n as usize,
            LegacyType::VarChar(n) | LegacyType::VarCharUnicode(n) | LegacyType::VarByte(n) => {
                2 + n as usize
            }
            LegacyType::Date => 4,
            LegacyType::Timestamp => 8,
        }
    }

    /// Render the type as legacy SQL DDL syntax.
    pub fn legacy_sql(&self) -> String {
        match self {
            LegacyType::ByteInt => "BYTEINT".into(),
            LegacyType::SmallInt => "SMALLINT".into(),
            LegacyType::Integer => "INTEGER".into(),
            LegacyType::BigInt => "BIGINT".into(),
            LegacyType::Float => "FLOAT".into(),
            LegacyType::Decimal(p, s) => format!("DECIMAL({p},{s})"),
            LegacyType::Char(n) => format!("CHAR({n})"),
            LegacyType::VarChar(n) => format!("VARCHAR({n})"),
            LegacyType::VarCharUnicode(n) => format!("VARCHAR({n}) CHARACTER SET UNICODE"),
            LegacyType::Date => "DATE".into(),
            LegacyType::Timestamp => "TIMESTAMP".into(),
            LegacyType::VarByte(n) => format!("VARBYTE({n})"),
        }
    }
}

impl fmt::Display for LegacyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.legacy_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_all_types() {
        let types = [
            LegacyType::ByteInt,
            LegacyType::SmallInt,
            LegacyType::Integer,
            LegacyType::BigInt,
            LegacyType::Float,
            LegacyType::Decimal(18, 4),
            LegacyType::Char(10),
            LegacyType::VarChar(255),
            LegacyType::VarCharUnicode(100),
            LegacyType::Date,
            LegacyType::Timestamp,
            LegacyType::VarByte(64),
        ];
        for t in types {
            let (p1, p2) = t.params();
            assert_eq!(LegacyType::from_tag(t.tag(), p1, p2), Some(t));
        }
    }

    #[test]
    fn from_tag_rejects_unknown() {
        assert_eq!(LegacyType::from_tag(0, 0, 0), None);
        assert_eq!(LegacyType::from_tag(99, 0, 0), None);
    }

    #[test]
    fn classification() {
        assert!(LegacyType::VarChar(5).is_character());
        assert!(!LegacyType::VarByte(5).is_character());
        assert!(LegacyType::Decimal(10, 2).is_numeric());
        assert!(!LegacyType::Date.is_numeric());
    }

    #[test]
    fn legacy_sql_rendering() {
        assert_eq!(LegacyType::Decimal(10, 2).legacy_sql(), "DECIMAL(10,2)");
        assert_eq!(
            LegacyType::VarCharUnicode(50).legacy_sql(),
            "VARCHAR(50) CHARACTER SET UNICODE"
        );
    }
}
