//! Record layouts: the `.layout` / `.field` declarations of an ETL script.
//!
//! A layout names the fields of the client-side input records and their
//! legacy types. The same layout governs the wire encoding of data chunks
//! and the binding of `:FIELD` placeholders in the job's DML statement.

use bytes::{Buf, BufMut};

use crate::data::LegacyType;
use crate::frame::FrameError;
use crate::wire::{put_legacy_type, write_string, WireReader, LEGACY_TYPE_LEN};

/// One field of a record layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, as referenced by `:NAME` placeholders.
    pub name: String,
    /// Declared legacy type.
    pub ty: LegacyType,
    /// Whether the field may be NULL (vartext empty fields, binary
    /// indicator bits).
    pub nullable: bool,
}

impl FieldDef {
    /// Convenience constructor for a nullable field.
    pub fn new(name: impl Into<String>, ty: LegacyType) -> FieldDef {
        FieldDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// A named record layout: an ordered list of typed fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layout {
    /// Layout name (from `.layout NAME;`).
    pub name: String,
    /// Ordered field definitions.
    pub fields: Vec<FieldDef>,
}

impl Layout {
    /// Create an empty layout with a name.
    pub fn new(name: impl Into<String>) -> Layout {
        Layout {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// Append a nullable field (builder style).
    pub fn field(mut self, name: impl Into<String>, ty: LegacyType) -> Layout {
        self.fields.push(FieldDef::new(name, ty));
        self
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the field named `name` (case-insensitive, as the legacy
    /// scripting language was).
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Number of null-indicator bytes a binary record carries.
    pub fn indicator_bytes(&self) -> usize {
        self.fields.len().div_ceil(8)
    }

    /// Upper bound on the binary-encoded size of one record.
    pub fn max_record_len(&self) -> usize {
        2 + self.indicator_bytes()
            + self
                .fields
                .iter()
                .map(|f| f.ty.max_encoded_len())
                .sum::<usize>()
    }

    /// Serialize the layout for transmission in a `BeginLoad` message.
    pub fn encode(&self, buf: &mut impl BufMut) {
        write_string(buf, &self.name);
        buf.put_u16_le(self.fields.len() as u16);
        for f in &self.fields {
            write_string(buf, &f.name);
            put_legacy_type(buf, f.ty);
            buf.put_u8(f.nullable as u8);
        }
    }

    /// Deserialize a layout from a message payload.
    pub fn decode(buf: &mut impl Buf) -> Result<Layout, FrameError> {
        // A field is at least an empty name, a type and its nullable flag.
        const MIN_FIELD_LEN: usize = 2 + LEGACY_TYPE_LEN + 1;
        let r = &mut WireReader::new(buf);
        let name = r.string()?;
        let n = r.u16()?.into();
        let fields = (0..r.count(n, MIN_FIELD_LEN)?)
            .map(|_| {
                Ok(FieldDef {
                    name: r.string()?,
                    ty: r.legacy_type()?,
                    nullable: r.flag()?,
                })
            })
            .collect::<Result<_, FrameError>>()?;
        Ok(Layout { name, fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cust_layout() -> Layout {
        Layout::new("CustLayout")
            .field("CUST_ID", LegacyType::VarChar(5))
            .field("CUST_NAME", LegacyType::VarChar(50))
            .field("JOIN_DATE", LegacyType::VarChar(10))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let layout = cust_layout();
        let mut buf = Vec::new();
        layout.encode(&mut buf);
        let decoded = Layout::decode(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, layout);
    }

    #[test]
    fn field_index_is_case_insensitive() {
        let layout = cust_layout();
        assert_eq!(layout.field_index("cust_id"), Some(0));
        assert_eq!(layout.field_index("JOIN_DATE"), Some(2));
        assert_eq!(layout.field_index("missing"), None);
    }

    #[test]
    fn indicator_bytes_rounding() {
        let mut layout = Layout::new("L");
        assert_eq!(layout.indicator_bytes(), 0);
        for i in 0..8 {
            layout
                .fields
                .push(FieldDef::new(format!("F{i}"), LegacyType::Integer));
        }
        assert_eq!(layout.indicator_bytes(), 1);
        layout.fields.push(FieldDef::new("F8", LegacyType::Integer));
        assert_eq!(layout.indicator_bytes(), 2);
    }

    #[test]
    fn decode_rejects_truncation() {
        let layout = cust_layout();
        let mut buf = Vec::new();
        layout.encode(&mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(Layout::decode(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_bad_type_tag() {
        let layout = Layout::new("L").field("A", LegacyType::Integer);
        let mut buf = Vec::new();
        layout.encode(&mut buf);
        // Corrupt the type tag (position: 2+1 name + 2 nfields + 2+1 fname).
        let tag_pos = 2 + 1 + 2 + 2 + 1;
        buf[tag_pos] = 0xFF;
        assert!(Layout::decode(&mut buf.as_slice()).is_err());
    }
}
