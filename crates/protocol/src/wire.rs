//! The one bounds-checked payload reader, and the writers it mirrors.
//!
//! Every message payload is decoded through a [`WireReader`]. Each read
//! returns [`FrameError::Truncated`] when the bytes run out, and
//! [`WireReader::count`] is the one rule a count read off the wire must
//! pass before it sizes a `Vec` or drives a loop: every element it
//! announces must fit in the bytes that remain. So no peer can make a
//! decoder panic, or size an allocation with a count its bytes do not
//! back.

use bytes::{Buf, BufMut, Bytes};

use crate::data::LegacyType;
use crate::frame::FrameError;
use crate::layout::Layout;
use crate::trace::TraceContext;

/// Bytes of one [`LegacyType`] on the wire: a tag and two `u16`
/// parameters.
pub(crate) const LEGACY_TYPE_LEN: usize = 1 + 2 + 2;

/// A bounds-checked cursor over a payload.
#[derive(Debug)]
pub struct WireReader<B> {
    buf: B,
}

macro_rules! read_le {
    ($($name:ident => $ty:ty, $get:ident;)*) => {
        $(
            /// Read one little-endian value.
            pub fn $name(&mut self) -> Result<$ty, FrameError> {
                Ok(self.take(std::mem::size_of::<$ty>())?.$get())
            }
        )*
    };
}

impl<B: Buf> WireReader<B> {
    /// A reader at the start of `buf`.
    pub fn new(buf: B) -> WireReader<B> {
        WireReader { buf }
    }

    /// The next byte, without consuming it.
    pub fn peek_u8(&self) -> Option<u8> {
        self.buf.chunk().first().copied()
    }

    /// The underlying buffer, once `n` more bytes are known to be there.
    fn take(&mut self, n: usize) -> Result<&mut B, FrameError> {
        if self.buf.remaining() < n {
            return Err(FrameError::Truncated);
        }
        Ok(&mut self.buf)
    }

    read_le! {
        u8 => u8, get_u8;
        u16 => u16, get_u16_le;
        u32 => u32, get_u32_le;
        u64 => u64, get_u64_le;
        i32 => i32, get_i32_le;
        i64 => i64, get_i64_le;
        i128 => i128, get_i128_le;
        f64 => f64, get_f64_le;
    }

    /// Read a one-byte flag (nonzero is `true`).
    pub fn flag(&mut self) -> Result<bool, FrameError> {
        Ok(self.u8()? != 0)
    }

    /// Read `len` raw bytes. Over a [`Bytes`] this is a slice sharing the
    /// payload's storage, not a copy.
    pub fn bytes(&mut self, len: usize) -> Result<Bytes, FrameError> {
        Ok(self.take(len)?.copy_to_bytes(len))
    }

    /// Read `u32`-length-prefixed raw bytes.
    pub fn lbytes(&mut self) -> Result<Bytes, FrameError> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16()?.into();
        utf8(self.bytes(len)?)
    }

    /// Read a `u32`-length-prefixed UTF-8 string (SQL text, bodies and
    /// messages, which can exceed 64 KiB).
    pub fn lstring(&mut self) -> Result<String, FrameError> {
        utf8(self.lbytes()?)
    }

    /// Check a count read off the wire: `n` elements of at least
    /// `min_bytes_each` bytes must fit in the bytes that remain
    /// (`Truncated` if not). Elements that may take no bytes at all cannot
    /// be bounded, so their count must be zero (`Malformed` if not).
    pub fn count(&self, n: usize, min_bytes_each: usize) -> Result<usize, FrameError> {
        if n == 0 {
            Ok(0)
        } else if min_bytes_each == 0 {
            Err(FrameError::Malformed("count of empty elements"))
        } else if n > self.buf.remaining() / min_bytes_each {
            Err(FrameError::Truncated)
        } else {
            Ok(n)
        }
    }

    /// Read a [`LegacyType`]: its tag and two `u16` parameters, as layout
    /// fields and `SqlResult` columns both carry it.
    pub fn legacy_type(&mut self) -> Result<LegacyType, FrameError> {
        let tag = self.u8()?;
        let p1 = self.u16()?;
        let p2 = self.u16()?;
        LegacyType::from_tag(tag, p1, p2).ok_or(FrameError::Malformed("invalid legacy type"))
    }

    /// Read a record [`Layout`].
    pub fn layout(&mut self) -> Result<Layout, FrameError> {
        Layout::decode(&mut self.buf)
    }

    /// Read the optional trace trailer (see [`TraceContext::decode_opt`]).
    pub fn trace(&mut self) -> Result<Option<TraceContext>, FrameError> {
        TraceContext::decode_opt(&mut self.buf)
    }
}

fn utf8(bytes: Bytes) -> Result<String, FrameError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("invalid UTF-8 string"))
}

/// Write a `u16`-length-prefixed UTF-8 string.
pub(crate) fn write_string(buf: &mut impl BufMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string too long for wire");
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Write a `u32`-length-prefixed UTF-8 string.
pub(crate) fn write_lstring(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Write a [`LegacyType`]: its tag and two parameters.
pub(crate) fn put_legacy_type(buf: &mut impl BufMut, ty: LegacyType) {
    let (p1, p2) = ty.params();
    buf.put_u8(ty.tag());
    buf.put_u16_le(p1);
    buf.put_u16_le(p2);
}
