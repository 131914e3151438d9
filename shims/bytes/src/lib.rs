//! Minimal `bytes`-compatible byte buffers for offline builds.
//!
//! [`Bytes`] is a cheaply-cloneable view into shared immutable storage;
//! [`BytesMut`] is a growable buffer; [`Buf`]/[`BufMut`] are the cursor
//! traits the protocol codecs are written against. Only little-endian
//! accessors are provided — the legacy wire format is LE throughout.

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

fn resolve_range(range: impl RangeBounds<usize>, len: usize) -> (usize, usize) {
    let start = match range.start_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n + 1,
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&n) => n + 1,
        Bound::Excluded(&n) => n,
        Bound::Unbounded => len,
    };
    assert!(start <= end && end <= len, "range out of bounds");
    (start, end)
}

/// A cheaply-cloneable immutable byte buffer. Like upstream `bytes`, it
/// keeps the `Vec` it was made from behind its shared handle, so
/// `From<Vec<u8>>` moves the buffer instead of copying it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Buffer over a static slice, copied once: the shim keeps no
    /// borrowed storage, so unlike upstream `bytes` this is not free.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Buffer copied from `data`: one copy, into the `Vec` the buffer
    /// then keeps.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (start, end) = resolve_range(range, self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's buffer as it is: no byte is copied.
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
    /// Read offset: everything before it has been consumed via `advance`.
    /// Compacted lazily (see [`BytesMut::compact_lazily`]) so consuming
    /// stays O(1) and appending stays amortized O(1) per byte.
    head: usize,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
            head: 0,
        }
    }

    /// Length of the unconsumed portion.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether the unconsumed portion is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.compact_lazily();
        self.buf.reserve(additional);
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.compact_lazily();
        self.buf.extend_from_slice(data);
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.compact();
        Bytes::from(self.buf)
    }

    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Compact only once the consumed prefix is at least as long as the
    /// unconsumed rest: each byte moved is paid for by a byte consumed
    /// since the last compaction.
    fn compact_lazily(&mut self) {
        if self.head >= self.len() {
            self.compact();
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.head..]
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let head = self.head;
        &mut self.buf[head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.len())
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf, head: 0 }
    }
}

macro_rules! buf_get_impl {
    ($($name:ident => $ty:ty),* $(,)?) => {
        $(
            /// Read one little-endian value, advancing the cursor.
            fn $name(&mut self) -> $ty {
                let mut raw = [0u8; std::mem::size_of::<$ty>()];
                self.copy_to_slice(&mut raw);
                <$ty>::from_le_bytes(raw)
            }
        )*
    };
}

/// Cursor-style reads over a contiguous byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read into `dst`, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Read `len` bytes into an owned [`Bytes`], advancing the cursor.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get_impl! {
        get_u16_le => u16,
        get_i16_le => i16,
        get_u32_le => u32,
        get_i32_le => i32,
        get_u64_le => u64,
        get_i64_le => i64,
        get_u128_le => u128,
        get_i128_le => i128,
    }

    /// Read one little-endian f64.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    /// Read one little-endian f32.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    /// A slice sharing this buffer's storage: no copy.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(..len);
        self.advance(len);
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.head += cnt;
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        (**self).copy_to_bytes(len)
    }
}

macro_rules! buf_put_impl {
    ($($name:ident => $ty:ty),* $(,)?) => {
        $(
            /// Append one value in little-endian order.
            fn $name(&mut self, v: $ty) {
                self.put_slice(&v.to_le_bytes());
            }
        )*
    };
}

/// Append-style writes into a growable byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    buf_put_impl! {
        put_u16_le => u16,
        put_i16_le => i16,
        put_u32_le => u32,
        put_i32_le => i32,
        put_u64_le => u64,
        put_i64_le => i64,
        put_u128_le => u128,
        put_i128_le => i128,
    }

    /// Append one little-endian f64.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    /// Append one little-endian f32.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_shares_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.as_ptr(), b[1..].as_ptr());
        assert_eq!(s.slice(1..).as_ptr(), b[2..].as_ptr());
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn bytes_from_vec_keeps_the_vec_buffer() {
        let v = vec![9u8; 64];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> must move, not copy");
        // A slice and a clone view the same storage.
        assert_eq!(b.slice(8..).as_ptr(), at.wrapping_add(8));
        assert_eq!(b.clone().as_ptr(), at);
        // So does a frozen `BytesMut` with nothing consumed.
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"frame");
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at);
    }

    #[test]
    fn copy_from_slice_copies_once_into_its_own_storage() {
        let src = [1u8, 2, 3, 4];
        let b = Bytes::copy_from_slice(&src);
        assert_ne!(b.as_ptr(), src.as_ptr());
        assert_eq!(&b[..], &src);
        let tail = b.slice(2..);
        assert_eq!(tail.as_ptr(), b[2..].as_ptr());
        assert_eq!(&tail[..], &[3, 4]);
    }

    #[test]
    fn bytes_buf_cursor() {
        let mut b = Bytes::from(vec![1, 0, 2, 0, 0, 0]);
        assert_eq!(b.get_u16_le(), 1);
        assert_eq!(b.get_u32_le(), 2);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn slice_ref_buf() {
        let data = [7u8, 0, 42];
        let mut cursor = &data[..];
        assert_eq!(cursor.get_u16_le(), 7);
        assert_eq!(cursor.get_u8(), 42);
        // Rvalue receiver form used by the frame decoder.
        assert_eq!((&data[..2]).get_u16_le(), 7);
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(0xDEAD_BEEF);
        m.put_i64_le(-5);
        m.put_f64_le(1.5);
        m.put_i128_le(-12345);
        let mut r = m.freeze();
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.get_i128_le(), -12345);
    }

    #[test]
    fn bytes_mut_advance_freeze() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello world");
        m.advance(6);
        assert_eq!(&m[..], b"world");
        m.advance(1);
        assert_eq!(&m[..], b"orld");
        assert_eq!(&m.freeze()[..], b"orld");
    }

    #[test]
    fn bytes_mut_compacts_lazily() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdefgh");
        m.advance(3);
        // Consumed 3 < unconsumed 5: the append leaves the prefix.
        m.extend_from_slice(b"ij");
        assert_eq!((m.head, &m[..]), (3, &b"defghij"[..]));
        m.advance(2);
        // Consumed 5 >= unconsumed 5: the append compacts first.
        m.extend_from_slice(b"k");
        assert_eq!((m.head, &m[..]), (0, &b"fghijk"[..]));
        m.advance(6);
        m.reserve(4);
        assert_eq!((m.head, m.len()), (0, 0));
    }

    #[test]
    fn copy_to_bytes_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let front = b.copy_to_bytes(3);
        assert_eq!(&front[..], &[1, 2, 3]);
        assert_eq!(b.remaining(), 1);
    }

    #[test]
    fn bytes_copy_to_bytes_shares_storage() {
        let whole = Bytes::from(vec![1, 2, 3, 4]);
        let mut b = whole.clone();
        b.advance(1);
        // Through `&mut Bytes`, as a generic reader holds it.
        fn take(mut buf: impl Buf, len: usize) -> Bytes {
            buf.copy_to_bytes(len)
        }
        let mid = take(&mut b, 2);
        assert_eq!(mid.as_ptr(), whole[1..].as_ptr());
        assert_eq!(&b[..], &[4]);
    }
}
