//! Wire-propagated trace context.
//!
//! A [`TraceContext`] names the causal trace a job belongs to: a nonzero
//! `trace_id` minted once per job (normally by the client) and the span id
//! of the emitter's current span, which becomes the *parent* of whatever
//! the receiver does on the job's behalf. It travels as an **optional
//! trailer** appended to the `Logon` and `BeginLoad` payloads:
//!
//! ```text
//! +--------+---------+----------+-------------+
//! | marker | version | trace_id | parent_span |
//! |  u8    |   u8    |  u64 le  |   u64 le    |
//! +--------+---------+----------+-------------+
//! ```
//!
//! Backward compatibility is structural: legacy encoders simply end the
//! payload where the trailer would start, and legacy decoders never read
//! past the fields they know — so an old client against a new gateway
//! yields `None` (the gateway mints a context), and a new client against
//! the old reference server is ignored bytes. A trailer that *starts*
//! (marker byte present) but is truncated or carries an unknown version is
//! a corrupted frame and decodes to an error rather than silently dropping
//! causality.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut};

use crate::frame::FrameError;
use crate::wire::WireReader;

/// First byte of an encoded trace trailer. Deliberately not a printable
/// ASCII character so truncated text payloads cannot alias into one.
pub const TRACE_MARKER: u8 = 0xC7;

/// Trailer layout version this crate encodes.
pub const TRACE_VERSION: u8 = 1;

/// Encoded trailer size in bytes.
pub const TRACE_TRAILER_LEN: usize = 1 + 1 + 8 + 8;

/// A causal trace context: which trace a request belongs to and which
/// span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identifier, nonzero. All spans of one job share it.
    pub trace_id: u64,
    /// Span id of the sender's current span (0 = the sender has no span
    /// of its own; the receiver's root span parents directly to the
    /// trace).
    pub parent_span: u64,
}

impl TraceContext {
    /// Mint a fresh context with a process-unique nonzero trace id and no
    /// parent span.
    pub fn mint() -> TraceContext {
        TraceContext {
            trace_id: mint_trace_id(),
            parent_span: 0,
        }
    }

    /// Append this context as a payload trailer.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(TRACE_MARKER);
        buf.put_u8(TRACE_VERSION);
        buf.put_u64_le(self.trace_id);
        buf.put_u64_le(self.parent_span);
    }

    /// Append an optional context (absent ⇒ nothing is written, producing
    /// a byte-identical legacy payload).
    pub fn encode_opt(ctx: Option<&TraceContext>, buf: &mut impl BufMut) {
        if let Some(ctx) = ctx {
            ctx.encode(buf);
        }
    }

    /// Decode the optional trailer from whatever follows the fixed payload
    /// fields. Empty remainder or a non-marker first byte ⇒ `Ok(None)`
    /// (legacy peer / unknown extension); a marker followed by a short or
    /// unversioned trailer ⇒ corruption.
    pub fn decode_opt(buf: &mut impl Buf) -> Result<Option<TraceContext>, FrameError> {
        let r = &mut WireReader::new(buf);
        if r.peek_u8() != Some(TRACE_MARKER) {
            return Ok(None);
        }
        let trailer = r
            .bytes(TRACE_TRAILER_LEN)
            .map_err(|_| FrameError::Malformed("truncated trace context"))?;
        let t = &mut WireReader::new(trailer);
        t.u8()?; // the marker
        if t.u8()? != TRACE_VERSION {
            return Err(FrameError::Malformed("unknown trace context version"));
        }
        let (trace_id, parent_span) = (t.u64()?, t.u64()?);
        if trace_id == 0 {
            return Err(FrameError::Malformed("zero trace id"));
        }
        Ok(Some(TraceContext {
            trace_id,
            parent_span,
        }))
    }
}

/// Mint a nonzero trace id unique within this process and overwhelmingly
/// unique across processes: a splitmix64 finalizer over wall-clock nanos,
/// the process id, and a process-local counter.
pub fn mint_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed = nanos
        ^ ((std::process::id() as u64) << 32)
        ^ COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    crate::rng::splitmix64(seed) | 1 // never zero
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};

    #[test]
    fn roundtrip_present() {
        let ctx = TraceContext {
            trace_id: 0xABCD_EF01_2345_6789,
            parent_span: 42,
        };
        let mut buf = BytesMut::new();
        ctx.encode(&mut buf);
        assert_eq!(buf.len(), TRACE_TRAILER_LEN);
        let mut bytes = buf.freeze();
        assert_eq!(TraceContext::decode_opt(&mut bytes).unwrap(), Some(ctx));
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn absent_decodes_to_none() {
        let mut empty = Bytes::new();
        assert_eq!(TraceContext::decode_opt(&mut empty).unwrap(), None);
        // Unknown trailing extension (non-marker byte) is left untouched.
        let mut other = Bytes::from_static(&[0x01, 0x02]);
        assert_eq!(TraceContext::decode_opt(&mut other).unwrap(), None);
        assert_eq!(other.remaining(), 2);
    }

    #[test]
    fn truncated_and_bad_version_rejected() {
        let ctx = TraceContext::mint();
        let mut buf = BytesMut::new();
        ctx.encode(&mut buf);
        let mut short = buf.clone().freeze().slice(0..TRACE_TRAILER_LEN - 3);
        assert!(TraceContext::decode_opt(&mut short).is_err());

        let mut bad = buf.to_vec();
        bad[1] = 99; // version
        let mut bad = Bytes::from(bad);
        assert!(TraceContext::decode_opt(&mut bad).is_err());
    }

    #[test]
    fn minted_ids_unique_and_nonzero() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
        assert_ne!(TraceContext::mint().trace_id, 0);
    }
}
