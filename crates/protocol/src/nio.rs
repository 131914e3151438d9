//! Nonblocking frame I/O for readiness-driven servers.
//!
//! The blocking transports in [`crate::transport`] park a thread inside
//! `read()` until a frame arrives — one OS thread per connection. A
//! reactor instead keeps sockets in nonblocking mode and works in terms
//! of *readiness*: when `epoll` reports a socket readable the loop pumps
//! whatever bytes the kernel has into the incremental [`FrameDecoder`],
//! and when a socket is writable it drains whatever reply bytes are
//! still pending. Both directions must tolerate arbitrary tearing:
//! a frame header split across two `read()`s, a 64 MB export chunk that
//! takes dozens of `write()`s to leave the send buffer.
//!
//! This module holds the two transport-agnostic halves of that story:
//!
//! - [`pump_frames`]: read until `WouldBlock` (or a fairness cap),
//!   feeding the decoder and collecting every completed frame.
//! - [`FrameWriter`]: an encode-side queue of whole frames whose
//!   [`flush`](FrameWriter::flush) resumes partial writes across
//!   `WouldBlock` without re-encoding or copying.
//!
//! Neither half owns a socket; the reactor in `etlv-core` wires them to
//! real `TcpStream`s, and the tests here wire them to scripted readers
//! and writers that tear the byte stream at every possible boundary.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use bytes::{Buf, Bytes, BytesMut};

use crate::frame::{Frame, FrameDecoder, FrameError};

/// Fairness cap: maximum bytes pulled off one socket per readiness
/// event. Level-triggered epoll re-reports the socket if more bytes
/// remain, so capping a pump pass bounds how long one firehose
/// connection can monopolize its event loop.
pub const MAX_PUMP_BYTES: usize = 1 << 20;

/// What a pump pass learned about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The socket would block (or the fairness cap was hit); the
    /// connection stays registered for readability.
    Open,
    /// The peer closed its write side (`read` returned 0). Any frames
    /// completed by the final bytes are still delivered in `out`.
    Closed,
}

/// A nonblocking-I/O error: either the socket failed or the byte
/// stream failed frame validation.
#[derive(Debug)]
pub enum NioError {
    /// Transport-level I/O failure.
    Io(io::Error),
    /// Framing violation (bad magic/version/kind/CRC or oversized
    /// payload) — the stream is unrecoverable and the connection
    /// should be dropped.
    Frame(FrameError),
}

impl std::fmt::Display for NioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NioError::Io(e) => write!(f, "i/o error: {e}"),
            NioError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl std::error::Error for NioError {}

impl From<io::Error> for NioError {
    fn from(e: io::Error) -> NioError {
        NioError::Io(e)
    }
}

impl From<FrameError> for NioError {
    fn from(e: FrameError) -> NioError {
        NioError::Frame(e)
    }
}

/// Pump a readable nonblocking source into `decoder`, appending every
/// completed frame to `out`.
///
/// Reads through `scratch` until the source reports `WouldBlock`, the
/// peer closes, or [`MAX_PUMP_BYTES`] have been consumed this pass
/// (level-triggered polling re-reports leftover bytes). `Interrupted`
/// reads are retried. Frames already completed before an error are
/// kept in `out`; framing errors are fatal for the stream.
pub fn pump_frames(
    src: &mut impl Read,
    scratch: &mut [u8],
    decoder: &mut FrameDecoder,
    out: &mut Vec<Frame>,
) -> Result<ReadStatus, NioError> {
    debug_assert!(!scratch.is_empty(), "pump_frames needs a scratch buffer");
    let mut consumed = 0usize;
    loop {
        match src.read(scratch) {
            Ok(0) => {
                drain_decoder(decoder, out)?;
                return Ok(ReadStatus::Closed);
            }
            Ok(n) => {
                decoder.feed(&scratch[..n]);
                drain_decoder(decoder, out)?;
                consumed += n;
                if consumed >= MAX_PUMP_BYTES {
                    return Ok(ReadStatus::Open);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NioError::Io(e)),
        }
    }
}

/// Pop every frame the decoder can currently complete.
fn drain_decoder(decoder: &mut FrameDecoder, out: &mut Vec<Frame>) -> Result<(), FrameError> {
    while let Some(frame) = decoder.next_frame()? {
        out.push(frame);
    }
    Ok(())
}

/// Encode-side staging queue with `WouldBlock`-resumable draining.
///
/// Replies are encoded once by [`queue`](FrameWriter::queue), onto the
/// end of one buffer, or arrive already encoded through
/// [`queue_encoded`](FrameWriter::queue_encoded), which queues the frame
/// whole behind what was queued before it: its bytes go from its own
/// buffer to the socket, uncopied. [`flush`](FrameWriter::flush) then
/// writes as much as the socket will take, keeping the unwritten tail
/// for the next writability event. The reactor registers the connection
/// for `EPOLLOUT` exactly while [`is_empty`](FrameWriter::is_empty) is
/// false.
#[derive(Debug, Default)]
pub struct FrameWriter {
    /// Frames ahead of `tail`, oldest first: runs of queued frames and
    /// frames queued encoded. The front one loses its written bytes as
    /// they leave.
    frames: VecDeque<Bytes>,
    /// The frames queued since the last one queued encoded, back to back.
    tail: BytesMut,
}

impl FrameWriter {
    /// New writer with no pending bytes.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Encode `frame` onto the end of the queue.
    pub fn queue(&mut self, frame: &Frame) {
        frame.encode(&mut self.tail);
    }

    /// Queue a frame already encoded whole, header and CRC included (a
    /// [`FrameBuf`](crate::frame::FrameBuf) sealed off the writer's
    /// thread): its bytes are written as they are.
    pub fn queue_encoded(&mut self, frame: Bytes) {
        if frame.is_empty() {
            return;
        }
        if !self.tail.is_empty() {
            let run = std::mem::take(&mut self.tail);
            self.frames.push_back(run.freeze());
        }
        self.frames.push_back(frame);
    }

    /// Bytes encoded but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.frames.iter().map(|f| f.len()).sum::<usize>() + self.tail.len()
    }

    /// True when every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.tail.is_empty()
    }

    /// Write pending bytes until drained or the destination would
    /// block. Returns `Ok(true)` when the queue is empty, `Ok(false)`
    /// when bytes remain (re-arm for writability). `Interrupted`
    /// writes are retried; a zero-length write is reported as
    /// [`io::ErrorKind::WriteZero`].
    pub fn flush(&mut self, dst: &mut impl Write) -> io::Result<bool> {
        loop {
            let next: &[u8] = match self.frames.front() {
                Some(front) => front,
                None if self.tail.is_empty() => return Ok(true),
                None => &self.tail,
            };
            match dst.write(next) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.written(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// `n` bytes of the next pending buffer left for the socket.
    fn written(&mut self, n: usize) {
        match self.frames.front_mut() {
            Some(front) => {
                front.advance(n);
                if front.is_empty() {
                    self.frames.pop_front();
                }
            }
            None => self.tail.advance(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MsgKind;

    /// Reader that yields the stream in fixed-size slices with a
    /// `WouldBlock` after each one.
    struct ChoppyReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        blocked: bool,
    }

    impl Read for ChoppyReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.blocked && self.pos < self.data.len() {
                self.blocked = false;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.blocked = true;
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::new(MsgKind::Logon, 0, 1, vec![9u8; 33]),
            Frame::new(MsgKind::Keepalive, 3, 2, Vec::new()),
            Frame::new(MsgKind::DataChunk, 3, 3, (0..=255u8).collect::<Vec<u8>>()),
        ]
    }

    #[test]
    fn pump_survives_single_byte_reads() {
        let stream: Vec<u8> = frames().iter().flat_map(|f| f.to_bytes()).collect();
        let mut src = ChoppyReader {
            data: stream,
            pos: 0,
            chunk: 1,
            blocked: false,
        };
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut scratch = [0u8; 64];
        loop {
            match pump_frames(&mut src, &mut scratch, &mut dec, &mut out).unwrap() {
                ReadStatus::Closed => break,
                ReadStatus::Open => continue,
            }
        }
        assert_eq!(out, frames());
    }

    #[test]
    fn writer_resumes_after_would_block() {
        struct OneByteSink {
            out: Vec<u8>,
            ready: bool,
        }
        impl Write for OneByteSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.ready = false;
                self.out.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut w = FrameWriter::new();
        for f in frames() {
            w.queue(&f);
        }
        let expect: Vec<u8> = frames().iter().flat_map(|f| f.to_bytes()).collect();
        let mut sink = OneByteSink {
            out: Vec::new(),
            ready: false,
        };
        let mut flushes = 0usize;
        while !w.flush(&mut sink).unwrap() {
            flushes += 1;
            assert!(flushes < expect.len() * 4, "flush failed to make progress");
        }
        assert!(w.is_empty());
        assert_eq!(sink.out, expect);
    }

    /// Frames the writer encodes share one buffer, so a run of small
    /// replies leaves in one write, and a frame queued encoded between
    /// two runs adds one more.
    #[test]
    fn queued_frames_leave_in_one_write() {
        let mut w = FrameWriter::new();
        let mut sink = Vec::new();
        for f in frames() {
            w.queue(&f);
        }
        assert_eq!(w.frames.len(), 0, "one buffer");
        w.queue_encoded(Bytes::from(frames()[0].to_bytes()));
        w.queue(&frames()[1]);
        assert_eq!(w.frames.len(), 2, "the run, then the encoded frame");
        assert!(w.flush(&mut sink).unwrap());
        let want: Vec<u8> = frames()
            .iter()
            .chain([&frames()[0], &frames()[1]])
            .flat_map(|f| f.to_bytes())
            .collect();
        assert_eq!(sink, want);
    }

    /// Frames queued encoded go out as they are, in queue order with
    /// the frames the writer encodes, through partial writes.
    #[test]
    fn encoded_frames_keep_their_place() {
        let mut w = FrameWriter::new();
        let mut expect = Vec::new();
        for (i, f) in frames().into_iter().enumerate() {
            let bytes = f.to_bytes();
            expect.extend_from_slice(&bytes);
            if i % 2 == 0 {
                w.queue_encoded(Bytes::from(bytes));
            } else {
                w.queue(&f);
            }
        }
        w.queue_encoded(Bytes::new());
        assert_eq!(w.pending(), expect.len());
        let mut out = Vec::new();
        // A sink that takes at most 5 bytes a call.
        struct Narrow<'a>(&'a mut Vec<u8>);
        impl Write for Narrow<'_> {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        assert!(w.flush(&mut Narrow(&mut out)).unwrap());
        assert!(w.is_empty());
        assert_eq!(out, expect);
    }

    #[test]
    fn bad_stream_is_fatal() {
        let mut bytes = frames()[0].to_bytes();
        bytes[0] ^= 0xFF; // corrupt the magic
        let mut src = ChoppyReader {
            data: bytes,
            pos: 0,
            chunk: 4096,
            blocked: false,
        };
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut scratch = [0u8; 4096];
        let err = pump_frames(&mut src, &mut scratch, &mut dec, &mut out).unwrap_err();
        assert!(matches!(err, NioError::Frame(FrameError::BadMagic(_))));
    }
}
