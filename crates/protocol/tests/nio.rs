//! Satellite: incremental frame decoding under worst-case tearing.
//!
//! The reactor reads whatever the kernel has — a frame header may
//! straddle two readiness events, a CRC trailer may arrive one byte at
//! a time. These tests split a multi-frame byte stream at *every* byte
//! boundary through the nonblocking pump and assert the decoded frames
//! are byte-exact equal to what the blocking `TcpTransport` read path
//! produces from the same stream, plus a torn-write resumption test
//! for the encode side.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};

use etlv_protocol::frame::{Frame, FrameDecoder, HEADER_LEN, TRAILER_LEN};
use etlv_protocol::nio::{pump_frames, FrameWriter, ReadStatus};
use etlv_protocol::transport::{TcpTransport, Transport};
use etlv_protocol::MsgKind;

/// A stream of frames exercising the interesting shapes: empty
/// payload, one-byte payload, a payload long enough that header,
/// payload, and CRC can each straddle a split.
fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::new(MsgKind::Keepalive, 1, 1, Vec::new()),
        Frame::new(MsgKind::Ack, 1, 2, vec![0xAB]),
        Frame::new(MsgKind::DataChunk, 2, 3, (0..97u8).collect::<Vec<u8>>()),
        Frame::new(MsgKind::Sql, 3, 4, b"select 1".to_vec()),
    ]
}

fn stream_bytes(frames: &[Frame]) -> Vec<u8> {
    frames.iter().flat_map(|f| f.to_bytes()).collect()
}

/// `Read` source that delivers `[..split)` then `WouldBlock`, then the
/// rest, then EOF — tearing the stream at exactly one boundary.
struct SplitReader {
    data: Vec<u8>,
    split: usize,
    pos: usize,
    blocked_at_split: bool,
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.split && !self.blocked_at_split && self.split < self.data.len() {
            self.blocked_at_split = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let limit = if self.pos < self.split {
            self.split
        } else {
            self.data.len()
        };
        let n = (limit - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Pump a torn stream to completion through the nonblocking decoder.
fn pump_all(data: Vec<u8>, split: usize) -> Vec<Frame> {
    let mut src = SplitReader {
        data,
        split,
        pos: 0,
        blocked_at_split: false,
    };
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match pump_frames(&mut src, &mut scratch, &mut dec, &mut out).unwrap() {
            ReadStatus::Closed => break,
            ReadStatus::Open => continue,
        }
    }
    assert_eq!(dec.buffered(), 0, "leftover bytes after split at {split}");
    out
}

/// Decode the same stream through the blocking `TcpTransport::recv`
/// path — the pre-reactor reference implementation.
fn blocking_reference(data: &[u8], count: usize) -> Vec<Frame> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let data = data.to_vec();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        // Dribble in small chunks so the blocking reader also sees
        // fragmentation, not one neat buffer.
        for chunk in data.chunks(7) {
            s.write_all(chunk).unwrap();
        }
    });
    let (stream, _) = listener.accept().unwrap();
    let mut transport = TcpTransport::new(stream).unwrap();
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(transport.recv(None).unwrap().expect("peer closed early"));
    }
    writer.join().unwrap();
    out
}

#[test]
fn every_byte_split_matches_blocking_path() {
    let frames = sample_frames();
    let bytes = stream_bytes(&frames);
    let reference = blocking_reference(&bytes, frames.len());
    assert_eq!(reference, frames, "blocking path must decode the stream");

    // Header, payload, and CRC straddles are all covered: the split
    // index sweeps the full stream, so every frame gets torn inside
    // each of its three regions at some iteration.
    for split in 0..=bytes.len() {
        let decoded = pump_all(bytes.clone(), split);
        assert_eq!(decoded, reference, "split at byte {split} diverged");
    }
}

#[test]
fn splits_inside_header_payload_and_crc_regions() {
    // Pin the three interesting regions of one frame explicitly, so a
    // regression report names the straddled region rather than a raw
    // byte offset.
    let frame = Frame::new(MsgKind::DataChunk, 9, 1, vec![7u8; 32]);
    let bytes = frame.to_bytes();
    let header_split = HEADER_LEN / 2;
    let payload_split = HEADER_LEN + 16;
    let crc_split = bytes.len() - TRAILER_LEN + 1;
    for (region, split) in [
        ("header", header_split),
        ("payload", payload_split),
        ("crc", crc_split),
    ] {
        let decoded = pump_all(bytes.clone(), split);
        assert_eq!(decoded, vec![frame.clone()], "{region} straddle failed");
    }
}

#[test]
fn torn_write_resumes_byte_exact() {
    // Sink that accepts a growing-then-shrinking number of bytes per
    // call with a WouldBlock between each acceptance, so the writer's
    // pending buffer is cut at varied, uneven boundaries.
    struct TornSink {
        out: Vec<u8>,
        sizes: Vec<usize>,
        turn: usize,
        blocked: bool,
    }
    impl Write for TornSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.blocked = false;
            let n = self.sizes[self.turn % self.sizes.len()].min(buf.len());
            self.turn += 1;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let frames = sample_frames();
    let expect = stream_bytes(&frames);
    let mut writer = FrameWriter::new();
    for f in &frames {
        writer.queue(f);
    }
    assert_eq!(writer.pending(), expect.len());

    let mut sink = TornSink {
        out: Vec::new(),
        sizes: vec![1, 3, 5, 2, 9, 1, 17],
        turn: 0,
        blocked: false,
    };
    let mut rounds = 0usize;
    while !writer.flush(&mut sink).unwrap() {
        rounds += 1;
        assert!(rounds <= expect.len() * 2, "writer stopped making progress");
    }
    assert_eq!(sink.out, expect, "resumed writes must be byte-exact");

    // And the torn output stream must decode back to the same frames.
    let mut dec = FrameDecoder::new();
    dec.feed(&sink.out);
    let mut decoded = Vec::new();
    while let Some(f) = dec.next_frame().unwrap() {
        decoded.push(f);
    }
    assert_eq!(decoded, frames);
}

#[test]
fn interleaved_queue_and_flush_keeps_frame_order() {
    // Queue a frame, partially flush, queue more mid-drain: ordering
    // and byte-exactness must hold — this is the reactor's real write
    // pattern when replies outpace a slow client.
    struct CappedSink {
        out: Vec<u8>,
        cap: usize,
        taken: usize,
    }
    impl Write for CappedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.taken >= self.cap {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = (self.cap - self.taken).min(buf.len());
            self.taken += n;
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    let frames = sample_frames();
    let mut writer = FrameWriter::new();
    let mut sink = CappedSink {
        out: Vec::new(),
        cap: 0,
        taken: 0,
    };
    for f in &frames {
        writer.queue(f);
        sink.cap += 11; // allow a sliver of progress per round
        let _ = writer.flush(&mut sink).unwrap();
    }
    sink.cap = usize::MAX;
    assert!(writer.flush(&mut sink).unwrap());
    assert_eq!(sink.out, stream_bytes(&frames));
}
