//! Byte transports carrying protocol frames.
//!
//! [`TcpTransport`] carries frames over a real TCP socket — the one
//! transport every client, server and test uses, as a deployed legacy
//! client does when repointed at the virtualizer. Its receive side
//! always runs the [`FrameDecoder`] (the paper's Coalescer), so arbitrary
//! fragmentation is handled uniformly. [`ChaosTransport`] wraps any
//! [`Transport`] to inject frame-delivery faults.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::frame::{Frame, FrameDecoder};

/// A bidirectional, blocking frame transport.
pub trait Transport: Send {
    /// Send one frame.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receive the next frame, waiting at most `timeout` for each read
    /// (`None` blocks). `Ok(None)` means only that the peer closed the
    /// connection; a timeout is an [`io::ErrorKind::TimedOut`] error.
    fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<Frame>>;

    /// Write raw bytes to the peer without framing — they land in the
    /// peer's [`FrameDecoder`] as-is. Only fault injection uses this (to
    /// deliver a torn frame); transports that cannot support it keep the
    /// default `Unsupported` error.
    fn send_raw(&mut self, _bytes: &[u8]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "raw byte injection not supported by this transport",
        ))
    }
}

fn frame_err(e: crate::frame::FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Frames over a TCP socket.
pub struct TcpTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// The socket's current read timeout, so `recv` sets it only when a
    /// caller asks for a different one.
    read_timeout: Option<Duration>,
}

impl TcpTransport {
    /// Wrap a connected stream. Disables Nagle, since the protocol is
    /// latency-sensitive request/response.
    pub fn new(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            read_timeout: None,
        })
    }

    /// Connect to `addr`.
    pub fn connect(addr: &str) -> io::Result<TcpTransport> {
        TcpTransport::new(TcpStream::connect(addr)?)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = frame.to_bytes();
        self.stream.write_all(&bytes)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<Frame>> {
        if timeout != self.read_timeout {
            self.stream.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        loop {
            if let Some(frame) = self.decoder.next_frame().map_err(frame_err)? {
                return Ok(Some(frame));
            }
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.decoder.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(io::ErrorKind::TimedOut.into())
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The verdict for one outgoing frame on a [`ChaosTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Deliver the frame normally.
    Deliver,
    /// Silently discard the frame; the send appears to succeed. The peer
    /// never sees it — the sender's next read is what surfaces the loss.
    Drop,
    /// Deliver only the first half of the frame's bytes, then sever the
    /// connection: a link cut mid-transfer. The peer's decoder is left
    /// holding an incomplete frame.
    Truncate,
    /// Sever immediately: this send fails and every later operation on the
    /// transport errors with `BrokenPipe`.
    Sever,
}

/// Per-frame fault decision hook: `(outgoing frame index, message kind)`.
pub type TransportFaultHook =
    std::sync::Arc<dyn Fn(u64, crate::frame::MsgKind) -> TransportFault + Send + Sync>;

/// A [`Transport`] decorator that injects frame-delivery faults on the
/// send path. Receives pass through until the link is severed.
pub struct ChaosTransport<T: Transport> {
    inner: Option<T>,
    hook: TransportFaultHook,
    sent: u64,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner`, consulting `hook` for every outgoing frame.
    pub fn new(inner: T, hook: TransportFaultHook) -> ChaosTransport<T> {
        ChaosTransport {
            inner: Some(inner),
            hook,
            sent: 0,
        }
    }

    fn severed() -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "injected fault: transport severed",
        )
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let index = self.sent;
        self.sent += 1;
        let Some(inner) = self.inner.as_mut() else {
            return Err(Self::severed());
        };
        match (self.hook)(index, frame.kind) {
            TransportFault::Deliver => inner.send(frame),
            TransportFault::Drop => Ok(()),
            TransportFault::Truncate => {
                let bytes = frame.to_bytes();
                let result = inner.send_raw(&bytes[..bytes.len() / 2]);
                // Dropping the inner transport models the cut link: the
                // peer sees EOF after the torn prefix.
                self.inner = None;
                result
            }
            TransportFault::Sever => {
                self.inner = None;
                Err(Self::severed())
            }
        }
    }

    fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<Frame>> {
        match self.inner.as_mut() {
            Some(inner) => inner.recv(timeout),
            None => Err(Self::severed()),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.send_raw(bytes),
            None => Err(Self::severed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MsgKind;
    use std::net::TcpListener;
    use std::thread;

    /// Both ends of one loopback TCP connection.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpTransport::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (client, TcpTransport::new(stream).unwrap())
    }

    /// A timed `recv` backs the client's `read_timeout`: a silent peer
    /// times out with `TimedOut`, the socket still reads normally
    /// afterwards, and only a closed connection reads `Ok(None)`.
    #[test]
    fn tcp_recv_timeout() {
        let (mut a, mut b) = tcp_pair();
        let err = a.recv(Some(Duration::from_millis(10))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let f = Frame::new(MsgKind::Keepalive, 1, 1, Vec::new());
        b.send(&f).unwrap();
        assert_eq!(
            a.recv(Some(Duration::from_secs(5))).unwrap(),
            Some(f.clone())
        );
        b.send(&f).unwrap();
        assert_eq!(a.recv(None).unwrap(), Some(f));
        drop(b);
        assert_eq!(a.recv(Some(Duration::from_secs(5))).unwrap(), None);
    }

    #[test]
    fn chaos_drop_truncate_sever() {
        use std::sync::Arc;

        // Frame 1 dropped, frame 2 truncated (then severed).
        let (client, mut server) = tcp_pair();
        let hook: TransportFaultHook = Arc::new(|index, _kind| match index {
            0 => TransportFault::Deliver,
            1 => TransportFault::Drop,
            _ => TransportFault::Truncate,
        });
        let mut chaos = ChaosTransport::new(client, hook);
        let f = Frame::new(MsgKind::Sql, 1, 1, b"SELECT 1".to_vec());
        chaos.send(&f).unwrap();
        chaos.send(&f).unwrap(); // silently dropped
        chaos.send(&f).unwrap(); // torn prefix delivered, then cut
        assert!(chaos.send(&f).is_err(), "severed after truncate");
        assert!(chaos.recv(None).is_err());

        // Peer: one whole frame, then EOF with the torn prefix pending.
        assert_eq!(server.recv(None).unwrap().unwrap(), f);
        assert!(server.recv(None).unwrap().is_none());
    }

    #[test]
    fn chaos_sever_fails_send_and_disconnects_peer() {
        use std::sync::Arc;
        let (client, mut server) = tcp_pair();
        let hook: TransportFaultHook = Arc::new(|_, _| TransportFault::Sever);
        let mut chaos = ChaosTransport::new(client, hook);
        let f = Frame::new(MsgKind::Keepalive, 0, 0, Vec::new());
        assert!(chaos.send(&f).is_err());
        assert!(server.recv(None).unwrap().is_none(), "peer sees EOF");
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            while let Some(frame) = t.recv(None).unwrap() {
                // Echo with bumped seq.
                let reply = Frame::new(frame.kind, frame.session, frame.seq + 1, frame.payload);
                t.send(&reply).unwrap();
            }
        });

        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        let f = Frame::new(MsgKind::Sql, 5, 10, b"SELECT 1".to_vec());
        client.send(&f).unwrap();
        let reply = client.recv(None).unwrap().unwrap();
        assert_eq!(reply.seq, 11);
        assert_eq!(&reply.payload[..], b"SELECT 1");
        drop(client);
        server.join().unwrap();
    }
}
