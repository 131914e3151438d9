//! A session tells a peer that closed the connection from one that went
//! quiet: the first is "connection closed" at once, the second a
//! `Timeout` once the read timeout runs out.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use etlv_legacy_client::{ClientError, Session, TcpConnector};
use etlv_protocol::frame::FrameDecoder;
use etlv_protocol::message::{LogonOk, Message, SessionRole};

/// Read one whole message off a raw socket.
fn read_message(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Message {
    let mut buf = [0u8; 1024];
    loop {
        if let Some(frame) = decoder.next_frame().unwrap() {
            return Message::from_frame(&frame).unwrap();
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "client closed first");
        decoder.feed(&buf[..n]);
    }
}

/// A peer that answers the logon, waits for one request, then either
/// closes the connection or holds it open without a word.
fn peer(close: bool) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut decoder = FrameDecoder::new();
        assert!(matches!(
            read_message(&mut stream, &mut decoder),
            Message::Logon(_)
        ));
        let ok = Message::LogonOk(LogonOk {
            session: 1,
            banner: "peer".into(),
        });
        stream.write_all(&ok.into_frame(0, 1).to_bytes()).unwrap();
        assert!(matches!(
            read_message(&mut stream, &mut decoder),
            Message::Sql { .. }
        ));
        if !close {
            // Silent until the client gives up and closes its end.
            let _ = stream.read(&mut [0u8; 16]);
        }
    });
    (addr, handle)
}

#[test]
fn closed_connection_is_not_a_timeout() {
    let (addr, peer) = peer(true);
    let mut session =
        Session::logon(&TcpConnector::new(addr), "u", "p", SessionRole::Control, 0).unwrap();
    session.set_read_timeout(Some(Duration::from_secs(30)));
    let t0 = Instant::now();
    match session.sql("select 1") {
        Err(ClientError::Protocol(m)) => assert_eq!(m, "connection closed"),
        other => panic!("expected \"connection closed\", got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    peer.join().unwrap();
}

#[test]
fn silent_peer_is_a_timeout() {
    let (addr, peer) = peer(false);
    let mut session =
        Session::logon(&TcpConnector::new(addr), "u", "p", SessionRole::Control, 0).unwrap();
    let timeout = Duration::from_millis(100);
    session.set_read_timeout(Some(timeout));
    match session.sql("select 1") {
        Err(ClientError::Timeout(t)) => assert_eq!(t, timeout),
        other => panic!("expected a timeout, got {other:?}"),
    }
    drop(session);
    peer.join().unwrap();
}
