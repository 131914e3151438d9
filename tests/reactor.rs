//! Reactor front-end suite (DESIGN §10): the event-driven TCP path
//! under connection-scale pressure, torn frames, floods, idle reaping,
//! and abrupt disconnects.
//!
//! The invariants under test:
//!
//! - **Fixed threads**: hundreds of concurrent keepalive sessions run
//!   on the same OS-thread count as a handful — connections are state
//!   machines on the loop threads, not threads.
//! - **Byte-boundary robustness**: a frame dribbled one byte at a time
//!   over real TCP parses exactly like one written whole.
//! - **Partial-write resumption**: a reply flood that overruns the
//!   socket buffer drains correctly, in order, without loss.
//! - **Idle reaping**: a quiet session's idle deadline reaps it with the
//!   `IDLE_TIMEOUT` farewell and keeps the gauges truthful.
//! - **Bounded close**: a closing connection whose peer never reads is
//!   force-closed when its flush grace runs out.
//! - **Disconnect safety**: a yanked connection aborts the jobs its
//!   session owned, even mid-dispatch.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Session, TcpConnector};
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::frame::FrameDecoder;
use etlv_protocol::message::{BeginExport, BeginLoad, Logon, Message, RecordFormat, SessionRole};

mod common;
use common::{os_threads, simple_import_job};

fn encode(msg: Message, session: u32, seq: u32) -> Vec<u8> {
    let mut buf = bytes::BytesMut::new();
    msg.into_frame(session, seq).encode(&mut buf);
    buf.to_vec()
}

/// Read messages off a raw socket until `n` have arrived.
fn read_messages(stream: &mut TcpStream, n: usize) -> Vec<Message> {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::with_capacity(n);
    let mut buf = [0u8; 4096];
    while out.len() < n {
        let read = stream.read(&mut buf).expect("read");
        assert!(read > 0, "peer closed after {} of {n} messages", out.len());
        decoder.feed(&buf[..read]);
        while let Some(frame) = decoder.next_frame().expect("clean frames") {
            out.push(Message::from_frame(&frame).expect("decodable message"));
        }
    }
    out
}

/// 300 concurrent keepalive sessions must not grow the process thread
/// count the way thread-per-connection did (+1 thread each): the loops
/// and the dispatch pool are sized at startup, so the delta across 300
/// logons stays near zero (small slack for unrelated test binaries'
/// runtime noise is not needed — this binary runs its tests on its own
/// threads, which already exist when the baseline is taken).
#[test]
fn hundreds_of_keepalive_sessions_hold_thread_count_fixed() {
    const SESSIONS: usize = 300;
    let v = Virtualizer::new(VirtualizerConfig {
        max_sessions: SESSIONS + 16,
        ..Default::default()
    });
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector = TcpConnector::new(server.addr().to_string());

    // Warm up: first sessions pull every lazily-started thread in.
    let mut held: Vec<Session> = (0..8)
        .map(|i| {
            Session::logon(&connector, &format!("w{i}"), "p", SessionRole::Control, 0).unwrap()
        })
        .collect();
    let baseline = os_threads();

    for i in held.len()..SESSIONS {
        held.push(
            Session::logon(&connector, &format!("u{i}"), "p", SessionRole::Control, 0).unwrap(),
        );
    }
    let grown = os_threads();
    assert!(
        grown <= baseline + 2,
        "thread count must not scale with connections: {baseline} -> {grown}"
    );
    assert_eq!(v.active_sessions(), SESSIONS);
    assert_eq!(v.obs().reactor.conns.value(), SESSIONS as u64);

    // Every session is live: a keepalive sweep answers on all of them.
    for session in &mut held {
        let reply = session.request(Message::Keepalive).unwrap();
        assert!(matches!(reply, Message::Keepalive));
    }

    for session in held {
        session.logoff();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while v.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "sessions must close on logoff");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    assert_eq!(v.obs().server.conn_setup_errors.value(), 0);
}

/// A logon dribbled one byte at a time (with pauses inside the header,
/// payload, and CRC) must behave exactly like one written whole.
#[test]
fn byte_dribbled_frames_parse_over_tcp() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();

    let logon = encode(
        Message::Logon(Logon {
            username: "dribble".into(),
            password: "p".into(),
            role: SessionRole::Control,
            job_token: 0,
            trace: None,
        }),
        0,
        0,
    );
    for byte in &logon {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_micros(200));
    }
    let session = match &read_messages(&mut stream, 1)[0] {
        Message::LogonOk(ok) => ok.session,
        other => panic!("expected LogonOk, got {other:?}"),
    };

    // A keepalive split at an awkward boundary (mid-length-field).
    let keepalive = encode(Message::Keepalive, session, 1);
    stream.write_all(&keepalive[..13]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(&keepalive[13..]).unwrap();
    assert!(matches!(
        read_messages(&mut stream, 1)[0],
        Message::Keepalive
    ));

    let logoff = encode(Message::Logoff, session, 2);
    stream.write_all(&logoff).unwrap();
    assert!(matches!(
        read_messages(&mut stream, 1)[0],
        Message::LogoffOk
    ));
    server.shutdown();
}

/// Pipeline thousands of keepalives without reading a single reply:
/// the reply backlog overruns the socket send buffer, forcing the
/// writer through its partial-write / `EPOLLOUT` resumption path. All
/// replies must then arrive, in order.
#[test]
fn reply_flood_resumes_partial_writes_in_order() {
    const FLOOD: usize = 20_000;
    let v = Virtualizer::new(VirtualizerConfig::default());
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();

    let logon = encode(
        Message::Logon(Logon {
            username: "flood".into(),
            password: "p".into(),
            role: SessionRole::Control,
            job_token: 0,
            trace: None,
        }),
        0,
        0,
    );
    stream.write_all(&logon).unwrap();
    let session = match &read_messages(&mut stream, 1)[0] {
        Message::LogonOk(ok) => ok.session,
        other => panic!("expected LogonOk, got {other:?}"),
    };

    let mut burst = Vec::new();
    for seq in 0..FLOOD as u32 {
        burst.extend_from_slice(&encode(Message::Keepalive, session, seq + 1));
    }
    // A second thread keeps the pipe full while this one drains
    // replies — a single thread doing both could deadlock on two full
    // socket buffers, which would be a client bug, not a server one.
    let mut write_half = stream.try_clone().expect("clone socket");
    let pusher = std::thread::spawn(move || {
        write_half.write_all(&burst).unwrap();
        write_half.flush().unwrap();
    });

    let replies = read_messages(&mut stream, FLOOD);
    pusher.join().unwrap();
    assert!(replies.iter().all(|m| matches!(m, Message::Keepalive)));
    assert!(
        v.obs().reactor.conns_writing.value() == 0,
        "writer gauge must settle once drained"
    );
    server.shutdown();
}

/// A quiet session is reaped when its idle deadline passes: the client
/// sees the `IDLE_TIMEOUT` farewell, the registry empties, the reap is
/// counted.
#[test]
fn idle_sessions_are_reaped_with_a_farewell() {
    let v = Virtualizer::new(VirtualizerConfig {
        session_idle_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    let logon = encode(
        Message::Logon(Logon {
            username: "sleepy".into(),
            password: "p".into(),
            role: SessionRole::Control,
            job_token: 0,
            trace: None,
        }),
        0,
        0,
    );
    stream.write_all(&logon).unwrap();
    assert!(matches!(
        read_messages(&mut stream, 1)[0],
        Message::LogonOk(_)
    ));

    // Go quiet and wait for the reaper's farewell.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match &read_messages(&mut stream, 1)[0] {
        Message::Error(e) => {
            assert_eq!(e.code, ErrCode::IDLE_TIMEOUT.0);
            assert!(e.fatal);
        }
        other => panic!("expected IDLE_TIMEOUT farewell, got {other:?}"),
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while v.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "reaped session must deregister");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(v.obs().reactor.idle_closes.value() >= 1);
    server.shutdown();
}

/// A connection that closes with reply bytes its peer never reads is
/// force-closed once the 2 s flush grace runs out — even with an idle
/// timeout armed 30 s out, which must not stand in for the grace.
#[test]
fn closing_connection_is_retired_within_the_flush_grace() {
    let v = Virtualizer::new(VirtualizerConfig {
        session_idle_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();

    let logon = encode(
        Message::Logon(Logon {
            username: "deaf".into(),
            password: "p".into(),
            role: SessionRole::Control,
            job_token: 0,
            trace: None,
        }),
        0,
        0,
    );
    stream.write_all(&logon).unwrap();
    let session = match &read_messages(&mut stream, 1)[0] {
        Message::LogonOk(ok) => ok.session,
        other => panic!("expected LogonOk, got {other:?}"),
    };

    // Flood keepalives without reading a reply until the server holds
    // reply bytes the socket will not take.
    const BATCH: u32 = 10_000;
    let mut seq = 1;
    let deadline = Instant::now() + Duration::from_secs(20);
    while v.obs().reactor.conns_writing.value() == 0 {
        assert!(Instant::now() < deadline, "the writer never backed up");
        let burst: Vec<u8> = (seq..seq + BATCH)
            .flat_map(|s| encode(Message::Keepalive, session, s))
            .collect();
        stream.write_all(&burst).unwrap();
        seq += BATCH;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(v.obs().reactor.conns_writing.value(), 1);

    // A second Logon is fatal: the connection starts closing with its
    // writer still full, and the peer never reads.
    stream.write_all(&logon).unwrap();
    let t0 = Instant::now();
    while v.active_sessions() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(6),
            "a closing connection must be retired within the flush grace"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(stream);
    server.shutdown();
}

/// Yanking the cable mid-job aborts the session's open load and frees
/// every resource.
#[test]
fn abrupt_disconnect_aborts_owned_jobs() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE T0 (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector = TcpConnector::new(server.addr().to_string());

    let job = simple_import_job("T0");
    let mut control = Session::logon(&connector, "u", "p", SessionRole::Control, 0).unwrap();
    let reply = control
        .request(Message::BeginLoad(BeginLoad {
            target_table: job.target.clone(),
            error_table_et: job.error_table_et.clone(),
            error_table_uv: job.error_table_uv.clone(),
            layout: job.layout.clone(),
            format: job.format,
            sessions: 1,
            error_limit: 0,
            trace: None,
        }))
        .unwrap();
    assert!(matches!(reply, Message::BeginLoadOk { .. }));
    assert_eq!(v.active_jobs(), 1);

    // Yank: drop the session object without logoff — the TCP socket
    // closes under the server's feet.
    drop(control);

    let deadline = Instant::now() + Duration::from_secs(10);
    while v.active_jobs() > 0 || v.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "disconnect must abort the job");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(v.metrics().jobs_aborted, 1);
    assert_eq!(v.credits().available(), v.credits().capacity());
    assert_eq!(v.memory().in_flight(), 0);
    server.shutdown();
}

/// A request before Logon has no session to own the job it would open,
/// so no teardown could ever abort it: the node refuses it with a fatal
/// error and opens nothing.
#[test]
fn request_before_logon_is_refused_and_leaves_no_job() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE T0 (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");

    let job = simple_import_job("T0");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode(
            Message::BeginLoad(BeginLoad {
                target_table: job.target.clone(),
                error_table_et: job.error_table_et.clone(),
                error_table_uv: job.error_table_uv.clone(),
                layout: job.layout.clone(),
                format: job.format,
                sessions: 1,
                error_limit: 0,
                trace: None,
            }),
            0,
            1,
        ))
        .unwrap();
    match &read_messages(&mut stream, 1)[0] {
        Message::Error(e) => {
            assert_eq!(e.code, ErrCode::LOGON_FAILED.0);
            assert!(e.fatal, "the connection ends with the refusal");
        }
        other => panic!("expected a fatal LOGON_FAILED, got {other:?}"),
    }
    drop(stream);
    server.shutdown();

    assert_eq!(v.active_jobs(), 0, "no job without an owner");
    assert_eq!(v.active_sessions(), 0);
    for table in [
        "T0_ET".to_string(),
        "T0_UV".to_string(),
        etlv_core::xcompile::staging_table_name(1),
    ] {
        assert!(!v.cdw().table_exists(&table), "{table} must not exist");
    }
    assert_eq!(v.credits().available(), v.credits().capacity());
    assert_eq!(v.memory().in_flight(), 0);
}

/// A second Logon on a logged-on connection would register a second
/// registry entry and orphan the first: it is a fatal protocol error,
/// and the close that follows releases the one real session.
#[test]
fn second_logon_is_refused_and_sessions_return_to_zero() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");

    let logon = encode(
        Message::Logon(Logon {
            username: "twice".into(),
            password: "p".into(),
            role: SessionRole::Control,
            job_token: 0,
            trace: None,
        }),
        0,
        0,
    );
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&logon).unwrap();
    assert!(matches!(
        read_messages(&mut stream, 1)[0],
        Message::LogonOk(_)
    ));
    assert_eq!(v.active_sessions(), 1);

    stream.write_all(&logon).unwrap();
    match &read_messages(&mut stream, 1)[0] {
        Message::Error(e) => {
            assert_eq!(e.code, ErrCode::PROTOCOL.0);
            assert!(e.fatal, "the connection ends with the refusal");
        }
        other => panic!("expected a fatal PROTOCOL error, got {other:?}"),
    }
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(10);
    while v.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "the close must deregister");
        std::thread::sleep(Duration::from_millis(5));
    }
    let gateway = &v.obs().gateway;
    assert_eq!(
        gateway.sessions_opened.value(),
        gateway.sessions_closed.value()
    );
    server.shutdown();
}

/// A well-framed frame of a kind the protocol does not define (23 was a
/// monitoring request before `Introspect` replaced it) is corrupt
/// framing: the server drops the connection, and the close releases the
/// logged-on session while the client still holds its end open.
#[test]
fn unknown_frame_kind_closes_the_connection_and_the_session() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode(
            Message::Logon(Logon {
                username: "stale".into(),
                password: "p".into(),
                role: SessionRole::Control,
                job_token: 0,
                trace: None,
            }),
            0,
            0,
        ))
        .unwrap();
    let Message::LogonOk(ok) = &read_messages(&mut stream, 1)[0] else {
        panic!("expected LogonOk");
    };
    assert_eq!(v.active_sessions(), 1);

    let mut frame = encode(Message::Keepalive, ok.session, 1);
    frame[3] = 23;
    let body = frame.len() - 4;
    let crc = etlv_protocol::crc::crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
    stream.write_all(&frame).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while v.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "the server must close first");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut buf = [0u8; 64];
    assert!(
        matches!(stream.read(&mut buf), Ok(0) | Err(_)),
        "no reply to an unknown kind, just the close"
    );
    let gateway = &v.obs().gateway;
    assert_eq!(
        gateway.sessions_opened.value(),
        gateway.sessions_closed.value()
    );
    server.shutdown();
}

/// `drain()` with nothing in flight must come back promptly — the
/// job-drained condvar answers immediately instead of a poll loop
/// sleeping its way to the deadline.
#[test]
fn empty_drain_returns_promptly() {
    let v = Virtualizer::new(VirtualizerConfig {
        drain_timeout: Duration::from_secs(600),
        ..Default::default()
    });
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let t0 = Instant::now();
    assert!(server.drain(), "no jobs: drain must succeed");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain with no jobs must not wait on the timeout"
    );
}

/// An export chunk requested twice is served twice, byte for byte, as
/// the legacy server serves it. Reads carry a timeout and the server is
/// only shut down on success: a dispatch thread stuck on the repeat
/// must fail this test, not hang its teardown.
#[test]
fn repeated_export_chunk_request_is_served_again() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE EXP_T (A INTEGER, B VARCHAR(16))")
        .unwrap();
    for i in 0..10 {
        v.cdw()
            .execute(&format!("INSERT INTO EXP_T VALUES ({i}, 'row{i}')"))
            .unwrap();
    }
    let server = std::mem::ManuallyDrop::new(v.listen_tcp("127.0.0.1:0").expect("bind"));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let logon = Message::Logon(Logon {
        username: "again".into(),
        password: "p".into(),
        role: SessionRole::Control,
        job_token: 0,
        trace: None,
    });
    stream.write_all(&encode(logon, 0, 0)).unwrap();
    let Message::LogonOk(ok) = &read_messages(&mut stream, 1)[0] else {
        panic!("expected LogonOk");
    };
    let session = ok.session;

    let begin = Message::BeginExport(BeginExport {
        select: "SELECT A, B FROM EXP_T ORDER BY A".into(),
        format: RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        sessions: 1,
        chunk_rows: 3,
    });
    stream.write_all(&encode(begin, session, 1)).unwrap();
    assert!(matches!(
        read_messages(&mut stream, 1)[0],
        Message::BeginExportOk(_)
    ));

    let mut replies = Vec::new();
    for seq in [2, 3] {
        let req = Message::ExportChunkReq { index: 1 };
        stream.write_all(&encode(req, session, seq)).unwrap();
        match read_messages(&mut stream, 1).remove(0) {
            Message::ExportChunk(chunk) => replies.push(chunk),
            other => panic!("expected ExportChunk, got {other:?}"),
        }
    }
    assert_eq!((replies[0].index, replies[0].record_count), (1, 3));
    assert!(!replies[0].last);
    assert_eq!(replies[0], replies[1], "the repeat must be byte-identical");

    drop(stream);
    std::mem::ManuallyDrop::into_inner(server).shutdown();
}
