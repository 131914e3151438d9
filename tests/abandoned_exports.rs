//! Abandoned exports leave no thread behind: an export whose client
//! reads one chunk and then drops the connection is torn down whole.
//!
//! This file holds one test on purpose: it measures the process thread
//! count, which other tests' servers would move if they shared its
//! binary.

use std::time::{Duration, Instant};

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Session, TcpConnector};
use etlv_protocol::message::{BeginExport, Message, RecordFormat, SessionRole};

mod common;
use common::os_threads;

/// Open an export of `ABANDON` in chunks of `chunk_rows` and read it from
/// chunk 0 — to its end with a clean logoff when `read_all`, else only
/// chunk 0 before dropping the socket.
fn export(connector: &TcpConnector, chunk_rows: u32, read_all: bool) {
    let mut s = Session::logon(connector, "reader", "p", SessionRole::Control, 0).unwrap();
    let begin = Message::BeginExport(BeginExport {
        select: "SELECT A FROM ABANDON ORDER BY A".into(),
        format: RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        sessions: 1,
        chunk_rows,
    });
    assert!(matches!(
        s.request(begin).unwrap(),
        Message::BeginExportOk(_)
    ));
    for index in 0.. {
        let Message::ExportChunk(chunk) = s.request(Message::ExportChunkReq { index }).unwrap()
        else {
            panic!("expected ExportChunk");
        };
        if chunk.last || !read_all {
            break;
        }
    }
    if read_all {
        s.logoff();
    }
}

/// 16 exports abandoned after chunk 0, over results of `prefetch + 2`
/// chunks and more, must not grow the process by a thread each.
#[test]
fn abandoned_exports_leave_no_thread() {
    const CHUNK_ROWS: u32 = 2;
    let v = Virtualizer::new(VirtualizerConfig::default());
    let chunks = v.config().export_prefetch_chunks + 3;
    v.cdw().execute("CREATE TABLE ABANDON (A INTEGER)").unwrap();
    for i in 0..chunks * CHUNK_ROWS as usize {
        v.cdw()
            .execute(&format!("INSERT INTO ABANDON VALUES ({i})"))
            .unwrap();
    }
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector = TcpConnector::new(server.addr().to_string());

    // Warm up: one full export pulls in every lazily started thread.
    export(&connector, CHUNK_ROWS, true);
    let baseline = os_threads();

    for _ in 0..16 {
        export(&connector, CHUNK_ROWS, false);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while v.active_jobs() > 0 {
        assert!(
            Instant::now() < deadline,
            "dropped sockets must abort their exports"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = os_threads();
    assert!(
        after <= baseline + 2,
        "abandoned exports must not leave threads behind: {baseline} -> {after}"
    );
    server.shutdown();
}
