//! Export jobs through the virtualizer: SELECT on the CDW → TDFCursor
//! slice by index → legacy wire encoding → client output file. Includes full
//! import-then-export roundtrips.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, Connect, LegacyEtlClient, Session};
use etlv_protocol::data::{Date, Value};
use etlv_protocol::message::{BeginExport, Message, RecordFormat, SessionRole};
use etlv_script::{compile, parse_script, JobPlan};

mod common;
use common::{create_simple_target, kv_rows, simple_import_job, tcp_connector, wait_idle};

fn seeded_virtualizer(rows: usize) -> Virtualizer {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8), CUST_NAME VARCHAR(20), JOIN_DATE DATE)")
        .unwrap();
    for i in 0..rows {
        v.cdw()
            .execute(&format!(
                "INSERT INTO PROD.CUSTOMER VALUES ('c{i:04}', 'name{i}', DATE '2020-01-{:02}')",
                (i % 28) + 1
            ))
            .unwrap();
    }
    v
}

fn export_job(select: &str, sessions: u16, format: &str) -> etlv_script::ExportJob {
    let src = format!(
        ".logon h/u,p;\n.begin export sessions {sessions};\n.export outfile out format {format};\n{select};\n.end export;\n"
    );
    match compile(&parse_script(&src).unwrap()).unwrap() {
        JobPlan::Export(j) => j,
        _ => panic!(),
    }
}

#[test]
fn vartext_export_with_parallel_sessions() {
    let v = seeded_virtualizer(100);
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 7, // many chunks across 3 sessions
            sessions: None,
            ..Default::default()
        },
    );
    let job = export_job(
        "select CUST_ID, CUST_NAME from PROD.CUSTOMER order by CUST_ID",
        3,
        "vartext '|'",
    );
    let result = client.run_export(&job).unwrap();
    assert_eq!(result.rows, 100);
    let text = String::from_utf8(result.data).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 100);
    assert_eq!(lines[0], "c0000|name0");
    assert_eq!(lines[99], "c0099|name99");
    // Chunks were reassembled in order despite parallel sessions.
    let mut sorted = lines.clone();
    sorted.sort();
    assert_eq!(lines, sorted);
}

#[test]
fn binary_export_decodes_with_derived_layout() {
    let v = seeded_virtualizer(10);
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let job = export_job(
        "select CUST_ID, JOIN_DATE from PROD.CUSTOMER order by CUST_ID",
        2,
        "binary",
    );
    let result = client.run_export(&job).unwrap();
    let decoder = etlv_protocol::record::RecordDecoder::new(result.layout.clone());
    let rows = decoder.decode_batch(&result.data).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(rows[0][0], Value::Str("c0000".into()));
    assert_eq!(rows[0][1], Value::Date(Date::new(2020, 1, 1).unwrap()));
}

#[test]
fn export_select_is_cross_compiled() {
    // The export SELECT uses legacy-only syntax (SEL + FORMAT cast); the
    // virtualizer must translate it for the CDW.
    let v = seeded_virtualizer(3);
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let job = export_job(
        "sel CUST_ID, cast(JOIN_DATE as VARCHAR(8) format 'MM/DD/YY') from PROD.CUSTOMER order by CUST_ID",
        1,
        "vartext '|'",
    );
    let result = client.run_export(&job).unwrap();
    let text = String::from_utf8(result.data).unwrap();
    assert!(text.starts_with("c0000|01/01/20"), "{text}");
}

#[test]
fn empty_export() {
    let v = seeded_virtualizer(0);
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let job = export_job("select CUST_ID from PROD.CUSTOMER", 2, "vartext '|'");
    let result = client.run_export(&job).unwrap();
    assert_eq!(result.rows, 0);
    assert!(result.data.is_empty());
}

#[test]
fn import_then_export_roundtrip() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))")
        .unwrap();
    let client = LegacyEtlClient::new(tcp_connector(&v));

    let import_src = r#"
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
    trim(:CUST_ID), trim(:CUST_NAME),
    cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.import infile input.txt format vartext '|' layout CustLayout apply InsApply;
.end load
"#;
    let JobPlan::Import(import) = compile(&parse_script(import_src).unwrap()).unwrap() else {
        panic!()
    };
    let data = b"1|alpha|2020-01-01\n2|beta|2020-06-15\n3|gamma|2021-12-31\n";
    let result = client.run_import_data(&import, data).unwrap();
    assert_eq!(result.report.rows_applied, 3);

    let job = export_job(
        "select CUST_ID, CUST_NAME, JOIN_DATE from PROD.CUSTOMER order by CUST_ID",
        2,
        "vartext '|'",
    );
    let exported = client.run_export(&job).unwrap();
    assert_eq!(
        String::from_utf8(exported.data).unwrap(),
        "1|alpha|2020-01-01\n2|beta|2020-06-15\n3|gamma|2021-12-31\n"
    );
}

/// Open a vartext export of `select` on its own session, in chunks of
/// `chunk_rows`, and return the session, ready for chunk requests.
fn open_export(connector: &dyn Connect, select: &str, chunk_rows: u32) -> Session {
    let mut s = Session::logon(connector, "reader", "p", SessionRole::Control, 0).unwrap();
    let begin = Message::BeginExport(BeginExport {
        select: select.into(),
        format: RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        sessions: 1,
        chunk_rows,
    });
    match s.request(begin).unwrap() {
        Message::BeginExportOk(_) => s,
        other => panic!("expected BeginExportOk, got {other:?}"),
    }
}

/// Fetch every chunk of the export open on `s`, in order, then log off.
fn fetch_all(mut s: Session) -> Vec<u8> {
    let mut data = Vec::new();
    for index in 0.. {
        let Message::ExportChunk(chunk) = s.request(Message::ExportChunkReq { index }).unwrap()
        else {
            panic!("expected ExportChunk");
        };
        data.extend_from_slice(&chunk.data);
        if chunk.last {
            break;
        }
    }
    s.logoff();
    data
}

/// An export serves the table as it was when the export opened: another
/// session's import into the table and `DELETE` from it, both finished
/// before the first chunk is fetched, change nothing the export returns.
/// The import is the one write that finds the version shared, so it is
/// the one copy; the `DELETE` after it writes the import's own version.
#[test]
fn export_serves_the_table_as_it_was_at_open() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "SNAP");
    let client = LegacyEtlClient::new(Arc::clone(&connector));
    let job = simple_import_job("SNAP");
    client.run_import_data(&job, &kv_rows(50)).unwrap();

    let export = open_export(connector.as_ref(), "SELECT * FROM SNAP", 7);
    let copies = v.cdw().version_copies();
    let report = client.run_import_data(&job, &kv_rows(20)).unwrap().report;
    assert_eq!(report.rows_applied, 20);
    let mut writer =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    assert_eq!(writer.sql("DELETE FROM SNAP").unwrap().activity_count, 70);
    writer.logoff();
    assert_eq!(v.cdw().version_copies(), copies + 1);

    assert_eq!(fetch_all(export), kv_rows(50));
    assert_eq!(v.cdw().table_len("SNAP").unwrap(), 0);
}

/// `DROP TABLE` while an export of the table is open: the export still
/// serves every chunk.
#[test]
fn export_outlives_a_dropped_table() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "GONE");
    let client = LegacyEtlClient::new(Arc::clone(&connector));
    client
        .run_import_data(&simple_import_job("GONE"), &kv_rows(30))
        .unwrap();

    let export = open_export(connector.as_ref(), "SELECT * FROM GONE", 4);
    let mut ops = Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    ops.sql("DROP TABLE GONE").unwrap();
    ops.logoff();
    assert!(!v.cdw().table_exists("GONE"));

    assert_eq!(fetch_all(export), kv_rows(30));
}

/// A `bulk_narrow`-shaped cycle — import, whole-table export, re-import —
/// copies no row version: the export's cursor is retired when its
/// sessions log off, so the re-import finds the version unshared.
#[test]
fn import_export_reimport_copies_no_version() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "CYCLE");
    let client = LegacyEtlClient::new(Arc::clone(&connector));
    let job = simple_import_job("CYCLE");
    let copies = v.cdw().version_copies();

    client.run_import_data(&job, &kv_rows(200)).unwrap();
    let exported = client
        .run_export(&export_job("select * from CYCLE", 2, "vartext '|'"))
        .unwrap();
    assert_eq!(exported.data, kv_rows(200));
    wait_idle(&v);
    client.run_import_data(&job, &kv_rows(200)).unwrap();

    assert_eq!(v.cdw().table_len("CYCLE").unwrap(), 400);
    assert_eq!(v.cdw().version_copies(), copies);
}

/// Open a vartext export of `select` for `sessions` data sessions, in
/// chunks of `chunk_rows`, on a control session of its own: the session
/// and the export token.
fn open_windowed(
    connector: &dyn Connect,
    select: &str,
    sessions: u16,
    chunk_rows: u32,
) -> (Session, u64) {
    let mut s = Session::logon(connector, "reader", "p", SessionRole::Control, 0).unwrap();
    let begin = Message::BeginExport(BeginExport {
        select: select.into(),
        format: RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        sessions,
        chunk_rows,
    });
    match s.request(begin).unwrap() {
        Message::BeginExportOk(ok) => (s, ok.export_token),
        other => panic!("expected BeginExportOk, got {other:?}"),
    }
}

/// What one chunk request answers: index, record count, last flag, data.
fn chunk_at(s: &mut Session, index: u64) -> (u64, u32, bool, Vec<u8>) {
    match s.request(Message::ExportChunkReq { index }).unwrap() {
        Message::ExportChunk(c) => (c.index, c.record_count, c.last, c.data.to_vec()),
        other => panic!("expected ExportChunk, got {other:?}"),
    }
}

/// Chunks encoded ahead of their requests are the chunks a serial export
/// serves: two data sessions that ask out of order — past the window (a
/// miss), inside it (a hit), one index twice (a re-encode) and past the
/// end — get, index by index, what one session asking in order gets.
#[test]
fn windowed_export_serves_what_a_serial_export_serves() {
    let v = seeded_virtualizer(100);
    let connector = tcp_connector(&v);
    let select = "select CUST_ID, CUST_NAME, JOIN_DATE from PROD.CUSTOMER order by CUST_ID";

    let (mut serial, _) = open_windowed(connector.as_ref(), select, 1, 7);
    let mut want = Vec::new();
    for index in 0.. {
        want.push(chunk_at(&mut serial, index));
        if want[index as usize].2 {
            break;
        }
    }
    assert_eq!(want.len(), 15);
    want.push(chunk_at(&mut serial, 15));
    serial.logoff();

    let (control, token) = open_windowed(connector.as_ref(), select, 2, 7);
    let mut a =
        Session::logon(connector.as_ref(), "reader", "p", SessionRole::Data, token).unwrap();
    let mut b =
        Session::logon(connector.as_ref(), "reader", "p", SessionRole::Data, token).unwrap();
    let order = [
        0, 3, 1, 2, 2, 5, 4, 9, 6, 7, 8, 8, 0, 14, 10, 11, 13, 12, 15, 1,
    ];
    for (turn, index) in order.into_iter().enumerate() {
        let session = if turn % 2 == 0 { &mut a } else { &mut b };
        let got = chunk_at(session, index);
        assert_eq!(got, want[index as usize], "chunk {index}, request {turn}");
    }
    a.logoff();
    b.logoff();
    control.logoff();
    wait_idle(&v);
    assert_eq!(v.memory().in_flight(), 0);
}

/// An export abandoned after chunk 0 — its control session drops the
/// socket while chunks are held encoded ahead — gives back its job and
/// every byte those chunks were charged.
#[test]
fn an_abandoned_windowed_export_releases_its_chunks() {
    let v = seeded_virtualizer(100);
    let connector = tcp_connector(&v);
    let (mut s, _) = open_windowed(connector.as_ref(), "SELECT * FROM PROD.CUSTOMER", 2, 7);
    assert_eq!(chunk_at(&mut s, 0).1, 7);
    // The dispatch thread encodes chunks 1 and 2 ahead after it answers
    // chunk 0, and charges them to the memory gauge.
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.memory().in_flight() == 0 {
        assert!(Instant::now() < deadline, "no chunk was encoded ahead");
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(s);
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.active_jobs() > 0 || v.memory().in_flight() > 0 {
        assert!(
            Instant::now() < deadline,
            "an abandoned export kept {} jobs and {} bytes",
            v.active_jobs(),
            v.memory().in_flight()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
