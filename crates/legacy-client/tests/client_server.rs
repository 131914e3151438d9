//! End-to-end tests: legacy client ↔ reference legacy server over
//! loopback TCP. Reproduces the paper's Figure 5 error semantics on the
//! legacy side.

use std::sync::Arc;

use etlv_legacy_client::{ClientOptions, LegacyEtlClient, ScriptResult, TcpConnector};
use etlv_legacy_server::LegacyServer;
use etlv_protocol::data::{Date, Value};
use etlv_script::{compile, parse_script, JobPlan};

/// Serve `server` on a loopback port and return a connector to it.
fn tcp_connector(server: &Arc<LegacyServer>) -> Arc<TcpConnector> {
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    Arc::new(TcpConnector::new(addr.to_string()))
}

const IMPORT_SCRIPT: &str = r#"
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
    cast(:JOIN_DATE as DATE format `YYYY-MM-DD') );
.import infile input.txt
    format vartext `|' layout CustLayout
    apply InsApply;
.end load
"#;

const FIGURE5_DATA: &[u8] = b"123|Smith|2012-01-01\n\
456|Brown|xxxx\n\
789|Brown|yyyyy\n\
123|Jones|2012-12-01\n\
157|Jones|2012-12-01\n";

fn create_target(server: &Arc<LegacyServer>) {
    server
        .engine()
        .execute(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
        )
        .unwrap();
}

fn import_job() -> etlv_script::ImportJob {
    match compile(&parse_script(IMPORT_SCRIPT).unwrap()).unwrap() {
        JobPlan::Import(job) => job,
        _ => panic!("expected import"),
    }
}

#[test]
fn figure5_error_tables_on_legacy_server() {
    let server = LegacyServer::new();
    create_target(&server);
    let client = LegacyEtlClient::new(tcp_connector(&server));

    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    assert_eq!(result.rows_sent, 5);
    assert_eq!(result.report.rows_received, 5);
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
    assert_eq!(result.report.errors_uv, 1);

    let engine = server.engine();
    // Figure 5(b): ET rows (SEQNO, ERRCODE, ERRFIELD).
    let et = engine
        .execute("SELECT SEQNO, ERRCODE, ERRFIELD FROM PROD.CUSTOMER_ET ORDER BY SEQNO")
        .unwrap();
    assert_eq!(
        *et.rows,
        vec![
            vec![
                Value::Int(2),
                Value::Int(2666),
                Value::Str("JOIN_DATE".into())
            ],
            vec![
                Value::Int(3),
                Value::Int(2666),
                Value::Str("JOIN_DATE".into())
            ],
        ]
    );
    // Figure 5(c): the duplicate tuple in the UV table.
    let uv = engine
        .execute("SELECT CUST_ID, CUST_NAME, SEQNO, ERRCODE FROM PROD.CUSTOMER_UV")
        .unwrap();
    assert_eq!(
        *uv.rows,
        vec![vec![
            Value::Str("123".into()),
            Value::Str("Jones".into()),
            Value::Int(4),
            Value::Int(2794)
        ]]
    );
    // Figure 5(d): the successfully loaded tuples.
    let target = engine
        .execute("SELECT CUST_ID, CUST_NAME, JOIN_DATE FROM PROD.CUSTOMER ORDER BY CUST_ID")
        .unwrap();
    assert_eq!(
        *target.rows,
        vec![
            vec![
                Value::Str("123".into()),
                Value::Str("Smith".into()),
                Value::Date(Date::new(2012, 1, 1).unwrap())
            ],
            vec![
                Value::Str("157".into()),
                Value::Str("Jones".into()),
                Value::Date(Date::new(2012, 12, 1).unwrap())
            ],
        ]
    );
}

#[test]
fn parallel_sessions_and_small_chunks() {
    let server = LegacyServer::new();
    create_target(&server);
    let client = LegacyEtlClient::with_options(
        tcp_connector(&server),
        ClientOptions {
            chunk_rows: 1, // one record per chunk: maximum protocol churn
            sessions: Some(4),
            ..Default::default()
        },
    );
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    // Same outcome regardless of parallelism: row numbers are stamped
    // client-side.
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
    assert_eq!(result.report.errors_uv, 1);
    let et = server
        .engine()
        .execute("SELECT SEQNO FROM PROD.CUSTOMER_ET ORDER BY SEQNO")
        .unwrap();
    assert_eq!(*et.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
}

#[test]
fn import_over_tcp() {
    let server = LegacyServer::new();
    create_target(&server);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let client = LegacyEtlClient::new(Arc::new(TcpConnector::new(addr.to_string())));
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
}

#[test]
fn export_roundtrip_vartext() {
    let server = LegacyServer::new();
    create_target(&server);
    let connector = tcp_connector(&server);
    let client = LegacyEtlClient::new(connector);
    client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();

    let export_src = r#"
.logon host/user,pass;
.begin export sessions 3;
.export outfile out.txt format vartext '|';
select CUST_ID, CUST_NAME, JOIN_DATE from PROD.CUSTOMER order by CUST_ID;
.end export;
"#;
    let JobPlan::Export(job) = compile(&parse_script(export_src).unwrap()).unwrap() else {
        panic!()
    };
    let result = client.run_export(&job).unwrap();
    assert_eq!(result.rows, 2);
    let text = String::from_utf8(result.data).unwrap();
    assert_eq!(text, "123|Smith|2012-01-01\n157|Jones|2012-12-01\n");
    assert_eq!(result.layout.fields[2].name, "JOIN_DATE");
}

#[test]
fn export_binary_roundtrip() {
    let server = LegacyServer::new();
    create_target(&server);
    let client = LegacyEtlClient::new(tcp_connector(&server));
    client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();

    let export_src = r#"
.logon host/user,pass;
.begin export;
.export outfile out.bin format binary;
select CUST_ID, JOIN_DATE from PROD.CUSTOMER order by CUST_ID;
.end export;
"#;
    let JobPlan::Export(job) = compile(&parse_script(export_src).unwrap()).unwrap() else {
        panic!()
    };
    let result = client.run_export(&job).unwrap();
    let decoder = etlv_protocol::record::RecordDecoder::new(result.layout.clone());
    let rows = decoder.decode_batch(&result.data).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Str("123".into()));
    assert_eq!(rows[1][1], Value::Date(Date::new(2012, 12, 1).unwrap()));
}

#[test]
fn run_script_end_to_end_with_files() {
    let dir = std::env::temp_dir().join(format!("etlv-client-script-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("input.txt"), FIGURE5_DATA).unwrap();

    let server = LegacyServer::new();
    create_target(&server);
    let client = LegacyEtlClient::new(tcp_connector(&server));
    let ScriptResult::Import(result) = client.run_script(IMPORT_SCRIPT, &dir).unwrap() else {
        panic!()
    };
    assert_eq!(result.report.rows_applied, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn control_session_sql_access() {
    let server = LegacyServer::new();
    let connector = tcp_connector(&server);
    let mut session = etlv_legacy_client::Session::logon(
        connector.as_ref(),
        "user",
        "pass",
        etlv_protocol::message::SessionRole::Control,
        0,
    )
    .unwrap();
    session.sql("CREATE TABLE T (A INTEGER)").unwrap();
    session.sql("INSERT INTO T VALUES (41)").unwrap();
    let r = session.sql("SEL A + 1 FROM T").unwrap(); // legacy SEL keyword
    assert_eq!(r.rows, vec![vec![Value::Int(42)]]);
    // Server-side SQL errors surface as ClientError::Server, session stays up.
    let err = session.sql("SELECT * FROM NO_SUCH").unwrap_err();
    assert!(matches!(
        err,
        etlv_legacy_client::ClientError::Server { .. }
    ));
    let r = session.sql("SEL COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    session.logoff();
}

#[test]
fn errlimit_respected() {
    let server = LegacyServer::new();
    create_target(&server);
    let client = LegacyEtlClient::new(tcp_connector(&server));
    let mut job = import_job();
    job.errlimit = 1;
    let result = client.run_import_data(&job, FIGURE5_DATA).unwrap();
    // Aborts after the second error: only row 1 applied.
    assert_eq!(result.report.rows_applied, 1);
}
