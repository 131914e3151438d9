//! End-to-end integration: unmodified legacy client + scripts running
//! against the **virtualizer**, which executes on the CDW.
//!
//! This is the paper's core claim, exercised literally: the same script
//! and client that drive the reference legacy server (see the
//! `legacy-client` crate's tests) are repointed at the virtualizer and
//! produce the same logical outcome — loaded rows, ET errors, UV errors.

use std::sync::Arc;

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient};
use etlv_protocol::data::{Date, Value};
use etlv_script::{compile, parse_script, JobPlan};

mod common;
use common::tcp_connector;

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

fn import_job() -> etlv_script::ImportJob {
    match compile(&parse_script(IMPORT_SCRIPT).unwrap()).unwrap() {
        JobPlan::Import(job) => job,
        _ => panic!("expected import"),
    }
}

fn new_virtualizer(mut config: VirtualizerConfig) -> Virtualizer {
    config.credits = config.credits.max(4);
    let v = Virtualizer::new(config);
    // The target table is created through the virtualizer itself using
    // *legacy* DDL — exercising the cross-compiler's type mapping.
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let mut session = etlv_legacy_client::Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        etlv_protocol::message::SessionRole::Control,
        0,
    )
    .unwrap();
    session
        .sql(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, CUST_NAME VARCHAR(50), JOIN_DATE DATE) UNIQUE PRIMARY INDEX (CUST_ID)",
        )
        .unwrap();
    session.logoff();
    v
}

#[test]
fn figure5_semantics_through_virtualizer() {
    let v = new_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();

    assert_eq!(result.report.rows_received, 5);
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
    assert_eq!(result.report.errors_uv, 1);

    // Target contents match Figure 5(d).
    let target = v
        .cdw()
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

    // ET rows: seq 2 and 3, DML conversion code 3103, field JOIN_DATE.
    let et = v
        .cdw()
        .execute("SELECT SEQNO, ERRCODE, ERRFIELD FROM PROD.CUSTOMER_ET ORDER BY SEQNO")
        .unwrap();
    assert_eq!(
        *et.rows,
        vec![
            vec![
                Value::Int(2),
                Value::Int(3103),
                Value::Str("JOIN_DATE".into())
            ],
            vec![
                Value::Int(3),
                Value::Int(3103),
                Value::Str("JOIN_DATE".into())
            ],
        ]
    );

    // UV row: the duplicate 123 tuple with code 2794 — note the CDW has
    // NO native uniqueness; this is the emulation at work.
    let uv = v
        .cdw()
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

    // Staging table was cleaned up.
    assert!(!v.cdw().table_exists("ETLV_STG_1"));
    let metrics = v.metrics();
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.rows_ingested, 5);
}

#[test]
fn figure6_adaptive_error_table_max_errors_2() {
    let v = new_virtualizer(VirtualizerConfig {
        max_errors: 2,
        ..Default::default()
    });
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();

    // Figure 6: rows 2 and 3 individually (3103), then the residual range
    // (4, 5) as a single 9057 record.
    let et = v
        .cdw()
        .execute("SELECT SEQNO, ERRCODE, ERRFIELD, ERRMESSAGE FROM PROD.CUSTOMER_ET ORDER BY ERRCODE, SEQNO")
        .unwrap();
    assert_eq!(et.rows.len(), 3);
    assert_eq!(et.rows[0][0], Value::Int(2));
    assert_eq!(et.rows[0][1], Value::Int(3103));
    assert_eq!(et.rows[0][2], Value::Str("JOIN_DATE".into()));
    assert!(et.rows[0][3]
        .display_text()
        .contains("DATE conversion failed during DML on PROD.CUSTOMER, row number: 2"));
    assert_eq!(et.rows[1][0], Value::Int(3));
    assert_eq!(et.rows[2][0], Value::Null); // range record has no SEQNO
    assert_eq!(et.rows[2][1], Value::Int(9057));
    assert!(et.rows[2][3]
        .display_text()
        .contains("Max number of errors reached during DML on PROD.CUSTOMER, row numbers: (4, 5)"));

    // Rows 4 and 5 were lumped into the range: only row 1 loaded.
    assert_eq!(result.report.rows_applied, 1);
    assert_eq!(v.cdw().table_len("PROD.CUSTOMER").unwrap(), 1);
}

#[test]
fn parallel_sessions_small_chunks_same_outcome() {
    let v = new_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 1,
            sessions: Some(4),
            ..Default::default()
        },
    );
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
    assert_eq!(result.report.errors_uv, 1);
}

#[test]
fn clean_bulk_load_with_compression_and_rotation() {
    let v = Virtualizer::new(VirtualizerConfig {
        compress_staged: true,
        file_size_threshold: 2048, // force several staged files
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 50, // several chunks -> several staged files
            sessions: None,
            ..Default::default()
        },
    );

    let workload = etlv_core::workload::customer_workload(&etlv_core::workload::CustomerSpec {
        rows: 500,
        row_bytes: 120,
        sessions: 3,
        ..Default::default()
    });
    v.cdw()
        .execute(&etlv_core::xcompile::translate_sql(&workload.target_ddl).unwrap())
        .unwrap();
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!()
    };
    let result = client.run_import_data(&job, &workload.data).unwrap();
    assert_eq!(result.report.rows_applied, 500);
    assert_eq!(result.report.errors_et, 0);
    assert_eq!(v.cdw().table_len("PROD.CUSTOMER").unwrap(), 500);
    let report = v.last_job_report().unwrap();
    assert!(report.files_staged > 1, "{}", report.files_staged);
}

#[test]
fn acquisition_data_errors_reach_et_table() {
    let v = new_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::new(tcp_connector(&v));
    // Row 2 has the wrong field count: a pure acquisition-phase error.
    let data = b"123|Smith|2012-01-01\nbroken_row\n157|Jones|2012-12-01\n";
    let result = client.run_import_data(&import_job(), data).unwrap();
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 1);
    let et = v
        .cdw()
        .execute("SELECT SEQNO, ERRCODE FROM PROD.CUSTOMER_ET")
        .unwrap();
    assert_eq!(*et.rows, vec![vec![Value::Int(2), Value::Int(2673)]]);
}

#[test]
fn oom_cap_fails_job_not_process() {
    let v = new_virtualizer(VirtualizerConfig {
        memory_cap: 64, // absurdly small: the first chunk trips it
        credits: 64,
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 1000,
            sessions: Some(1),
            ..Default::default()
        },
    );
    let err = client
        .run_import_data(&import_job(), FIGURE5_DATA)
        .unwrap_err();
    match err {
        etlv_legacy_client::ClientError::Server { code, message } => {
            assert_eq!(code, 8998, "{message}");
            assert!(message.contains("out of memory"), "{message}");
        }
        other => panic!("expected OOM server error, got {other}"),
    }
    assert_eq!(v.metrics().jobs_completed, 0);
}

#[test]
fn singleton_baseline_matches_adaptive_results() {
    let v = new_virtualizer(VirtualizerConfig {
        apply_strategy: etlv_core::ApplyStrategy::Singleton,
        ..Default::default()
    });
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_et, 2);
    assert_eq!(result.report.errors_uv, 1);
}

#[test]
fn concurrent_jobs_share_one_credit_pool() {
    let v = Virtualizer::new(VirtualizerConfig {
        credits: 4,
        ..Default::default()
    });
    {
        let client = LegacyEtlClient::new(tcp_connector(&v));
        let mut s = etlv_legacy_client::Session::logon(
            client.connector().as_ref(),
            "a",
            "b",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        s.sql("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
            .unwrap();
        s.sql("CREATE TABLE PROD.CUSTOMER2 (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
            .unwrap();
        s.logoff();
    }
    let script2 = IMPORT_SCRIPT
        .replace("PROD.CUSTOMER_ET", "PROD.C2_ET")
        .replace("PROD.CUSTOMER_UV", "PROD.C2_UV")
        .replace("PROD.CUSTOMER", "PROD.CUSTOMER2");
    let job2 = match compile(&parse_script(&script2).unwrap()).unwrap() {
        JobPlan::Import(j) => j,
        _ => panic!(),
    };
    let data: Vec<u8> = (0..200)
        .flat_map(|i| format!("i{i:03}|name{i}|2012-01-01\n").into_bytes())
        .collect();

    let v1 = v.clone();
    let data1 = data.clone();
    let t1 = std::thread::spawn(move || {
        let client = LegacyEtlClient::with_options(
            tcp_connector(&v1),
            ClientOptions {
                chunk_rows: 10,
                sessions: Some(2),
                ..Default::default()
            },
        );
        client.run_import_data(&import_job(), &data1).unwrap()
    });
    let v2 = v.clone();
    let t2 = std::thread::spawn(move || {
        let client = LegacyEtlClient::with_options(
            tcp_connector(&v2),
            ClientOptions {
                chunk_rows: 10,
                sessions: Some(2),
                ..Default::default()
            },
        );
        client.run_import_data(&job2, &data).unwrap()
    });
    let r1 = t1.join().unwrap();
    let r2 = t2.join().unwrap();
    assert_eq!(r1.report.rows_applied, 200);
    assert_eq!(r2.report.rows_applied, 200);
    assert_eq!(v.cdw().table_len("PROD.CUSTOMER").unwrap(), 200);
    assert_eq!(v.cdw().table_len("PROD.CUSTOMER2").unwrap(), 200);
    // The shared pool is intact afterwards.
    assert_eq!(v.credits().available(), 4);
    assert_eq!(v.memory().in_flight(), 0);
}

#[test]
fn virtualizer_over_tcp() {
    let v = new_virtualizer(VirtualizerConfig::default());
    let server = v.listen_tcp("127.0.0.1:0").unwrap();
    let client = LegacyEtlClient::new(Arc::new(etlv_legacy_client::TcpConnector::new(
        server.addr().to_string(),
    )));
    let result = client.run_import_data(&import_job(), FIGURE5_DATA).unwrap();
    assert_eq!(result.report.rows_applied, 2);
    assert_eq!(result.report.errors_uv, 1);
    // Explicit shutdown joins the accept loop and every connection thread.
    server.shutdown();
}
