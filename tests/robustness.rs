//! Additional end-to-end robustness coverage for the virtualizer: SQL
//! pass-through DML, script-level errlimit, wide tables, session-error
//! recovery, and binary-format loads.

use etlv_core::workload::wide_workload;
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session};
use etlv_protocol::data::{LegacyType, Value};
use etlv_protocol::message::SessionRole;
use etlv_protocol::record::RecordEncoder;
use etlv_script::{compile, parse_script, JobPlan};

mod common;
use common::tcp_connector;

#[test]
fn sql_passthrough_dml_and_recovery() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();

    session
        .sql("CREATE TABLE T (A INTEGER, B VARCHAR(10) CHARACTER SET UNICODE)")
        .unwrap();
    session
        .sql("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        .unwrap();

    // A SQL error must not kill the control session.
    assert!(session.sql("SELECT nope FROM T").is_err());

    // Legacy-only constructs pass through the cross-compiler.
    let r = session
        .sql("LOCKING T FOR ACCESS SEL A, UPPER(B) FROM T WHERE A BETWEEN 2 AND 3 ORDER BY A")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], Value::Str("Y".into()));

    let r = session.sql("UPD T SET B = B || '!' WHERE A = 1").unwrap();
    assert_eq!(r.activity_count, 1);
    let r = session.sql("DEL T WHERE A = 3").unwrap();
    assert_eq!(r.activity_count, 1);
    let r = session.sql("SEL COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    // The Unicode column surfaced to the legacy client as a Unicode type.
    let r = session.sql("SEL B FROM T WHERE A = 1").unwrap();
    assert!(matches!(r.columns[0].1, LegacyType::VarCharUnicode(_)));
    session.logoff();
}

#[test]
fn script_errlimit_produces_range_records() {
    // errlimit 1 in the script becomes the adaptive max_errors bound.
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql("CREATE TABLE T (ID VARCHAR(5), D DATE)")
        .unwrap();
    session.logoff();

    let script = r#"
.logon h/u,p;
.layout L;
.field ID varchar(5);
.field D varchar(10);
.begin import tables T errortables T_ET T_UV errlimit 1;
.dml label Go;
insert into T values (:ID, cast(:D as DATE format 'YYYY-MM-DD'));
.import infile f format vartext '|' layout L apply Go;
.end load
"#;
    let JobPlan::Import(job) = compile(&parse_script(script).unwrap()).unwrap() else {
        panic!()
    };
    // Rows 2, 4, 5 are bad: with errlimit 1 only the first is recorded
    // individually; later failing ranges become 9057 records.
    let data = b"a|2020-01-01\nb|bad\nc|2020-01-03\nd|bad\ne|bad\n";
    let client = LegacyEtlClient::new(connector.clone());
    client.run_import_data(&job, data).unwrap();

    let et = v
        .cdw()
        .execute("SELECT ERRCODE FROM T_ET ORDER BY ERRCODE")
        .unwrap();
    let codes: Vec<i64> = et
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            _ => panic!(),
        })
        .collect();
    assert!(codes.contains(&3103), "{codes:?}");
    assert!(codes.contains(&9057), "{codes:?}");
}

#[test]
fn wide_table_50_columns() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let workload = wide_workload(200, 50, 10, 3);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    session.sql(&workload.target_ddl).unwrap();
    session.logoff();

    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!()
    };
    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 25,
            sessions: Some(3),
            ..Default::default()
        },
    );
    let result = client.run_import_data(&job, &workload.data).unwrap();
    assert_eq!(result.report.rows_applied, 200);
    assert_eq!(v.cdw().table_len("PROD.WIDE").unwrap(), 200);
}

#[test]
fn binary_format_load_with_typed_fields() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql("CREATE TABLE M (ID INTEGER, AMT DECIMAL(10,2), D DATE)")
        .unwrap();
    session.logoff();

    let script = r#"
.logon h/u,p;
.layout Bin;
.field ID integer;
.field AMT decimal(10,2);
.field D date;
.begin import tables M errortables M_ET M_UV;
.dml label Go;
insert into M values (:ID, :AMT, :D);
.import infile data.bin format binary layout Bin apply Go;
.end load
"#;
    let JobPlan::Import(job) = compile(&parse_script(script).unwrap()).unwrap() else {
        panic!()
    };
    // Encode typed binary input the way the legacy tooling would.
    let encoder = RecordEncoder::new(job.layout.clone());
    let rows: Vec<Vec<Value>> = (1..=50)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Decimal(etlv_protocol::data::Decimal::new(i as i128 * 125, 2)),
                Value::Date(etlv_protocol::data::Date::new(2021, 6, (i % 28 + 1) as u8).unwrap()),
            ]
        })
        .collect();
    let data = encoder.encode_batch(&rows).unwrap();

    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 7,
            sessions: Some(2),
            ..Default::default()
        },
    );
    let result = client.run_import_data(&job, &data).unwrap();
    assert_eq!(result.report.rows_applied, 50);

    // Typed values survived the binary→staged-text→COPY→DML round trip.
    let r = v
        .cdw()
        .execute("SELECT ID, AMT, D FROM M WHERE ID = 10")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(10));
    assert_eq!(r.rows[0][1].display_text(), "12.50");
    assert_eq!(r.rows[0][2].display_text(), "2021-06-11");
}

#[test]
fn throttled_compressed_upload_still_correct() {
    let v = Virtualizer::new(VirtualizerConfig {
        compress_staged: true,
        upload_throttle: etlv_cloudstore::Throttle::shaped(
            std::time::Duration::from_millis(1),
            50_000_000,
        ),
        file_size_threshold: 4096,
        ..Default::default()
    });
    let connector = tcp_connector(&v);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql("CREATE TABLE T (A VARCHAR(8), B VARCHAR(64))")
        .unwrap();
    session.logoff();

    let script = r#"
.logon h/u,p;
.layout L;
.field A varchar(8);
.field B varchar(64);
.begin import tables T errortables T_ET T_UV;
.dml label Go;
insert into T values (:A, :B);
.import infile f format vartext '|' layout L apply Go;
.end load
"#;
    let JobPlan::Import(job) = compile(&parse_script(script).unwrap()).unwrap() else {
        panic!()
    };
    let data: Vec<u8> = (0..500)
        .flat_map(|i| format!("k{i:05}|value value value {i}\n").into_bytes())
        .collect();
    let client = LegacyEtlClient::new(connector.clone());
    let result = client.run_import_data(&job, &data).unwrap();
    assert_eq!(result.report.rows_applied, 500);
}
