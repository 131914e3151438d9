//! Semantic-parity tests: the same legacy script and data produce the same
//! logical outcome on the reference legacy server and on the virtualizer.
//!
//! This is the migration guarantee the paper's customers depend on — and
//! the reason "less than 1% of the queries in ETL jobs had to be rewritten
//! manually" (§8).

use std::sync::Arc;

use etlv_core::workload::{customer_workload, CustomerSpec};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, Connect, LegacyEtlClient, TcpConnector};
use etlv_legacy_server::LegacyServer;
use etlv_script::{compile, parse_script, JobPlan};

mod common;
use common::tcp_connector;

/// The blocking oracle, served on a loopback port like the virtualizer.
fn server_connector(server: &Arc<LegacyServer>) -> Arc<dyn Connect> {
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind loopback");
    Arc::new(TcpConnector::new(addr.to_string()))
}

/// Run the workload against both systems (creating the target through the
/// legacy protocol in both cases) and compare outcomes.
fn run_both(
    spec: &CustomerSpec,
) -> (
    etlv_legacy_client::ImportResult,
    etlv_legacy_client::ImportResult,
) {
    let workload = customer_workload(spec);
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!()
    };

    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        session.sql(&workload.target_ddl).unwrap();
        session.logoff();
        let client = LegacyEtlClient::with_options(
            connector,
            ClientOptions {
                chunk_rows: 37,
                sessions: None,
                ..Default::default()
            },
        );
        client.run_import_data(&job, &workload.data).unwrap()
    };

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    (legacy, virt)
}

#[test]
fn clean_load_parity() {
    let (legacy, virt) = run_both(&CustomerSpec {
        rows: 300,
        row_bytes: 80,
        sessions: 2,
        ..Default::default()
    });
    assert_eq!(legacy.report.rows_received, virt.report.rows_received);
    assert_eq!(legacy.report.rows_applied, virt.report.rows_applied);
    assert_eq!(legacy.report.rows_applied, 300);
    assert_eq!(virt.report.errors_et, 0);
    assert_eq!(virt.report.errors_uv, 0);
}

#[test]
fn dirty_load_parity() {
    let (legacy, virt) = run_both(&CustomerSpec {
        rows: 400,
        row_bytes: 80,
        date_error_rate: 0.05,
        dup_rate: 0.03,
        sessions: 2,
        seed: 99,
        ..Default::default()
    });
    assert_eq!(legacy.report.rows_applied, virt.report.rows_applied);
    assert_eq!(legacy.report.errors_et, virt.report.errors_et);
    assert_eq!(legacy.report.errors_uv, virt.report.errors_uv);
    assert!(virt.report.errors_et > 0);
    assert!(virt.report.errors_uv > 0);
}

#[test]
fn error_rows_match_ground_truth() {
    let spec = CustomerSpec {
        rows: 200,
        date_error_rate: 0.10,
        dup_rate: 0.0,
        sessions: 1,
        seed: 7,
        ..Default::default()
    };
    let workload = customer_workload(&spec);
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!()
    };
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let mut session = etlv_legacy_client::Session::logon(
        connector.as_ref(),
        "admin",
        "pw",
        etlv_protocol::message::SessionRole::Control,
        0,
    )
    .unwrap();
    session.sql(&workload.target_ddl).unwrap();
    session.logoff();
    let client = LegacyEtlClient::new(connector);
    let result = client.run_import_data(&job, &workload.data).unwrap();

    assert_eq!(result.report.errors_et, workload.bad_date_rows.len() as u64);
    // The ET table names exactly the seeded bad rows.
    let et = v
        .cdw()
        .execute("SELECT SEQNO FROM PROD.CUSTOMER_ET ORDER BY SEQNO")
        .unwrap();
    let recorded: Vec<u64> = et
        .rows
        .iter()
        .map(|r| match &r[0] {
            etlv_protocol::data::Value::Int(v) => *v as u64,
            _ => panic!(),
        })
        .collect();
    assert_eq!(recorded, workload.bad_date_rows);
}

/// One load whose bad rows each fail for a different cause, plus one
/// duplicate key: both servers record the same code and field per row.
#[test]
fn error_codes_and_fields_match_across_causes() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field ID varchar(8);
.field QTY varchar(8);
.field AMT varchar(8);
.field UPDATED_BY varchar(8);
.begin import tables PROD.ORDERS errortables PROD.ORDERS_ET PROD.ORDERS_UV;
.dml label Go;
insert into PROD.ORDERS values (:ID, cast(:QTY as INTEGER), cast(:AMT as DECIMAL(5,2)), :UPDATED_BY);
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.ORDERS (ID VARCHAR(8) NOT NULL, QTY INTEGER, \
                       AMT DECIMAL(5,2), UPDATED_BY VARCHAR(3)) UNIQUE PRIMARY INDEX (ID)";
    // Row 1 'UPDATE' is no number (its text merely contains "DATE"), row 2
    // overflows DECIMAL(5,2), row 3 is too long for the target column
    // UPDATED_BY, row 5 repeats row 4's key, and row 7 repeats it too but
    // fails on its QTY first.
    const DATA: &[u8] = b"o1|UPDATE|1.00|ab\n\
                          o2|5|123456|ab\n\
                          o3|5|1.00|toolong\n\
                          o4|5|1.00|ab\n\
                          o4|6|2.00|cd\n\
                          o6|7|3.00|ef\n\
                          o4|bad|1.00|ab\n";
    let JobPlan::Import(job) = compile(&parse_script(SCRIPT).unwrap()).unwrap() else {
        panic!()
    };
    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        session.sql(DDL).unwrap();
        session.logoff();
        LegacyEtlClient::new(connector)
            .run_import_data(&job, DATA)
            .unwrap()
    };
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().rows;
    let text = |v: &Value| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    };

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    assert_eq!(legacy.report.rows_applied, 2);
    assert_eq!(virt.report.rows_applied, 2);

    let oracle_et: Vec<(Value, Value, Option<String>)> = rows(
        server.engine(),
        "SELECT SEQNO, ERRCODE, ERRFIELD FROM PROD.ORDERS_ET ORDER BY SEQNO",
    )
    .iter()
    .map(|r| (r[0].clone(), r[1].clone(), text(&r[2])))
    .collect();
    let field = |f: &str| Some(f.to_string());
    assert_eq!(
        oracle_et,
        vec![
            (Value::Int(1), Value::Int(2665), field("QTY")),
            (Value::Int(2), Value::Int(2616), field("AMT")),
            (Value::Int(3), Value::Int(2667), field("UPDATED_BY")),
            (Value::Int(7), Value::Int(2665), field("QTY")),
        ]
    );

    let gateway_et = rows(
        v.cdw(),
        "SELECT SEQNO, ERRFIELD, ERRMESSAGE FROM PROD.ORDERS_ET ORDER BY SEQNO",
    );
    let gateway_fields: Vec<(Value, Option<String>)> = gateway_et
        .iter()
        .map(|r| (r[0].clone(), text(&r[1])))
        .collect();
    let oracle_fields: Vec<(Value, Option<String>)> = oracle_et
        .iter()
        .map(|(seq, _, f)| (seq.clone(), f.clone()))
        .collect();
    assert_eq!(gateway_fields, oracle_fields);
    for r in &gateway_et {
        let message = text(&r[2]).unwrap();
        assert!(message.starts_with("Conversion failed"), "{message}");
    }

    let uv_seqs =
        |cdw: &etlv_cdw::Cdw| rows(cdw, "SELECT SEQNO FROM PROD.ORDERS_UV ORDER BY SEQNO");
    assert_eq!(uv_seqs(server.engine()), vec![vec![Value::Int(5)]]);
    assert_eq!(uv_seqs(v.cdw()), uv_seqs(server.engine()));
}
