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
/// duplicate key: both servers record the same rows and fields; the codes
/// split on purpose (Figure 5 on the oracle, Figure 6 on the gateway).
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
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
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
        "SELECT SEQNO, ERRFIELD, ERRMESSAGE, ERRCODE FROM PROD.ORDERS_ET ORDER BY SEQNO",
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
    // The README's Figure 5 vs Figure 6 contrast: the oracle applies row
    // by row and records each cause's own code (2665/2616/2667), while the
    // gateway finds value errors inside a failed DML statement and records
    // each as the Figure 6 DML-time code 3103.
    for r in &gateway_et {
        let message = text(&r[2]).unwrap();
        assert!(message.starts_with("Conversion failed"), "{message}");
        assert_eq!(r[3], Value::Int(3103), "{r:?}");
    }

    let uv = "SELECT SEQNO, ERRCODE FROM PROD.ORDERS_UV ORDER BY SEQNO";
    assert_eq!(
        rows(server.engine(), uv),
        vec![vec![Value::Int(5), Value::Int(2794)]]
    );
    assert_eq!(rows(v.cdw(), uv), rows(server.engine(), uv));
}

/// A row with an over-long value in its first column and a date that does
/// not cast in its third fails on the date on both servers: every value of
/// a row is evaluated before any is coerced into the target.
#[test]
fn a_row_fails_on_its_evaluation_before_its_coercion_on_both_servers() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field CODE varchar(12);
.field NAME varchar(8);
.field SEEN varchar(10);
.begin import tables PROD.SIGHTINGS errortables PROD.SIGHTINGS_ET PROD.SIGHTINGS_UV;
.dml label Go;
insert into PROD.SIGHTINGS values (:CODE, :NAME, cast(:SEEN as DATE format 'YYYY-MM-DD'));
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.SIGHTINGS (CODE VARCHAR(4), NAME VARCHAR(8), SEEN DATE)";
    const DATA: &[u8] = b"toolongcode|owl|20x0-01-01\nab|wren|2020-01-02\n";
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
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let et = "SELECT SEQNO, ERRFIELD FROM PROD.SIGHTINGS_ET ORDER BY SEQNO";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    assert_eq!(legacy.report.rows_applied, 1);
    assert_eq!(virt.report.rows_applied, 1);
    assert_eq!(
        rows(server.engine(), et),
        vec![vec![Value::Int(1), Value::Str("SEEN".into())]]
    );
    assert_eq!(rows(v.cdw(), et), rows(server.engine(), et));
}

/// A row that repeats a key and carries a NULL (an empty vartext field)
/// into a NOT NULL column fails its value before its key: an ET row on
/// both servers, naming the same field, while a clean repeat stays UV.
#[test]
fn colliding_null_in_not_null_column_is_et_on_both_servers() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field ID varchar(8);
.field QTY varchar(8);
.field NOTE varchar(8);
.begin import tables PROD.ITEMS errortables PROD.ITEMS_ET PROD.ITEMS_UV;
.dml label Go;
insert into PROD.ITEMS values (:ID, cast(:QTY as INTEGER), :NOTE);
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.ITEMS (ID VARCHAR(8) NOT NULL, QTY INTEGER NOT NULL, \
                       NOTE VARCHAR(8)) UNIQUE PRIMARY INDEX (ID)";
    // Row 2 repeats row 1's key with no QTY; row 4 repeats row 3's key
    // with every value present.
    const DATA: &[u8] = b"i1|5|ab\ni1||cd\ni2|6|ef\ni2|7|gh\n";
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
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let et = "SELECT SEQNO, ERRFIELD FROM PROD.ITEMS_ET ORDER BY SEQNO";
    let et_codes = "SELECT ERRCODE FROM PROD.ITEMS_ET ORDER BY SEQNO";
    let uv = "SELECT SEQNO, ERRCODE FROM PROD.ITEMS_UV ORDER BY SEQNO";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    assert_eq!(legacy.report.rows_applied, 2);
    assert_eq!(virt.report.rows_applied, 2);
    assert_eq!(
        rows(server.engine(), et),
        vec![vec![Value::Int(2), Value::Str("QTY".into())]]
    );
    assert_eq!(rows(v.cdw(), et), rows(server.engine(), et));
    // Figure 5's code for the NULL on the oracle, Figure 6's on the gateway.
    assert_eq!(
        rows(server.engine(), et_codes),
        vec![vec![Value::Int(2665)]]
    );
    assert_eq!(rows(v.cdw(), et_codes), vec![vec![Value::Int(3103)]]);
    assert_eq!(
        rows(server.engine(), uv),
        vec![vec![Value::Int(4), Value::Int(2794)]]
    );
    assert_eq!(rows(v.cdw(), uv), rows(server.engine(), uv));
}

/// Records the client sends but that do not decode (a short record,
/// invalid UTF-8) are ET rows with their own SEQNO on both servers, after
/// a CRLF line and a blank line that must not shift the numbering, and
/// the rest of the load goes on.
#[test]
fn malformed_vartext_records_are_et_rows_on_both_servers() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field ID varchar(8);
.field QTY varchar(8);
.field NOTE varchar(8);
.begin import tables PROD.LINES errortables PROD.LINES_ET PROD.LINES_UV;
.dml label Go;
insert into PROD.LINES values (:ID, cast(:QTY as INTEGER), :NOTE);
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.LINES (ID VARCHAR(8) NOT NULL, QTY INTEGER, \
                       NOTE VARCHAR(8)) UNIQUE PRIMARY INDEX (ID)";
    // Row 1 ends in CRLF, a blank line follows, row 2 is one field short,
    // row 3 holds invalid UTF-8 and row 4 is clean.
    const DATA: &[u8] = b"l1|1|ab\r\n\nl2|2\nl3|3|\xff\nl4|4|cd\n";
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
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let et = "SELECT SEQNO, ERRCODE FROM PROD.LINES_ET ORDER BY SEQNO";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    for report in [&legacy.report, &virt.report] {
        assert_eq!(report.rows_received, 4);
        assert_eq!(report.rows_applied, 2);
        assert_eq!(report.errors_et, 2);
    }
    assert_eq!(
        rows(server.engine(), et),
        vec![
            vec![Value::Int(2), Value::Int(2673)],
            vec![Value::Int(3), Value::Int(2665)],
        ]
    );
    assert_eq!(rows(v.cdw(), et), rows(server.engine(), et));
}

/// A DML whose FORMAT pattern is malformed fails only on the rows whose
/// value reaches the cast: a NULL converts to NULL, every other row is an
/// ET row naming the cast's field, on both servers alike.
#[test]
fn malformed_format_pattern_fails_each_non_null_row_on_both_servers() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field ID varchar(8);
.field D varchar(10);
.begin import tables PROD.EVENTS errortables PROD.EVENTS_ET PROD.EVENTS_UV;
.dml label Go;
insert into PROD.EVENTS values (:ID, cast(:D as DATE FORMAT 'YYYY-MM'));
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.EVENTS (ID VARCHAR(8) NOT NULL, D DATE) \
                       UNIQUE PRIMARY INDEX (ID)";
    // The pattern has no day token: rows 1 and 3 fail, row 2's empty
    // field is NULL and loads.
    const DATA: &[u8] = b"e1|2012-01\ne2|\ne3|2012-02\n";
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
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let et = "SELECT SEQNO, ERRCODE, ERRFIELD FROM PROD.EVENTS_ET ORDER BY SEQNO";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    for report in [&legacy.report, &virt.report] {
        assert_eq!(report.rows_received, 3);
        assert_eq!(report.rows_applied, 1);
        assert_eq!(report.errors_et, 2);
    }
    // The same rows and fields on both servers; the codes differ as in
    // `error_codes_and_fields_match_across_causes`: the oracle records the
    // bad date's own code, the gateway the DML-time code.
    let et_rows = |code: i64| {
        [1, 3]
            .map(|seq| vec![Value::Int(seq), Value::Int(code), Value::Str("D".into())])
            .to_vec()
    };
    assert_eq!(rows(server.engine(), et), et_rows(2666));
    assert_eq!(rows(v.cdw(), et), et_rows(3103));
}

/// A timestamp whose fraction holds a non-ASCII character is a bad
/// value on both servers: the row lands in ET with its SEQNO, the good
/// row loads, and the load gets its reply.
#[test]
fn non_ascii_timestamp_fraction_is_an_et_row_on_both_servers() {
    use etlv_protocol::data::Value;

    const SCRIPT: &str = ".logon h/u,p;
.layout L;
.field ID varchar(8);
.field T varchar(40);
.begin import tables PROD.STAMPS errortables PROD.STAMPS_ET PROD.STAMPS_UV;
.dml label Go;
insert into PROD.STAMPS values (:ID, :T);
.import infile f format vartext '|' layout L apply Go;
.end load
";
    const DDL: &str = "CREATE TABLE PROD.STAMPS (ID VARCHAR(8) NOT NULL, T TIMESTAMP) \
                       UNIQUE PRIMARY INDEX (ID)";
    // Byte 6 of row 2's fraction falls inside the two-byte 'é'.
    const DATA: &[u8] = "e1|2023-07-04 12:30:45.5\ne2|2023-07-04 12:30:45.12345é\n".as_bytes();
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
        // A server that loses the job ends the client's wait after 30 s
        // rather than blocking it forever.
        let options = ClientOptions {
            read_timeout: Some(std::time::Duration::from_secs(30)),
            ..Default::default()
        };
        LegacyEtlClient::with_options(connector, options)
            .run_import_data(&job, DATA)
            .unwrap()
    };
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let et = "SELECT SEQNO FROM PROD.STAMPS_ET ORDER BY SEQNO";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    for report in [&legacy.report, &virt.report] {
        assert_eq!(report.rows_received, 2);
        assert_eq!(report.rows_applied, 1);
        assert_eq!(report.errors_et, 1);
    }
    assert_eq!(rows(server.engine(), et), vec![vec![Value::Int(2)]]);
    assert_eq!(rows(v.cdw(), et), rows(server.engine(), et));
}

/// One `DECIMAL(p, s)` rule on both servers: a cast to a precision above
/// 38 or a scale above the precision is a SQL error with the same code.
/// The gateway used to answer `DECIMAL(38,150)` with an unscaled 0 at
/// scale 150, a value no renderer can print.
#[test]
fn out_of_range_decimal_cast_is_a_sql_error_on_both_servers() {
    use etlv_legacy_client::ClientError;
    use etlv_protocol::data::{Decimal, Value};

    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        let ok = session.sql("select cast(1.5 as decimal(38,2))").unwrap();
        assert_eq!(ok.rows, vec![vec![Value::Decimal(Decimal::new(150, 2))]]);
        let codes: Vec<u16> = ["decimal(38,150)", "decimal(300,2)", "decimal(5,6)"]
            .iter()
            .map(
                |ty| match session.sql(&format!("select cast(1.5 as {ty})")) {
                    Err(ClientError::Server { code, .. }) => code,
                    other => panic!("{ty}: expected a SQL error, got {other:?}"),
                },
            )
            .collect();
        session.logoff();
        codes
    };
    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    assert_eq!(run(tcp_connector(&v)), legacy);
}

/// One `DECIMAL` scale rule for literals too: more than 38 fractional
/// digits is a SQL error with the same code on both servers, and the
/// session stays usable. A 39-digit fraction used to parse to scale 39,
/// whose power of ten overflows `i128` when the value is rendered.
#[test]
fn over_scaled_decimal_literal_is_a_sql_error_on_both_servers() {
    use etlv_legacy_client::ClientError;
    use etlv_protocol::data::{Decimal, Value};

    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        session.set_read_timeout(Some(std::time::Duration::from_secs(10)));
        let ok = session.sql("select .01").unwrap();
        assert_eq!(ok.rows, vec![vec![Value::Decimal(Decimal::new(1, 2))]]);
        let over = format!("select .{}1", "0".repeat(38));
        let code = match session.sql(&over) {
            Err(ClientError::Server { code, .. }) => code,
            other => panic!("expected a SQL error, got {other:?}"),
        };
        assert!(session.sql("select 1").is_ok(), "the session still serves");
        session.logoff();
        code
    };
    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    assert_eq!(run(tcp_connector(&v)), legacy);
}

/// A decimal literal is typed wide enough for every digit it writes: a
/// scale-19 and a scale-38 literal answer, and decode, with the same type
/// and value on both servers. Typed `DECIMAL(18, scale)`, a literal with
/// more than 18 fractional digits was a type the client rejects as
/// invalid.
#[test]
fn wide_scale_decimal_literals_answer_on_both_servers() {
    use etlv_protocol::data::{Decimal, LegacyType, Value};

    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        session.set_read_timeout(Some(std::time::Duration::from_secs(10)));
        let answers: Vec<_> = [19u8, 38]
            .into_iter()
            .map(|scale| {
                let literal = format!(".{}1", "0".repeat(scale as usize - 1));
                let r = session
                    .sql(&format!("select {literal} as D"))
                    .unwrap_or_else(|e| panic!("scale {scale}: {e}"));
                assert_eq!(
                    r.columns,
                    vec![("D".to_string(), LegacyType::Decimal(scale, scale))]
                );
                assert_eq!(r.rows, vec![vec![Value::Decimal(Decimal::new(1, scale))]]);
                r
            })
            .collect();
        session.logoff();
        answers
    };
    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    assert_eq!(run(tcp_connector(&v)), legacy);
}

/// A qualified star (`T.*`) expands to the columns of that table or
/// alias, in order — alone, beside a column and across a join — with the
/// same columns and rows on both servers.
#[test]
fn qualified_star_answers_on_both_servers() {
    use etlv_protocol::data::Value;

    let run = |connector: Arc<dyn Connect>| {
        let mut session = etlv_legacy_client::Session::logon(
            connector.as_ref(),
            "admin",
            "pw",
            etlv_protocol::message::SessionRole::Control,
            0,
        )
        .unwrap();
        session.set_read_timeout(Some(std::time::Duration::from_secs(10)));
        for sql in [
            "create table QA (K integer not null, S varchar(8), primary key (K))",
            "create table QB (K integer, N integer)",
            "insert into QA values (2, 'two')",
            "insert into QA values (1, 'one')",
            "insert into QB values (1, 10)",
        ] {
            session.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        let answers: Vec<_> = [
            "sel QA.* from QA",
            "select x.*, x.K from QA x order by x.K",
            "sel b.N, a.* from QA a join QB b on a.K = b.K",
        ]
        .into_iter()
        .map(|sql| {
            let r = session.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let names: Vec<String> = r.columns.iter().map(|(n, _)| n.clone()).collect();
            (names, r.columns, r.rows)
        })
        .collect();
        session.logoff();
        answers
    };
    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let (int, s) = (Value::Int, |v: &str| Value::Str(v.into()));
    assert_eq!(legacy[0].0, ["K", "S"]);
    assert_eq!(
        legacy[0].2,
        vec![vec![int(2), s("two")], vec![int(1), s("one")]]
    );
    assert_eq!(legacy[1].0, ["K", "S", "K"]);
    assert_eq!(legacy[1].2[0], vec![int(1), s("one"), int(1)]);
    assert_eq!(legacy[2].0, ["N", "K", "S"]);
    assert_eq!(legacy[2].2, vec![vec![int(10), int(1), s("one")]]);
    let v = Virtualizer::new(VirtualizerConfig::default());
    assert_eq!(run(tcp_connector(&v)), legacy);
}

/// A NULL in a nullable key column collides with another NULL there, as
/// the legacy system's native enforcement has it: the second NULL-keyed
/// row of a load is a UV row on both servers, and so is a later load's
/// NULL-keyed row once the target holds one.
#[test]
fn null_keys_collide_in_a_nullable_key_column_on_both_servers() {
    use etlv_protocol::data::Value;

    let script = |job: &str| {
        format!(
            ".logon h/u,p;
.layout L;
.field K varchar(5);
.field V varchar(5);
.begin import tables PROD.NK errortables PROD.NK_ET{job} PROD.NK_UV{job};
.dml label Go;
insert into PROD.NK values (:K, :V);
.import infile f format vartext '|' layout L apply Go;
.end load
"
        )
    };
    const DDL: &str = "CREATE TABLE PROD.NK (K VARCHAR(5), V VARCHAR(5), PRIMARY KEY (K))";
    // Load 1: rows 1 and 2 have a NULL key; load 2: row 1 has one.
    let loads: [(&str, &[u8]); 2] = [("1", b"|a\n|b\nx|c\n"), ("2", b"|d\ny|e\n")];
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
        loads
            .iter()
            .map(|(job, data)| {
                let JobPlan::Import(job) = compile(&parse_script(&script(job)).unwrap()).unwrap()
                else {
                    panic!()
                };
                let result = LegacyEtlClient::new(Arc::clone(&connector))
                    .run_import_data(&job, data)
                    .unwrap();
                result.report.rows_applied
            })
            .collect::<Vec<_>>()
    };
    let rows = |cdw: &etlv_cdw::Cdw, sql: &str| cdw.execute(sql).unwrap().into_rows();
    let uv = |job: &str| format!("SELECT SEQNO, ERRCODE FROM PROD.NK_UV{job} ORDER BY SEQNO");
    let target = "SELECT K, V FROM PROD.NK ORDER BY V";

    let server = LegacyServer::new();
    let legacy = run(server_connector(&server));
    let v = Virtualizer::new(VirtualizerConfig::default());
    let virt = run(tcp_connector(&v));
    assert_eq!(legacy, [2, 1]);
    assert_eq!(virt, legacy);
    let (int, s) = (Value::Int, |v: &str| Value::Str(v.into()));
    assert_eq!(
        rows(server.engine(), &uv("1")),
        vec![vec![int(2), int(2794)]]
    );
    assert_eq!(
        rows(server.engine(), &uv("2")),
        vec![vec![int(1), int(2794)]]
    );
    for job in ["1", "2"] {
        assert_eq!(rows(v.cdw(), &uv(job)), rows(server.engine(), &uv(job)));
    }
    assert_eq!(
        rows(server.engine(), target),
        vec![
            vec![Value::Null, s("a")],
            vec![s("x"), s("c")],
            vec![s("y"), s("e")],
        ]
    );
    assert_eq!(rows(v.cdw(), target), rows(server.engine(), target));
}

/// A vartext export whose format names a quote other than `"` writes an
/// empty string as two of that quote and escapes that quote inside data,
/// so the legacy client's file decodes back to the rows in that format,
/// on both servers alike.
#[test]
fn export_in_a_single_quote_vartext_round_trips_on_both_servers() {
    use etlv_protocol::data::Value;
    use etlv_protocol::message::RecordFormat;
    use etlv_protocol::vartext::{records, VartextFormat};

    const SCRIPT: &str = ".logon h/u,p;
.begin export sessions 2;
.export outfile out format vartext '|';
select K, S from PROD.QUOTED order by K;
.end export;
";
    let JobPlan::Export(mut job) = compile(&parse_script(SCRIPT).unwrap()).unwrap() else {
        panic!()
    };
    let format = VartextFormat {
        delimiter: b'|',
        quote: b'\'',
    };
    job.format = RecordFormat::Vartext {
        delimiter: format.delimiter,
        quote: format.quote,
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
        for sql in [
            "create table PROD.QUOTED (K integer not null, S varchar(12), primary key (K))",
            "insert into PROD.QUOTED values (1, '')",
            "insert into PROD.QUOTED values (2, 'it''s')",
            "insert into PROD.QUOTED values (3, '''')",
            "insert into PROD.QUOTED values (4, NULL)",
            "insert into PROD.QUOTED values (5, '\"\"')",
        ] {
            session.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        session.logoff();
        let data = LegacyEtlClient::new(connector)
            .run_export(&job)
            .unwrap()
            .data;
        let rows: Vec<Vec<Value>> = records(&data)
            .map(|line| format.decode_line(line, Some(2)).unwrap())
            .collect();
        (data, rows)
    };
    let server = LegacyServer::new();
    let (legacy_data, legacy) = run(server_connector(&server));
    let s = |v: &str| Value::Str(v.into());
    assert_eq!(
        legacy,
        vec![
            vec![s("1"), s("")],
            vec![s("2"), s("it's")],
            vec![s("3"), s("'")],
            vec![s("4"), Value::Null],
            vec![s("5"), s("\"\"")],
        ]
    );
    assert_eq!(legacy_data, b"1|''\n2|it\\'s\n3|\\'\n4|\n5|\"\"\n");
    let v = Virtualizer::new(VirtualizerConfig::default());
    assert_eq!(run(tcp_connector(&v)), (legacy_data, legacy));
}
