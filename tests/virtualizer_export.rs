//! Export jobs through the virtualizer: SELECT on the CDW → TDFCursor
//! slice by index → legacy wire encoding → client output file. Includes full
//! import-then-export roundtrips.

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient};
use etlv_protocol::data::{Date, Value};
use etlv_script::{compile, parse_script, JobPlan};

mod common;
use common::tcp_connector;

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
