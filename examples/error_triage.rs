//! Error triage: the paper's §7 adaptive error handling in action.
//!
//! ```sh
//! cargo run --example error_triage
//! ```
//!
//! Loads a seeded dirty dataset (bad dates + duplicate keys) twice:
//! once with unlimited individual error recording, once with
//! `max_errors = 2` — reproducing the Figure 5 vs Figure 6 contrast —
//! then prints the ET/UV error tables an operator would review.

use std::sync::Arc;

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{LegacyEtlClient, Session, TcpConnector};
use etlv_protocol::message::SessionRole;
use etlv_script::{compile, parse_script, JobPlan};

const SCRIPT: &str = r#"
.logon edw/user,pass;
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

/// Figure 5(a): two bad dates (rows 2, 3) and one duplicate key (row 4).
const DATA: &[u8] = b"123|Smith|2012-01-01\n\
456|Brown|xxxx\n\
789|Brown|yyyyy\n\
123|Jones|2012-12-01\n\
157|Jones|2012-12-01\n";

fn run_with(max_errors: u64) {
    let virtualizer = Virtualizer::new(VirtualizerConfig {
        max_errors,
        ..Default::default()
    });

    let server = virtualizer.listen_tcp("127.0.0.1:0").unwrap();
    let connector = Arc::new(TcpConnector::new(server.addr().to_string()));

    let mut session =
        Session::logon(connector.as_ref(), "admin", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), \
             JOIN_DATE DATE) UNIQUE PRIMARY INDEX (CUST_ID)",
        )
        .unwrap();
    session.logoff();

    let JobPlan::Import(job) = compile(&parse_script(SCRIPT).unwrap()).unwrap() else {
        unreachable!()
    };
    let client = LegacyEtlClient::new(connector.clone());
    let result = client.run_import_data(&job, DATA).unwrap();

    let label = if max_errors == 0 {
        "unlimited individual errors (Figure 5 semantics)".to_string()
    } else {
        format!("max_errors = {max_errors} (Figure 6 semantics)")
    };
    println!("\n######## {label} ########");
    println!(
        "applied {} of {} rows; {} ET errors, {} UV errors",
        result.report.rows_applied,
        result.report.rows_received,
        result.report.errors_et,
        result.report.errors_uv
    );

    let mut session =
        Session::logon(connector.as_ref(), "admin", "pw", SessionRole::Control, 0).unwrap();
    let et = session
        .sql("select ERRCODE, ERRFIELD, ERRMESSAGE from PROD.CUSTOMER_ET order by ERRCODE")
        .unwrap();
    println!("\nErrorCode | ErrorField | ErrorMessage");
    for row in &et.rows {
        println!(
            "{:9} | {:10} | {}",
            row[0].to_string(),
            row[1].to_string(),
            row[2]
        );
    }
    let uv = session
        .sql("select CUST_ID, CUST_NAME, JOIN_DATE, SEQNO, ERRCODE from PROD.CUSTOMER_UV")
        .unwrap();
    if !uv.rows.is_empty() {
        println!("\nUniqueness violations (UV table):");
        for row in &uv.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("  {}", cells.join(" | "));
        }
    }
    session.logoff();
}

fn main() {
    run_with(0); // record every individual error
    run_with(2); // the paper's Figure 6 configuration
}
