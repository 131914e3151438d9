//! Quickstart: run the paper's Example 2.1 load, unmodified, against the
//! virtualizer.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The flow: start a virtualizer node (backed by an in-process CDW and an
//! in-memory object store), create the target table through the legacy
//! protocol, then run a legacy import script — the exact script from the
//! paper's Example 2.1 — with the Figure 5(a) data file, and inspect the
//! resulting target and error tables.

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
    cast(:JOIN_DATE as DATE format `YYYY-MM-DD') );
.import infile input.txt
    format vartext `|' layout CustLayout
    apply InsApply;
.end load
"#;

const DATA: &[u8] = b"123|Smith|2012-01-01\n\
456|Brown|xxxx\n\
789|Brown|yyyyy\n\
123|Jones|2012-12-01\n\
157|Jones|2012-12-01\n";

fn main() {
    // 1. A virtualizer node. In production this sits between the legacy
    //    clients and the cloud warehouse; here the CDW and object store
    //    are in-process simulations.
    let virtualizer = Virtualizer::new(VirtualizerConfig::default());

    // Legacy clients reach it over TCP, exactly as they reached the
    // legacy EDW. The handle owns the server threads; dropping it (end
    // of `main`) shuts the server down.
    let server = virtualizer.listen_tcp("127.0.0.1:0").unwrap();
    let connector = Arc::new(TcpConnector::new(server.addr().to_string()));

    // 2. Create the target table — in *legacy* DDL, over the legacy
    //    protocol. The virtualizer cross-compiles it for the CDW.
    let mut session =
        Session::logon(connector.as_ref(), "admin", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5) NOT NULL, \
             CUST_NAME VARCHAR(50), JOIN_DATE DATE) UNIQUE PRIMARY INDEX (CUST_ID)",
        )
        .unwrap();
    session.logoff();

    // 3. Run the unmodified legacy ETL script.
    let JobPlan::Import(job) = compile(&parse_script(SCRIPT).unwrap()).unwrap() else {
        unreachable!()
    };
    let client = LegacyEtlClient::new(connector.clone());
    let result = client.run_import_data(&job, DATA).unwrap();

    println!("== load report ==");
    println!("rows received : {}", result.report.rows_received);
    println!("rows applied  : {}", result.report.rows_applied);
    println!("ET errors     : {}", result.report.errors_et);
    println!("UV errors     : {}", result.report.errors_uv);
    println!(
        "phases        : acquisition {:?}, application {:?}",
        result.phases.acquisition, result.phases.application
    );

    // 4. Inspect the outcome the way a legacy operator would: SQL over the
    //    legacy protocol.
    let mut session =
        Session::logon(connector.as_ref(), "admin", "pw", SessionRole::Control, 0).unwrap();
    print_table(
        &mut session,
        "PROD.CUSTOMER",
        "select * from PROD.CUSTOMER order by CUST_ID",
    );
    print_table(
        &mut session,
        "PROD.CUSTOMER_ET",
        "select * from PROD.CUSTOMER_ET order by SEQNO",
    );
    print_table(
        &mut session,
        "PROD.CUSTOMER_UV",
        "select * from PROD.CUSTOMER_UV",
    );
    session.logoff();
}

fn print_table(session: &mut Session, title: &str, sql: &str) {
    let result = session.sql(sql).unwrap();
    println!("\n== {title} ==");
    let header: Vec<&str> = result.columns.iter().map(|(n, _)| n.as_str()).collect();
    println!("{}", header.join(" | "));
    for row in &result.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
}
