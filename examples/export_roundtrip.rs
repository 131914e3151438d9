//! Export roundtrip: load a dataset through the virtualizer, then export
//! it back out with a legacy export job over parallel sessions.
//!
//! ```sh
//! cargo run --example export_roundtrip
//! ```
//!
//! Demonstrates the reverse data path of the paper's Figure 2(b): SELECT
//! on the CDW → TDFCursor result slices by index → legacy record encoding →
//! parallel export sessions → ordered reassembly at the client.

use std::sync::Arc;

use etlv_core::workload::{customer_workload, CustomerSpec};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session, TcpConnector};
use etlv_protocol::message::SessionRole;
use etlv_script::{compile, parse_script, JobPlan};

fn main() {
    let virtualizer = Virtualizer::new(VirtualizerConfig::default());
    let server = virtualizer.listen_tcp("127.0.0.1:0").unwrap();
    let connector = Arc::new(TcpConnector::new(server.addr().to_string()));

    // Generate and load 2,000 clean customer rows.
    let workload = customer_workload(&CustomerSpec {
        rows: 2_000,
        row_bytes: 90,
        sessions: 4,
        ..Default::default()
    });
    let mut session =
        Session::logon(connector.as_ref(), "admin", "pw", SessionRole::Control, 0).unwrap();
    session.sql(&workload.target_ddl).unwrap();
    session.logoff();

    let JobPlan::Import(import) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        unreachable!()
    };
    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 250,
            sessions: None,
            ..Default::default()
        },
    );
    let loaded = client.run_import_data(&import, &workload.data).unwrap();
    println!(
        "loaded {} rows in {:?} (acquisition {:?}, application {:?})",
        loaded.report.rows_applied,
        loaded.phases.acquisition + loaded.phases.application,
        loaded.phases.acquisition,
        loaded.phases.application,
    );

    // Export them back with a legacy export job. The SELECT uses legacy
    // syntax (FORMAT cast) that the virtualizer cross-compiles.
    let export_src = r#"
.logon edw/user,pass;
.begin export sessions 4;
.export outfile customers.txt format vartext '|';
sel CUST_ID, CUST_NAME, cast(JOIN_DATE as VARCHAR(8) format 'MM/DD/YY')
from PROD.CUSTOMER order by CUST_ID;
.end export;
"#;
    let JobPlan::Export(export) = compile(&parse_script(export_src).unwrap()).unwrap() else {
        unreachable!()
    };
    let result = client.run_export(&export).unwrap();
    println!(
        "exported {} rows ({} bytes) in {:?} across 4 sessions",
        result.rows,
        result.data.len(),
        result.elapsed
    );

    let text = String::from_utf8(result.data).unwrap();
    println!("\nfirst 5 exported records:");
    for line in text.lines().take(5) {
        println!("  {line}");
    }
    assert_eq!(result.rows, 2_000);

    // Verify ordering survived parallel chunk fetches.
    let ids: Vec<&str> = text.lines().map(|l| l.split('|').next().unwrap()).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "export chunks reassembled out of order");
    println!(
        "\nexport order verified: {} records, strictly sorted",
        ids.len()
    );
}
