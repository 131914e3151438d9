//! Fault injection: run a legacy import against a virtualizer armed with a
//! seeded [`FaultPlan`] and watch the retry machinery absorb the faults.
//!
//! ```sh
//! cargo run --example fault_injection
//! ```
//!
//! Three scenarios:
//!
//! 1. A flaky object store (first two puts fail) — the upload retries
//!    absorb the faults and the load completes with every row applied.
//! 2. The same seed replayed on a fresh node under random store faults —
//!    fault and retry counts reproduce exactly.
//! 3. A dropped data frame with a client read timeout — the job fails
//!    cleanly as a timeout instead of hanging, and the node's credit pool
//!    drains back to capacity.

use std::sync::Arc;
use std::time::Duration;

use etlv::prelude::*;
use etlv_core::{FaultPlan, FaultSpec, StorePutFailure, TransportFailure};
use etlv_legacy_client::{ClientError, TcpConnector};
use etlv_protocol::message::SessionRole;
use etlv_protocol::transport::{ChaosTransport, TcpTransport};
use etlv_script::ImportJob;

const SCRIPT: &str = r#"
.logon edw/user,pass;
.layout L;
.field SKU varchar(8);
.field NOTE varchar(32);
.begin import tables PROD.ITEM errortables PROD.ITEM_ET PROD.ITEM_UV;
.dml label Go;
insert into PROD.ITEM values (:SKU, :NOTE);
.import infile items.txt format vartext `|' layout L apply Go;
.end load
"#;

fn import_job() -> ImportJob {
    let JobPlan::Import(job) = compile(&parse_script(SCRIPT).unwrap()).unwrap() else {
        unreachable!()
    };
    job
}

fn rows(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| format!("k{i:04}|value-{i:04}\n").into_bytes())
        .collect()
}

fn create_target(connector: &dyn Connect) {
    let mut session = Session::logon(connector, "ops", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql("CREATE TABLE PROD.ITEM (SKU VARCHAR(8), NOTE VARCHAR(32))")
        .unwrap();
    session.logoff();
}

fn main() {
    flaky_store_recovers();
    same_seed_reproduces();
    dropped_frame_times_out_cleanly();
}

/// Scenario 1: the first two object-store puts fail with a torn write;
/// capped-backoff retries absorb both and the load completes.
fn flaky_store_recovers() {
    println!("== scenario 1: flaky object store, retries absorb it ==");
    let v = Virtualizer::new(VirtualizerConfig {
        fault_plan: Some(FaultPlan {
            store_put: FaultSpec::FirstN(2),
            store_put_failure: StorePutFailure::PartialWrite,
            ..FaultPlan::seeded(7)
        }),
        ..Default::default()
    });
    let server = v.listen_tcp("127.0.0.1:0").unwrap();
    let connector = Arc::new(TcpConnector::new(server.addr().to_string()));
    create_target(connector.as_ref());

    let client = LegacyEtlClient::new(connector.clone());
    let result = client.run_import_data(&import_job(), &rows(50)).unwrap();
    println!("rows applied    : {}", result.report.rows_applied);
    println!("faults injected : {}", result.report.faults_injected);
    println!(
        "retries         : {} (upload={} cdw={})",
        result.report.retries, result.report.upload_retries, result.report.cdw_retries
    );
    println!(
        "credits after   : {}/{}\n",
        v.credits().available(),
        v.credits().capacity()
    );
}

/// Scenario 2: random faults, same seed on a fresh node — identical counts.
fn same_seed_reproduces() {
    println!("== scenario 2: same seed, same faults ==");
    for run in 1..=2 {
        let v = Virtualizer::new(VirtualizerConfig {
            file_size_threshold: 256,
            fault_plan: Some(FaultPlan {
                store_put: FaultSpec::Random {
                    rate_ppm: 300_000,
                    limit: 0,
                },
                ..FaultPlan::seeded(0xD5)
            }),
            ..Default::default()
        });
        let server = v.listen_tcp("127.0.0.1:0").unwrap();
        let connector = Arc::new(TcpConnector::new(server.addr().to_string()));
        create_target(connector.as_ref());
        // Small chunks so the job stages several files — several put ops
        // for the random spec to dice over.
        let client = LegacyEtlClient::with_options(
            connector.clone(),
            ClientOptions {
                chunk_rows: 10,
                sessions: Some(1),
                ..Default::default()
            },
        );
        let result = client.run_import_data(&import_job(), &rows(120)).unwrap();
        let counts = v.fault_injector().unwrap().counts();
        println!(
            "run {run}: applied={} faults={} retries={} (upload={} cdw={} store_put faults={})",
            result.report.rows_applied,
            result.report.faults_injected,
            result.report.retries,
            result.report.upload_retries,
            result.report.cdw_retries,
            counts.store_put
        );
    }
    println!();
}

/// Scenario 3: a data-chunk frame is silently dropped; the client's read
/// timeout turns the would-be hang into a clean, reportable failure and
/// the node releases every credit.
fn dropped_frame_times_out_cleanly() {
    println!("== scenario 3: dropped frame -> clean timeout, no leak ==");
    let v = Virtualizer::new(VirtualizerConfig {
        fault_plan: Some(FaultPlan {
            transport: FaultSpec::AtOps(vec![1]),
            transport_failure: TransportFailure::Drop,
            ..FaultPlan::seeded(18)
        }),
        ..Default::default()
    });
    let hook = v.fault_injector().unwrap().transport_hook();
    let server = v.listen_tcp("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let chaos = Arc::new(FnConnector(move || {
        let transport = TcpTransport::connect(&addr)?;
        Ok(Box::new(ChaosTransport::new(transport, hook.clone())) as Box<dyn Transport>)
    }));
    create_target(chaos.as_ref());

    let client = LegacyEtlClient::with_options(
        chaos.clone(),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(1),
            read_timeout: Some(Duration::from_millis(300)),
            ..Default::default()
        },
    );
    match client.run_import_data(&import_job(), &rows(50)) {
        Err(ClientError::Timeout(after)) => println!("job failed cleanly: timeout after {after:?}"),
        other => println!("unexpected outcome: {other:?}"),
    }
    // The node survives: credits drain back and a plain session still works.
    std::thread::sleep(Duration::from_millis(200));
    println!(
        "credits after   : {}/{}",
        v.credits().available(),
        v.credits().capacity()
    );
    let mut session = Session::logon(chaos.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    let count = session.sql("select count(*) from PROD.ITEM").unwrap();
    println!("node still serves SQL: count(*) = {}", count.rows[0][0]);
    session.logoff();
}
