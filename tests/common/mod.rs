//! Shared harness for the integration suites: server spin-up, client
//! connectors, canned jobs, and quiescence checks.
//!
//! Each test binary compiles this module independently and uses a
//! different subset, hence the file-wide `dead_code` allowance.
#![allow(dead_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Connect, FnConnector, Session};
use etlv_protocol::message::SessionRole;
use etlv_protocol::transport::{ChaosTransport, TcpTransport, Transport};
use etlv_script::{compile, parse_script, ExportJob, ImportJob, JobPlan};

/// Serve `v` on a loopback port through the reactor — the path
/// production clients take — and return a connector to it. The connector
/// owns the [`ServerHandle`](etlv_core::server::ServerHandle): dropping
/// it stops the server and joins its threads.
pub fn tcp_connector(v: &Virtualizer) -> Arc<dyn Connect> {
    let server = v.listen_tcp("127.0.0.1:0").expect("bind loopback");
    Arc::new(FnConnector(move || {
        Ok(Box::new(TcpTransport::connect(&server.addr().to_string())?) as Box<dyn Transport>)
    }))
}

/// Like [`tcp_connector`], but the client end runs through a
/// [`ChaosTransport`] driven by the virtualizer's own fault injector —
/// the plan's `transport` spec decides which outgoing data-chunk frames
/// are dropped, truncated, or severed. Panics if the node's config
/// carries no fault plan.
pub fn chaos_tcp_connector(v: &Virtualizer) -> Arc<dyn Connect> {
    let hook = v
        .fault_injector()
        .expect("config must carry a fault plan")
        .transport_hook();
    let server = v.listen_tcp("127.0.0.1:0").expect("bind loopback");
    Arc::new(FnConnector(move || {
        let transport = TcpTransport::connect(&server.addr().to_string())?;
        Ok(Box::new(ChaosTransport::new(transport, hook.clone())) as Box<dyn Transport>)
    }))
}

/// OS threads of this process right now (`/proc/self/status`).
pub fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Two-column import script against `table` (error tables `{table}_ET` /
/// `{table}_UV`).
pub fn simple_import_script(table: &str) -> String {
    format!(
        ".logon h/u,p;\n\
         .layout L;\n\
         .field A varchar(8);\n\
         .field B varchar(32);\n\
         .begin import tables {table} errortables {table}_ET {table}_UV;\n\
         .dml label Go;\n\
         insert into {table} values (:A, :B);\n\
         .import infile f format vartext '|' layout L apply Go;\n\
         .end load\n"
    )
}

/// Compile [`simple_import_script`] into the client's job plan.
pub fn simple_import_job(table: &str) -> ImportJob {
    match compile(&parse_script(&simple_import_script(table)).unwrap()).unwrap() {
        JobPlan::Import(job) => job,
        _ => panic!("script is an import job"),
    }
}

/// Two-session export job around `select`.
pub fn export_job(select: &str) -> ExportJob {
    let src = format!(
        ".logon h/u,p;\n.begin export sessions 2;\n.export outfile out format vartext '|';\n{select};\n.end export;\n"
    );
    match compile(&parse_script(&src).unwrap()).unwrap() {
        JobPlan::Export(job) => job,
        _ => panic!("script is an export job"),
    }
}

/// `n` vartext rows for the simple two-column table.
pub fn kv_rows(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| format!("k{i:04}|value-{i:04}\n").into_bytes())
        .collect()
}

/// Like [`kv_rows`], tagged per client so concurrent writers' rows are
/// distinguishable.
pub fn labeled_kv_rows(n: usize, tag: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| format!("k{i:04}|client-{tag}-row-{i:04}\n").into_bytes())
        .collect()
}

/// Create the simple two-column target table over the wire.
pub fn create_simple_target(connector: &dyn Connect, table: &str) {
    let mut session = Session::logon(connector, "ops", "pw", SessionRole::Control, 0).unwrap();
    session
        .sql(&format!(
            "CREATE TABLE {table} (A VARCHAR(8), B VARCHAR(32))"
        ))
        .unwrap();
    session.logoff();
}

/// The three-column `PROD.CUSTOMER` import the observability and trace
/// suites drive (multi-chunk, date-cast DML).
pub const CUSTOMER_IMPORT_SCRIPT: &str = r#"
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

/// Compile [`CUSTOMER_IMPORT_SCRIPT`] into the client's job plan.
pub fn customer_import_job() -> ImportJob {
    match compile(&parse_script(CUSTOMER_IMPORT_SCRIPT).unwrap()).unwrap() {
        JobPlan::Import(job) => job,
        _ => panic!("expected import"),
    }
}

/// `n` clean rows for `PROD.CUSTOMER`.
pub fn customer_rows(n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|i| format!("i{i:03}|name{i}|2012-01-01\n").into_bytes())
        .collect()
}

/// A node with `PROD.CUSTOMER` already created in its CDW.
pub fn customer_virtualizer(config: VirtualizerConfig) -> Virtualizer {
    let v = Virtualizer::new(config);
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
        .unwrap();
    v
}

/// The node must end every scenario with all credits home and zero bytes
/// in flight; server-side drains finish asynchronously after a client
/// error, so poll briefly before declaring a leak.
pub fn assert_quiescent(v: &Virtualizer) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if v.credits().available() == v.credits().capacity() && v.memory().in_flight() == 0 {
            return;
        }
        if Instant::now() > deadline {
            panic!(
                "node not quiescent: {}/{} credits available, {} bytes in flight",
                v.credits().available(),
                v.credits().capacity(),
                v.memory().in_flight()
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait (bounded) for the node's session registry and job table to empty.
pub fn wait_idle(v: &Virtualizer) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.active_jobs() > 0 || v.active_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "node did not quiesce: {} jobs, {} sessions",
            v.active_jobs(),
            v.active_sessions()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pull a counter out of a JSON stats snapshot rendered as
/// `"name": value` pairs (the workspace carries no JSON parser).
pub fn counter(snapshot: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = snapshot
        .find(&key)
        .unwrap_or_else(|| panic!("{name} not in snapshot"));
    snapshot[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}
