//! Shared harness for the figure benches: stand up a virtualizer, create
//! the workload's target table, and run the import end-to-end through the
//! real legacy client, returning both the client-side result and the
//! node's phase-timed job report.

use std::sync::Arc;
use std::time::Duration;

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{MemStore, ObjectStore};
use etlv_core::report::JobReport;
use etlv_core::workload::Workload;
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, Connect, FnConnector, ImportResult, LegacyEtlClient};
use etlv_protocol::transport::{TcpTransport, Transport};
use etlv_script::{compile, parse_script, JobPlan};

/// Serve `v` on a loopback port through the reactor and return a
/// connector to it. The connector owns the server handle: dropping it
/// stops the server and joins its threads.
pub fn connector(v: &Virtualizer) -> Arc<dyn Connect> {
    let server = v.listen_tcp("127.0.0.1:0").expect("bind loopback");
    Arc::new(FnConnector(move || {
        Ok(Box::new(TcpTransport::connect(&server.addr().to_string())?) as Box<dyn Transport>)
    }))
}

/// Create a virtualizer whose CDW simulates `statement_latency` per round
/// trip (0 = in-process speed).
pub fn virtualizer_with_latency(
    config: VirtualizerConfig,
    statement_latency: Duration,
) -> Virtualizer {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(
        CdwConfig {
            native_unique: false,
            statement_latency,
            ..Default::default()
        },
        Some(Arc::clone(&store)),
    );
    Virtualizer::with_backends(config, cdw, store)
}

/// One full import run: fresh virtualizer, DDL, load, report.
pub fn run_import(
    config: VirtualizerConfig,
    statement_latency: Duration,
    workload: &Workload,
    options: ClientOptions,
) -> (ImportResult, JobReport) {
    let v = virtualizer_with_latency(config, statement_latency);
    run_import_on(&v, workload, options)
}

/// Import against an existing node (target table is (re)created first).
pub fn run_import_on(
    v: &Virtualizer,
    workload: &Workload,
    options: ClientOptions,
) -> (ImportResult, JobReport) {
    v.cdw()
        .execute(&format!("DROP TABLE IF EXISTS {}", workload.target))
        .unwrap();
    v.cdw()
        .execute(&etlv_core::xcompile::translate_sql(&workload.target_ddl).unwrap())
        .unwrap();
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        panic!("workload script is not an import job")
    };
    let client = LegacyEtlClient::with_options(connector(v), options);
    let result = client
        .run_import_data(&job, &workload.data)
        .expect("import job failed");
    let report = v.last_job_report().expect("job report recorded");
    (result, report)
}

/// Render seconds with 3 decimals for figure tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// MB/s for figure tables.
pub fn rate_mb_s(bytes: u64, d: Duration) -> f64 {
    if d.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / 1_000_000.0 / d.as_secs_f64()
}
