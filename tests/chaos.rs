//! Seeded chaos suite: end-to-end fault-injection scenarios across the
//! acquisition pipeline. Every scenario drives a real client against a
//! virtualizer armed with a deterministic [`FaultPlan`] and asserts one of
//! two outcomes — the job completes with correct table contents, or it
//! fails cleanly with a reportable error — and that either way the node is
//! quiescent afterwards: the credit pool is back to capacity and no
//! in-flight memory is leaked. Nothing here ever hangs: severed links
//! surface through the client's read timeout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{MemStore, ObjectStore};
use etlv_core::{
    FaultPlan, FaultSpec, StorePutFailure, TransportFailure, Virtualizer, VirtualizerConfig,
};
use etlv_legacy_client::{ClientError, ClientOptions, LegacyEtlClient, Session, TcpConnector};
use etlv_protocol::message::{BeginLoad, DataChunk, Format, Message, SessionRole, Topic};
mod common;
use common::{
    assert_quiescent, chaos_tcp_connector, counter, create_simple_target, export_job, kv_rows,
    simple_import_job, tcp_connector, wait_idle,
};

fn config_with(plan: FaultPlan) -> VirtualizerConfig {
    VirtualizerConfig {
        fault_plan: Some(plan),
        ..Default::default()
    }
}

#[test]
fn store_put_flake_is_retried_to_success() {
    let mut plan = FaultPlan::seeded(11);
    plan.store_put = FaultSpec::FirstN(2);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let result = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();

    assert_eq!(result.report.rows_applied, 40);
    assert_eq!(result.report.retries, 2, "both flaky puts were retried");
    assert_eq!(result.report.faults_injected, 2);
    assert_eq!(v.fault_counts().unwrap().store_put, 2);
    assert_eq!(v.cdw().table_len("T").unwrap(), 40);
    assert_quiescent(&v);
}

/// A load reports the faults injected during it, not the node's
/// lifetime total: the plan's two store-put faults land in the first of
/// two serial loads on one node, so the second reports none.
#[test]
fn each_load_reports_its_own_faults() {
    let mut plan = FaultPlan::seeded(11);
    plan.store_put = FaultSpec::FirstN(2);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let first = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();
    assert_eq!(first.report.faults_injected, 2);
    assert_eq!(first.report.retries, 2);
    let second = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();
    assert_eq!(second.report.retries, 0, "the plan is spent");
    assert_eq!(
        second.report.faults_injected, 0,
        "the second job's own faults"
    );
    assert_eq!(v.last_job_report().unwrap().faults_injected, 0);
    assert_eq!(v.fault_counts().unwrap().total(), 2, "the node's total");
    assert_quiescent(&v);
}

#[test]
fn store_put_partial_write_is_absorbed_by_retry() {
    let mut plan = FaultPlan::seeded(12);
    plan.store_put = FaultSpec::FirstN(1);
    plan.store_put_failure = StorePutFailure::PartialWrite;
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let result = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();

    // The retried put overwrites the torn object whole: every row lands
    // exactly once despite half an object having hit the store.
    assert_eq!(result.report.rows_applied, 40);
    assert!(result.report.retries >= 1);
    assert_eq!(v.cdw().table_len("T").unwrap(), 40);
    let r = v
        .cdw()
        .execute("SELECT B FROM T WHERE A = 'k0039'")
        .unwrap();
    assert_eq!(r.rows[0][0].display_text(), "value-0039");
    assert_quiescent(&v);
}

#[test]
fn persistent_store_failure_fails_job_cleanly() {
    let mut plan = FaultPlan::seeded(13);
    plan.store_put = FaultSpec::FirstN(1000); // never recovers
    let mut config = config_with(plan);
    config.retry_budget = 2; // keep the exhaustion quick
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap_err();
    match err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("expected a server-reported job failure, got {other:?}"),
    }

    // The failed job released everything and the node still serves.
    assert_quiescent(&v);
    let mut session =
        Session::logon(connector.as_ref(), "ops", "pw", SessionRole::Control, 0).unwrap();
    assert!(session.sql("SEL COUNT(*) FROM T").is_ok());
    session.logoff();
}

#[test]
fn store_get_flake_during_copy_is_retried() {
    let mut plan = FaultPlan::seeded(14);
    plan.store_get = FaultSpec::FirstN(1);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let result = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();

    // COPY validates before it mutates, so the re-issued statement after
    // the failed staged-file read cannot duplicate rows.
    assert_eq!(result.report.rows_applied, 40);
    assert!(result.report.retries >= 1, "COPY was retried");
    assert_eq!(v.fault_counts().unwrap().store_get, 1);
    assert_eq!(v.cdw().table_len("T").unwrap(), 40);
    assert_quiescent(&v);
}

#[test]
fn cdw_transient_faults_are_retried_to_success() {
    // Ops 0..=5 are the staging/error-table DDL at BeginLoad; op 6 is the
    // COPY. Fault the COPY twice: both retries must land in the job report.
    let mut plan = FaultPlan::seeded(15);
    plan.cdw_exec = FaultSpec::AtOps(vec![6, 7]);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);

    // Setup DDL runs with the hook disarmed so the scenario's op indices
    // start at the load itself.
    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let client = LegacyEtlClient::new(connector.clone());
    let result = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();

    assert_eq!(result.report.rows_applied, 40);
    assert_eq!(result.report.retries, 2);
    assert_eq!(v.fault_counts().unwrap().cdw_exec, 2);
    assert_eq!(v.cdw().table_len("T").unwrap(), 40);
    assert_quiescent(&v);
}

#[test]
fn cdw_transient_budget_exhaustion_fails_cleanly() {
    // The COPY faults on every attempt (ops 6..) — the retry budget runs
    // out and the job must fail with a server error, not hang, and the
    // control session must survive to see the reply.
    let mut plan = FaultPlan::seeded(16);
    plan.cdw_exec = FaultSpec::AtOps((6..36).collect());
    let mut config = config_with(plan);
    config.retry_budget = 3;
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);

    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let client = LegacyEtlClient::new(connector.clone());
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap_err();
    match err {
        ClientError::Server { message, .. } => assert!(message.contains("COPY"), "{message}"),
        other => panic!("expected a server-reported job failure, got {other:?}"),
    }
    // The COPY's initial attempt and its three budget retries faulted
    // (ops 6..=9), and so did the failed job's teardown DROP of the
    // staging table, which retries like every other statement (ops
    // 10..=13).
    assert_eq!(v.fault_counts().unwrap().cdw_exec, 8);
    assert_quiescent(&v);
}

/// A teardown DROP that uses up its retry budget leaves its table an
/// orphan on the node, not a table nobody knows of: the next load's
/// teardown drops it. The plan is `cdw_transient_budget_exhaustion_fails_cleanly`'s:
/// the COPY and then all four attempts of the staging table's DROP fault.
#[test]
fn an_orphaned_staging_table_is_dropped_by_the_next_load() {
    let mut plan = FaultPlan::seeded(16);
    plan.cdw_exec = FaultSpec::AtOps((6..36).collect());
    let mut config = config_with(plan);
    config.retry_budget = 3;
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);

    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let client = LegacyEtlClient::new(connector.clone());
    let job = simple_import_job("T");
    assert!(client.run_import_data(&job, &kv_rows(40)).is_err());
    assert!(v.cdw().table_exists("ETLV_STG_1"), "the DROP was to fail");
    assert_eq!(orphaned_tables(&v), 1);

    v.cdw().set_transient_fault(None);
    let report = client.run_import_data(&job, &kv_rows(40)).unwrap().report;
    assert_eq!(report.rows_applied, 40);
    assert!(!v.cdw().table_exists("ETLV_STG_1"), "orphan left behind");
    assert!(!v.cdw().table_exists("ETLV_STG_2"));
    assert_eq!(orphaned_tables(&v), 0);
    assert_quiescent(&v);
}

/// An error table whose DROP fails past the budget is not kept for a
/// retry: its name is the client's, and the rerun of the same script
/// creates it again. The first load is aborted — its control session
/// drops the link after `BeginLoad` — and every attempt at its ET's
/// DROP faults (ops 7..=10; op 6 is the staging table's DROP). The
/// rerun completes with an error row, and its ET keeps it: no retry of
/// the first job's DROP takes the second job's table.
#[test]
fn a_rerun_keeps_error_tables_an_abort_failed_to_drop() {
    let mut plan = FaultPlan::seeded(17);
    plan.cdw_exec = FaultSpec::AtOps((7..11).collect());
    let mut config = config_with(plan);
    config.retry_budget = 3;
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);

    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let job = simple_import_job("T");
    let mut control =
        Session::logon(connector.as_ref(), "u", "p", SessionRole::Control, 0).unwrap();
    let reply = control
        .request(Message::BeginLoad(BeginLoad {
            target_table: job.target.clone(),
            error_table_et: job.error_table_et.clone(),
            error_table_uv: job.error_table_uv.clone(),
            layout: job.layout.clone(),
            format: job.format,
            sessions: 1,
            error_limit: 0,
            trace: None,
        }))
        .unwrap();
    assert!(
        matches!(reply, Message::BeginLoadOk { load_token: 1 }),
        "{reply:?}"
    );
    drop(control);
    wait_idle(&v);
    assert_eq!(
        v.fault_counts().unwrap().cdw_exec,
        4,
        "ET's DROP was to fail"
    );
    assert!(v.cdw().table_exists("T_ET"));
    assert!(!v.cdw().table_exists("ETLV_STG_1") && !v.cdw().table_exists("T_UV"));
    assert_eq!(orphaned_tables(&v), 0);

    let mut rows = kv_rows(10);
    rows.extend_from_slice(b"k|v|extra\n");
    let client = LegacyEtlClient::new(connector.clone());
    let report = client.run_import_data(&job, &rows).unwrap().report;
    assert_eq!((report.rows_applied, report.errors_et), (10, 1));
    assert_eq!(
        v.cdw().table_len("T_ET").unwrap(),
        1,
        "the rerun's error row"
    );
    assert!(v.cdw().table_exists("T_UV"));
    assert_quiescent(&v);
}

/// The node's `gateway.orphaned_tables` gauge, read off the Stats topic.
fn orphaned_tables(v: &Virtualizer) -> u64 {
    let stats = v.introspect(Topic::Stats, Format::Json).body;
    counter(&stats, "gateway.orphaned_tables")
}

/// A failed job's teardown rides out a transient fault: the staging
/// table's DROP is retried, not left to chance. Every staged put fails,
/// so the job fails at `EndLoad`; op 6 — the first statement after the
/// six setup statements — is that DROP.
#[test]
fn a_faulted_teardown_drop_is_retried() {
    let mut plan = FaultPlan::seeded(19);
    plan.store_put = FaultSpec::FirstN(1000);
    plan.cdw_exec = FaultSpec::AtOps(vec![6]);
    let mut config = config_with(plan);
    config.retry_budget = 2;
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);

    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let client = LegacyEtlClient::new(connector.clone());
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, 8999),
        other => panic!("expected a server-reported job failure, got {other:?}"),
    }
    assert_eq!(v.fault_counts().unwrap().cdw_exec, 1);
    assert!(!v.cdw().table_exists("ETLV_STG_1"), "staging table left");
    // A failed load keeps its error tables for the client, as before.
    assert!(v.cdw().table_exists("T_ET") && v.cdw().table_exists("T_UV"));
    assert_eq!(v.active_jobs(), 0);
    assert_quiescent(&v);
}

#[test]
fn cdw_transient_fault_on_export_select_is_retried() {
    // The export's SELECT is the only statement an export runs: fault it
    // once, and the export must still return every row.
    let mut plan = FaultPlan::seeded(18);
    plan.cdw_exec = FaultSpec::AtOps(vec![0]);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);

    v.cdw().set_transient_fault(None);
    create_simple_target(connector.as_ref(), "T");
    let client = LegacyEtlClient::new(connector.clone());
    client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let result = client
        .run_export(&export_job("select A, B from T order by A"))
        .unwrap();
    assert_eq!(result.rows, 40);
    assert_eq!(result.data, kv_rows(40));
    assert_eq!(v.fault_counts().unwrap().cdw_exec, 1);
    assert_quiescent(&v);
}

#[test]
fn converter_worker_fault_fails_job_cleanly() {
    let mut plan = FaultPlan::seeded(17);
    plan.convert = FaultSpec::AtOps(vec![0]);
    let v = Virtualizer::new(config_with(plan));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap_err();
    match err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("injected fault"), "{message}")
        }
        other => panic!("expected a server-reported job failure, got {other:?}"),
    }

    // The dead worker's chunk released its credit and memory on the way
    // down — the RAII guards, not the happy path, own the release.
    assert_quiescent(&v);
    assert_eq!(v.fault_counts().unwrap().convert, 1);
}

#[test]
fn transport_drop_surfaces_as_timeout_not_hang() {
    // The second data chunk vanishes in flight. Without a read timeout the
    // legacy client would wait for its ack forever; with one, the severed
    // acquisition surfaces as a timeout error.
    let mut plan = FaultPlan::seeded(18);
    plan.transport = FaultSpec::AtOps(vec![1]);
    plan.transport_failure = TransportFailure::Drop;
    let v = Virtualizer::new(config_with(plan));
    let connector = chaos_tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(1),
            read_timeout: Some(Duration::from_millis(300)),
            ..Default::default()
        },
    );
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(30))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Timeout(_)),
        "expected a read timeout, got {err:?}"
    );
    assert_eq!(v.fault_counts().unwrap().transport, 1);
    // The server saw EOF when the client gave up; the one delivered chunk
    // drains and every credit comes home.
    assert_quiescent(&v);
}

#[test]
fn transport_truncate_mid_chunk_surfaces_as_error() {
    // Half the second chunk's bytes arrive, then the link is cut: the
    // client's next read fails fast, and the server's decoder discards the
    // torn prefix at EOF instead of applying a partial chunk.
    let mut plan = FaultPlan::seeded(19);
    plan.transport = FaultSpec::AtOps(vec![1]);
    plan.transport_failure = TransportFailure::Truncate;
    let v = Virtualizer::new(config_with(plan));
    let connector = chaos_tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(1),
            read_timeout: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(30))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Timeout(_)),
        "expected the cut link to surface, got {err:?}"
    );
    assert_eq!(v.fault_counts().unwrap().transport, 1);
    assert_quiescent(&v);
}

#[test]
fn transport_sever_fails_fast() {
    let mut plan = FaultPlan::seeded(20);
    plan.transport = FaultSpec::AtOps(vec![0]);
    plan.transport_failure = TransportFailure::Sever;
    let v = Virtualizer::new(config_with(plan));
    let connector = chaos_tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(1),
            read_timeout: Some(Duration::from_secs(2)),
            ..Default::default()
        },
    );
    let err = client
        .run_import_data(&simple_import_job("T"), &kv_rows(30))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_)),
        "a severed send fails immediately, got {err:?}"
    );
    assert_quiescent(&v);
}

#[test]
fn random_faults_with_same_seed_reproduce_exactly() {
    // The determinism contract: the same seeded plan over the same input
    // yields the same injected-fault sequence and the same report
    // counters, run after run — that is what makes a chaos failure
    // debuggable.
    let run = || {
        let mut plan = FaultPlan::seeded(0xD5);
        plan.store_put = FaultSpec::Random {
            rate_ppm: 300_000,
            limit: 0,
        };
        let mut config = config_with(plan);
        config.file_size_threshold = 256; // several staged files per job
        let v = Virtualizer::new(config);
        let connector = tcp_connector(&v);
        create_simple_target(connector.as_ref(), "T");
        let client = LegacyEtlClient::with_options(
            connector.clone(),
            ClientOptions {
                chunk_rows: 10,
                sessions: Some(1),
                read_timeout: None,
                ..Default::default()
            },
        );
        let result = client
            .run_import_data(&simple_import_job("T"), &kv_rows(120))
            .unwrap();
        assert_quiescent(&v);
        assert_eq!(v.cdw().table_len("T").unwrap(), 120);
        (
            result.report.retries,
            result.report.faults_injected,
            v.fault_counts().unwrap(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same faults, same counters");
    assert!(first.1 > 0, "the scenario actually injected faults");
    assert_eq!(first.0, first.1, "every injected put fault cost one retry");
}

#[test]
fn fault_free_plan_changes_nothing() {
    // An armed injector whose specs are all Never must be a no-op: no
    // faults, no retries, same outcome as an unfaulted run.
    let v = Virtualizer::new(config_with(FaultPlan::seeded(99)));
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");

    let client = LegacyEtlClient::new(connector.clone());
    let result = client
        .run_import_data(&simple_import_job("T"), &kv_rows(40))
        .unwrap();
    assert_eq!(result.report.rows_applied, 40);
    assert_eq!(result.report.retries, 0);
    assert_eq!(result.report.faults_injected, 0);
    assert_eq!(v.fault_counts().unwrap().total(), 0);
    assert_quiescent(&v);
}

/// The PR-5 orphaned-job regression: a legacy client that dies mid-load
/// (process crash, network partition — here: both TCP links dropped with
/// the job still open) must leave NOTHING behind on the node. The session
/// layer aborts the orphaned job on disconnect: queued chunks are
/// discarded (credits and memory come home), the staging table, error
/// tables, and staged objects are deleted, and the loss is recorded as an
/// aborted job report.
#[test]
fn client_disconnect_mid_load_leaves_no_residue() {
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(CdwConfig::default(), Some(Arc::clone(&store)));
    let config = VirtualizerConfig::default();
    let bucket = config.staging_bucket.clone();
    let v = Virtualizer::with_backends(config, cdw, Arc::clone(&store));
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector = TcpConnector::new(server.addr().to_string());
    create_simple_target(&connector, "T");

    // Open the load by hand (the real client would never stop half-way).
    let job = simple_import_job("T");
    let mut control = Session::logon(&connector, "u", "p", SessionRole::Control, 0).unwrap();
    let load_token = match control
        .request(Message::BeginLoad(BeginLoad {
            target_table: job.target.clone(),
            error_table_et: job.error_table_et.clone(),
            error_table_uv: job.error_table_uv.clone(),
            layout: job.layout.clone(),
            format: job.format,
            sessions: 1,
            error_limit: 0,
            trace: None,
        }))
        .unwrap()
    {
        Message::BeginLoadOk { load_token } => load_token,
        other => panic!("expected BeginLoadOk, got {other:?}"),
    };
    let mut data = Session::logon(&connector, "u", "p", SessionRole::Data, load_token).unwrap();
    let payload = kv_rows(50);
    let reply = data
        .request(Message::DataChunk(DataChunk {
            chunk_seq: 1,
            base_seq: 1,
            record_count: 50,
            data: payload.into(),
        }))
        .unwrap();
    assert!(matches!(reply, Message::Ack { chunk_seq: 1 }));
    assert_eq!(v.active_jobs(), 1);

    // Sever both links without EndLoad or Logoff: the client is gone.
    drop(data);
    drop(control);

    // The server notices the dead control session and aborts its job.
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.active_jobs() > 0 || v.active_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "orphaned job not reaped: {} jobs, {} sessions still active",
            v.active_jobs(),
            v.active_sessions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Zero residue: credits home, no in-flight memory, no staged objects,
    // no staging or error tables; the target table is untouched.
    assert_quiescent(&v);
    assert_eq!(store.list(&bucket, "").unwrap(), Vec::<String>::new());
    assert!(!v.cdw().table_exists(&format!("ETLV_STG_{load_token}")));
    assert!(!v.cdw().table_exists("T_ET"));
    assert!(!v.cdw().table_exists("T_UV"));
    assert_eq!(v.cdw().table_len("T").unwrap(), 0);

    // The loss is visible: an aborted report and the node counter.
    let report = v.last_job_report().expect("abort recorded a report");
    assert!(report.aborted, "report must be marked aborted");
    assert_eq!(report.rows_received, 50);
    assert_eq!(v.metrics().jobs_aborted, 1);
    server.shutdown();
}

/// A `BeginLoad` whose setup fails part-way leaves nothing behind. The
/// UV table name does not parse, so setup stops after creating the
/// staging table and ET; both are dropped again before the error reply,
/// the job slot comes back, and the next valid load is admitted.
#[test]
fn a_failed_begin_load_leaves_no_residue() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    create_simple_target(connector.as_ref(), "T");
    let job = simple_import_job("T");
    let begin = |error_table_uv: &str| {
        Message::BeginLoad(BeginLoad {
            target_table: job.target.clone(),
            error_table_et: job.error_table_et.clone(),
            error_table_uv: error_table_uv.into(),
            layout: job.layout.clone(),
            format: job.format,
            sessions: 1,
            error_limit: 0,
            trace: None,
        })
    };

    let mut control =
        Session::logon(connector.as_ref(), "u", "p", SessionRole::Control, 0).unwrap();
    match control.request(begin("T_UV (")) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, 3807),
        other => panic!("expected a setup failure, got {other:?}"),
    }
    drop(control);
    assert!(!v.cdw().table_exists("ETLV_STG_1"), "staging table left");
    assert!(!v.cdw().table_exists("T_ET"), "ET left");
    assert_eq!(v.active_jobs(), 0);

    let mut control =
        Session::logon(connector.as_ref(), "u", "p", SessionRole::Control, 0).unwrap();
    let reply = control.request(begin(&job.error_table_uv)).unwrap();
    assert!(
        matches!(reply, Message::BeginLoadOk { .. }),
        "the next load is admitted: {reply:?}"
    );
    control.logoff();
}

/// The chaos matrix meets the workload harness: a bursty multi-tenant
/// trace from `etlv-workloadgen` replays through the real client while
/// the node randomly flakes object-store puts and CDW statements
/// mid-replay. Transient faults must stay invisible to the workload —
/// every job completes, error-table attribution still equals the mix the
/// generator planned row for row, every injected put fault surfaces as a
/// server-side retry in some job's report, and the node drains clean.
#[test]
fn workload_trace_replays_clean_under_fault_matrix() {
    use etlv_workloadgen::{synthesize, ReplayOptions, Scenario};

    let mut scenario = Scenario::bursty_zipf(0x5EED_CA05);
    scenario.name = "chaos_matrix".into();
    scenario.jobs = 14;
    scenario.tenants = 4;
    scenario.horizon_ms = 300;
    scenario.rows_base = 30;
    scenario.rows_hot = 80;
    scenario.date_error_ppm = 20_000;
    scenario.dup_key_ppm = 10_000;
    let trace = synthesize(&scenario);
    let truth = trace.ground_truth();
    assert!(
        truth.bad_dates > 0 && truth.dup_keys > 0,
        "scenario must exercise both error tables (got ET {} / UV {})",
        truth.bad_dates,
        truth.dup_keys
    );

    let mut plan = FaultPlan::seeded(0xCA05);
    plan.store_put = FaultSpec::Random {
        rate_ppm: 150_000,
        limit: 8,
    };
    plan.cdw_exec = FaultSpec::Random {
        rate_ppm: 40_000,
        limit: 4,
    };
    let v = Virtualizer::new(config_with(plan));
    let connector: Arc<dyn etlv_legacy_client::Connect> = tcp_connector(&v);

    // Create the trace's tables with the CDW hook disarmed so setup DDL
    // cannot fault, then arm it for the replay proper (the same shape the
    // single-job scenarios above use).
    v.cdw().set_transient_fault(None);
    etlv_workloadgen::replay::prepare_tables(&connector, &trace).expect("prepare tables");
    v.cdw()
        .set_transient_fault(Some(v.fault_injector().unwrap().cdw_hook()));

    let options = ReplayOptions {
        time_scale: 0.5,
        read_timeout: Some(Duration::from_secs(30)),
        prepare_tables: false,
        ..ReplayOptions::default()
    };
    let report = etlv_workloadgen::replay(&connector, &trace, &options).expect("replay");
    let counts = report.counts();

    // Every job reached a terminal state, and the retry machinery absorbed
    // every transient fault: nothing was rejected or failed.
    assert_eq!(counts.jobs, trace.events.len() as u64);
    assert_eq!(
        counts.completed, counts.jobs,
        "transient faults must be absorbed by retries ({} rejected, {} failed)",
        counts.rejected, counts.failed
    );

    // Error attribution is untouched by the chaos: the node's ET/UV totals
    // equal the generator's planned mix exactly.
    assert_eq!(counts.errors_et, truth.bad_dates);
    assert_eq!(counts.errors_uv, truth.dup_keys);
    assert_eq!(
        counts.rows_applied,
        truth.rows - truth.bad_dates - truth.dup_keys
    );

    // The matrix actually fired, and every flaky put was paid for by a
    // server-side retry attributed to some job.
    let faults = v.fault_counts().unwrap();
    assert!(faults.store_put > 0, "store-put chaos never fired");
    let server_retries: u64 = report.outcomes.iter().map(|o| o.server_retries).sum();
    assert!(
        server_retries >= faults.store_put,
        "{} put faults but only {} retries reported",
        faults.store_put,
        server_retries
    );

    assert_quiescent(&v);
}
