//! Multi-session concurrency suite (DESIGN §10): many real TCP clients
//! against one node exercising the shared job-worker runtime, admission
//! control, the session registry, and the drain/shutdown lifecycle.
//!
//! The invariants under test:
//!
//! - **Job isolation**: concurrent imports land exactly their own rows in
//!   their own tables; exports see consistent snapshots.
//! - **Bounded threads**: the worker pool is sized once at node startup —
//!   16 concurrent jobs start zero additional converter/writer threads.
//! - **Fair completion**: every client finishes; no job starves behind a
//!   neighbor on the shared queues.
//! - **Admission control**: past the configured limits the node answers
//!   retryable `SERVER_BUSY`, and the client's backoff rides it out.
//! - **Lifecycle**: `drain()` finishes in-flight jobs while rejecting new
//!   logons; `shutdown()` aborts sessions and joins the accept loop.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use etlv_cdw::{Cdw, CdwConfig};
use etlv_cloudstore::{MemStore, ObjectStore};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{
    ClientError, ClientOptions, LegacyEtlClient, RetryPolicy, Session, TcpConnector,
};
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::message::{BeginLoad, EndLoad, Message, SessionRole};
mod common;

fn options() -> ClientOptions {
    ClientOptions {
        chunk_rows: 50,
        sessions: Some(1),
        read_timeout: Some(Duration::from_secs(20)),
        ..Default::default()
    }
}
use common::{export_job, labeled_kv_rows, simple_import_job, tcp_connector, wait_idle};

/// 16 real TCP clients at once — 10 imports into distinct tables, 3
/// exports, 3 SQL sessions — multiplexed over ONE fixed worker pool.
#[test]
fn sixteen_concurrent_tcp_clients_share_one_worker_pool() {
    const IMPORTS: usize = 10;
    const EXPORTS: usize = 3;
    const SQL: usize = 3;
    const ROWS: usize = 200;

    let v = Virtualizer::new(VirtualizerConfig::default());
    for i in 0..IMPORTS {
        v.cdw()
            .execute(&format!("CREATE TABLE T{i} (A VARCHAR(8), B VARCHAR(32))"))
            .unwrap();
    }
    v.cdw()
        .execute("CREATE TABLE SRC (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    for i in 0..50 {
        v.cdw()
            .execute(&format!("INSERT INTO SRC VALUES ('s{i:03}', 'src-{i:03}')"))
            .unwrap();
    }

    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    // The pool is sized once at startup; its threads are spawned during
    // node assembly but may not have been scheduled yet on a loaded box,
    // so wait for them before snapshotting the during-burst delta.
    let workers = v.obs().runtime.workers.value();
    assert!(workers > 0, "shared runtime must be running");
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.obs().runtime.threads_started.value() < workers {
        assert!(
            Instant::now() < deadline,
            "worker threads never came up: {} of {workers}",
            v.obs().runtime.threads_started.value()
        );
        std::thread::yield_now();
    }
    let threads_before = v.obs().runtime.threads_started.value();
    assert_eq!(threads_before, workers, "every worker thread started once");

    let mut handles = Vec::new();
    for i in 0..IMPORTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let client =
                LegacyEtlClient::with_options(Arc::new(TcpConnector::new(addr)), options());
            let result = client
                .run_import_data(
                    &simple_import_job(&format!("T{i}")),
                    &labeled_kv_rows(ROWS, i),
                )
                .unwrap();
            assert_eq!(result.report.rows_applied, ROWS as u64, "client {i}");
            assert_eq!(result.report.errors_et + result.report.errors_uv, 0);
        }));
    }
    for _ in 0..EXPORTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let client =
                LegacyEtlClient::with_options(Arc::new(TcpConnector::new(addr)), options());
            let result = client
                .run_export(&export_job("select A, B from SRC order by A"))
                .unwrap();
            assert_eq!(result.rows, 50);
        }));
    }
    for _ in 0..SQL {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let connector = TcpConnector::new(addr);
            let mut session =
                Session::logon(&connector, "ops", "pw", SessionRole::Control, 0).unwrap();
            for _ in 0..10 {
                let r = session.sql("SEL COUNT(*) FROM SRC").unwrap();
                assert_eq!(r.rows[0][0].display_text(), "50");
            }
            session.logoff();
        }));
    }

    // Fair completion: every one of the 16 clients finishes.
    for handle in handles {
        handle.join().expect("client thread panicked");
    }

    // Job isolation: each table holds exactly its own client's rows.
    for i in 0..IMPORTS {
        assert_eq!(v.cdw().table_len(&format!("T{i}")).unwrap(), ROWS);
        let r = v
            .cdw()
            .execute(&format!("SELECT B FROM T{i} WHERE A = 'k0007'"))
            .unwrap();
        assert_eq!(r.rows[0][0].display_text(), format!("client-{i}-row-0007"));
    }

    // Bounded threads: 16 concurrent jobs started ZERO new workers.
    assert_eq!(
        v.obs().runtime.threads_started.value(),
        threads_before,
        "the shared pool must not grow with job count"
    );

    // The node is idle and the books balance.
    wait_idle(&v);
    assert_eq!(v.credits().available(), v.credits().capacity());
    assert_eq!(v.memory().in_flight(), 0);
    let m = v.metrics();
    assert_eq!(m.jobs_completed, IMPORTS as u64);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(m.jobs_aborted, 0);
    assert_eq!(
        v.obs().gateway.sessions_opened.value(),
        v.obs().gateway.sessions_closed.value()
    );
    server.shutdown();
}

/// At `max_concurrent_jobs` the node answers retryable SERVER_BUSY; a
/// zero-budget client surfaces it, a default client backs off and wins
/// once the slot frees.
#[test]
fn job_admission_limit_bounces_then_recovers() {
    let config = VirtualizerConfig {
        max_concurrent_jobs: 1,
        ..Default::default()
    };
    let v = Virtualizer::new(config);
    v.cdw()
        .execute("CREATE TABLE T0 (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    v.cdw()
        .execute("CREATE TABLE HOLD (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    let connector = tcp_connector(&v);

    // Occupy the single job slot by hand.
    let hold = simple_import_job("HOLD");
    let mut control =
        Session::logon(connector.as_ref(), "u", "p", SessionRole::Control, 0).unwrap();
    let reply = control
        .request(Message::BeginLoad(BeginLoad {
            target_table: hold.target.clone(),
            error_table_et: hold.error_table_et.clone(),
            error_table_uv: hold.error_table_uv.clone(),
            layout: hold.layout.clone(),
            format: hold.format,
            sessions: 1,
            error_limit: 0,
            trace: None,
        }))
        .unwrap();
    assert!(matches!(reply, Message::BeginLoadOk { .. }));

    // No retry budget: the rejection surfaces as a busy server error.
    let impatient = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            busy_retry: RetryPolicy {
                budget: 0,
                ..Default::default()
            },
            ..options()
        },
    );
    let err = impatient
        .run_import_data(&simple_import_job("T0"), &labeled_kv_rows(20, 0))
        .unwrap_err();
    assert!(err.is_busy(), "expected SERVER_BUSY, got {err:?}");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrCode::SERVER_BUSY.0),
        other => panic!("expected a server error, got {other:?}"),
    }
    assert!(admission_rejections(&v) >= 1);

    // Default budget: the client keeps retrying while a helper thread
    // releases the held slot, and the import completes.
    let patient = LegacyEtlClient::with_options(connector.clone(), options());
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        let report = control
            .request(Message::EndLoad(EndLoad {
                dml: hold.dml.clone(),
            }))
            .unwrap();
        assert!(matches!(report, Message::LoadReport(_)));
        control.logoff();
    });
    let result = patient
        .run_import_data(&simple_import_job("T0"), &labeled_kv_rows(20, 0))
        .unwrap();
    assert_eq!(result.report.rows_applied, 20);
    releaser.join().unwrap();
    assert_eq!(v.cdw().table_len("T0").unwrap(), 20);
    wait_idle(&v);
}

/// Admission is one step, not check-then-insert: four `BeginLoad`s
/// released at once against a one-job node, with job setup slowed by a
/// 20 ms statement latency, admit exactly one job and bounce three.
#[test]
fn concurrent_begin_loads_respect_the_job_limit() {
    const SESSIONS: usize = 4;
    let store: Arc<dyn ObjectStore> = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(
        CdwConfig {
            statement_latency: Duration::from_millis(20),
            ..Default::default()
        },
        Some(Arc::clone(&store)),
    );
    let config = VirtualizerConfig {
        max_concurrent_jobs: 1,
        ..Default::default()
    };
    let v = Virtualizer::with_backends(config, cdw, store);
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();
    let rejections_before = admission_rejections(&v);

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let (addr, barrier) = (addr.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let connector = TcpConnector::new(addr);
                let mut session =
                    Session::logon(&connector, &format!("u{i}"), "p", SessionRole::Control, 0)
                        .unwrap();
                session.set_read_timeout(Some(Duration::from_secs(20)));
                let job = simple_import_job(&format!("T{i}"));
                barrier.wait();
                let reply = session.request(Message::BeginLoad(BeginLoad {
                    target_table: job.target.clone(),
                    error_table_et: job.error_table_et.clone(),
                    error_table_uv: job.error_table_uv.clone(),
                    layout: job.layout.clone(),
                    format: job.format,
                    sessions: 1,
                    error_limit: 0,
                    trace: None,
                }));
                // Keep the session (and so its job) open until every
                // reply is in.
                (reply, session)
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let admitted = outcomes
        .iter()
        .filter(|(r, _)| matches!(r, Ok(Message::BeginLoadOk { .. })))
        .count();
    let busy = outcomes
        .iter()
        .filter(|(r, _)| {
            matches!(r, Err(ClientError::Server { code, .. }) if *code == ErrCode::SERVER_BUSY.0)
        })
        .count();
    assert_eq!(
        (admitted, busy),
        (1, SESSIONS - 1),
        "one slot, four requests: {:?}",
        outcomes.iter().map(|(r, _)| r).collect::<Vec<_>>()
    );
    assert_eq!(
        admission_rejections(&v) - rejections_before,
        (SESSIONS - 1) as u64
    );
    for (_, session) in outcomes {
        session.logoff();
    }
    wait_idle(&v);
    server.shutdown();
}

/// The session registry refuses logons past `max_sessions` with
/// SERVER_BUSY and admits again once a session closes.
#[test]
fn session_limit_rejects_logon_until_a_slot_frees() {
    let config = VirtualizerConfig {
        max_sessions: 2,
        ..Default::default()
    };
    let v = Virtualizer::new(config);
    let connector = tcp_connector(&v);

    let s1 = Session::logon(connector.as_ref(), "a", "p", SessionRole::Control, 0).unwrap();
    let s2 = Session::logon(connector.as_ref(), "b", "p", SessionRole::Control, 0).unwrap();
    assert_eq!(v.active_sessions(), 2);

    let err = match Session::logon(connector.as_ref(), "c", "p", SessionRole::Control, 0) {
        Err(e) => e,
        Ok(_) => panic!("third logon must be rejected"),
    };
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrCode::SERVER_BUSY.0),
        other => panic!("expected SERVER_BUSY, got {other:?}"),
    }

    s2.logoff();
    let deadline = Instant::now() + Duration::from_secs(5);
    while v.active_sessions() > 1 {
        assert!(Instant::now() < deadline, "logoff not observed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let s3 = Session::logon(connector.as_ref(), "c", "p", SessionRole::Control, 0).unwrap();
    s3.logoff();
    s1.logoff();
    wait_idle(&v);
    assert_eq!(
        v.obs().gateway.sessions_opened.value(),
        v.obs().gateway.sessions_closed.value()
    );
}

/// Graceful drain: in-flight jobs run to completion, new logons bounce
/// with SHUTTING_DOWN, and `drain()` reports success.
#[test]
fn drain_finishes_inflight_jobs_and_rejects_new_logons() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE T0 (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector = TcpConnector::new(server.addr().to_string());

    // A job mid-flight: load begun, nothing applied yet.
    let job = simple_import_job("T0");
    let mut control = Session::logon(&connector, "u", "p", SessionRole::Control, 0).unwrap();
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
    assert!(matches!(reply, Message::BeginLoadOk { .. }));

    v.begin_drain();

    // New logons are refused while the node drains (the accept loop is
    // still up until `drain()` is called, so the rejection is in-band).
    let err = match Session::logon(&connector, "x", "p", SessionRole::Control, 0) {
        Err(e) => e,
        Ok(_) => panic!("logon during drain must be rejected"),
    };
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrCode::SHUTTING_DOWN.0),
        other => panic!("expected SHUTTING_DOWN, got {other:?}"),
    }
    // ... and so are new jobs on existing sessions.
    assert!(v.draining());

    // The in-flight job still completes normally.
    let finisher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let report = control
            .request(Message::EndLoad(EndLoad {
                dml: job.dml.clone(),
            }))
            .unwrap();
        let Message::LoadReport(report) = report else {
            panic!("expected LoadReport, got {report:?}");
        };
        assert_eq!(report.rows_received, 0);
        control.logoff();
    });
    assert!(
        server.drain(),
        "drain must finish the in-flight job in time"
    );
    finisher.join().unwrap();
    assert_eq!(v.active_jobs(), 0);
    assert_eq!(v.metrics().jobs_aborted, 0, "drained, not aborted");
}

/// Hard shutdown: open sessions are stopped, their jobs aborted, the
/// accept loop joins, and the port stops answering.
#[test]
fn shutdown_aborts_open_sessions_and_joins_accept_loop() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE T0 (A VARCHAR(8), B VARCHAR(32))")
        .unwrap();
    let server = v.listen_tcp("127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let connector = TcpConnector::new(addr.to_string());

    let job = simple_import_job("T0");
    let mut control = Session::logon(&connector, "u", "p", SessionRole::Control, 0).unwrap();
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
    assert!(matches!(reply, Message::BeginLoadOk { .. }));
    assert_eq!(v.active_jobs(), 1);

    // shutdown() blocks until the accept loop and session threads join.
    server.shutdown();

    assert_eq!(v.active_jobs(), 0, "open job aborted by shutdown");
    assert_eq!(v.active_sessions(), 0);
    assert_eq!(v.metrics().jobs_aborted, 1);
    assert_eq!(v.credits().available(), v.credits().capacity());
    assert_eq!(v.memory().in_flight(), 0);
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );
}

/// The node's admission rejections: the sum over its tenants.
fn admission_rejections(v: &Virtualizer) -> u64 {
    let tenants = v.obs().registry.tenant_handles();
    tenants.iter().map(|t| t.admission_rejections.value()).sum()
}
