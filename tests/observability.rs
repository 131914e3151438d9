//! The observability surface, end to end: concurrent metric
//! aggregation, registry wiring through real import/export jobs, the
//! `Stats` wire round trip, and the top-level shape of the Stats and
//! Health documents.

use std::sync::Arc;

use etlv_core::obs::SeriesValue;
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient};
use etlv_protocol::message::{Format, SessionRole, Topic};
use etlv_script::{compile, parse_script, JobPlan};
mod common;
use common::{
    counter, customer_import_job, customer_rows, customer_virtualizer, export_job, tcp_connector,
    wait_idle,
};

/// Counters registered once, hammered from many threads, summed at
/// snapshot: the shard merge must never lose an increment, and histogram
/// bucket totals must equal the number of recorded values.
#[test]
fn concurrent_counter_and_histogram_aggregation() {
    let obs = Arc::new(etlv_core::Obs::default());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let obs = Arc::clone(&obs);
        let tenant = obs.tenant("t");
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                obs.pipeline.convert_rows.inc();
                obs.pipeline.convert_bytes.add(3);
                tenant.convert_us.record(t as u64 * PER_THREAD + i);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(obs.pipeline.convert_rows.value(), total);
    assert_eq!(obs.pipeline.convert_bytes.value(), 3 * total);
    let snap = obs.snapshot();
    let Some(SeriesValue::Histogram(hist)) = snap.get("tenant.convert_us", Some("t")) else {
        panic!("tenant.convert_us is a registered histogram")
    };
    assert_eq!(hist.count, total, "every recorded value landed in a bucket");
    assert_eq!(hist.max, total - 1);
    assert!(hist.p50 >= total / 2, "p50 {} conservative", hist.p50);
    assert!(hist.p95 >= hist.p50 && hist.p99 >= hist.p95);
}

/// A multi-session import drives every subsystem's metrics: gateway
/// intake, pipeline conversion, store puts, CDW statements, credits.
#[test]
fn import_populates_every_subsystem() {
    let v = customer_virtualizer(VirtualizerConfig {
        credits: 4,
        file_size_threshold: 256,
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(4),
            ..Default::default()
        },
    );
    let rows = 200usize;
    let data = customer_rows(rows);
    let result = client
        .run_import_data(&customer_import_job(), &data)
        .unwrap();
    assert_eq!(result.report.rows_applied, rows as u64);

    let obs = v.obs();
    assert_eq!(obs.pipeline.convert_rows.value(), rows as u64);
    let tenant = obs.registry.tenant(&customer_import_job().logon.user);
    assert_eq!(tenant.chunks.value(), 20);
    assert_eq!(tenant.chunk_bytes.value(), data.len() as u64);
    assert_eq!(tenant.jobs_started.value(), 1);
    assert_eq!(tenant.jobs_completed.value(), 1);
    assert_eq!(v.metrics().jobs_completed, 1);
    assert!(obs.pipeline.upload_parts.value() >= 1);
    assert!(obs.store.put_ops.value() >= obs.pipeline.upload_parts.value());
    assert!(obs.store.get_ops.value() >= 1, "COPY reads staged files");
    assert!(obs.cdw.statements.value() >= 3, "DDL + COPY + DML at least");
    assert_eq!(obs.credit.acquires.value(), 20, "one credit per chunk");
    // The journal saw the job's lifecycle.
    let kinds: Vec<&str> = obs.journal.tail(4096).iter().map(|e| e.kind).collect();
    for kind in [
        "job.begin",
        "chunk.convert",
        "file.upload",
        "copy",
        "job.end",
    ] {
        assert!(kinds.contains(&kind), "journal missing {kind}: {kinds:?}");
    }
}

/// The snapshot JSON carries all five required subsystems, and the
/// registry series `NodeMetrics` reads agree with it (credit stalls, peak
/// memory, rows ingested).
#[test]
fn stats_snapshot_consistent_with_node_metrics() {
    let v = customer_virtualizer(VirtualizerConfig {
        credits: 2, // tiny pool: back-pressure stalls are likely
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 5,
            sessions: Some(2),
            ..Default::default()
        },
    );
    client
        .run_import_data(&customer_import_job(), &customer_rows(100))
        .unwrap();

    let snapshot = v.introspect(Topic::Stats, Format::Json).body;
    let metrics = v.metrics();
    assert_eq!(counter(&snapshot, "credit.stalls"), metrics.credit_stalls);
    assert_eq!(counter(&snapshot, "gateway.rows_ingested"), 100);
    assert_eq!(metrics.rows_ingested, 100);
    for subsystem in ["gateway.", "pipeline.", "cloudstore.", "cdw.", "credit."] {
        assert!(snapshot.contains(subsystem), "snapshot missing {subsystem}");
    }
    assert_eq!(
        counter(&snapshot, "memory.peak"),
        metrics.peak_memory,
        "the gauge's own series"
    );
}

/// The `Stats` topic round-trips over the wire in both renderings.
#[test]
fn stats_wire_round_trip() {
    let v = customer_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::new(tcp_connector(&v));
    client
        .run_import_data(&customer_import_job(), &customer_rows(10))
        .unwrap();

    let mut session = etlv_legacy_client::Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let json = session.introspect(Topic::Stats, Format::Json).unwrap();
    assert_eq!(json.format, Format::Json);
    assert!(
        json.body.contains(
            "{\"tenant.jobs_completed\": 1, \"kind\": \"counter\", \"tenant\": \"user\"}"
        ),
        "{}",
        json.body
    );

    let prom = session.introspect(Topic::Stats, Format::Text).unwrap();
    assert_eq!(prom.format, Format::Text);
    assert!(
        prom.body
            .contains("\netlv_tenant_jobs_completed{tenant=\"user\"} 1\n"),
        "{}",
        prom.body
    );
    assert!(
        prom.body.contains("etlv_tenant_chunks{tenant=\"user\"}"),
        "{}",
        prom.body
    );
    assert!(prom.body.contains("quantile=\"0.99\""), "{}", prom.body);
    assert_eq!((prom.topic, prom.found), (Topic::Stats, true));

    // A trace has no text rendering: answered in JSON and labelled so.
    let trace = Topic::Trace { job: 1 };
    let text = session.introspect(trace, Format::Text).unwrap();
    assert_eq!(
        (text.topic, text.format, text.found),
        (trace, Format::Json, true)
    );
    assert_eq!(
        text.body,
        session.introspect(trace, Format::Json).unwrap().body
    );
    session.logoff();
}

/// Export accounting: `NodeMetrics` row/byte totals and the export
/// counters advance with served chunks.
#[test]
fn export_rows_and_bytes_counted() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8), CUST_NAME VARCHAR(20))")
        .unwrap();
    for i in 0..50 {
        v.cdw()
            .execute(&format!(
                "INSERT INTO PROD.CUSTOMER VALUES ('c{i:03}', 'name{i}')"
            ))
            .unwrap();
    }
    let src = ".logon h/u,p;\n.begin export sessions 2;\n.export outfile out format vartext '|';\nselect CUST_ID, CUST_NAME from PROD.CUSTOMER order by CUST_ID;\n.end export;\n";
    let JobPlan::Export(job) = compile(&parse_script(src).unwrap()).unwrap() else {
        panic!()
    };
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let result = client.run_export(&job).unwrap();
    assert_eq!(result.rows, 50);

    let metrics = v.metrics();
    assert_eq!(metrics.rows_exported, 50);
    assert!(
        metrics.bytes_exported >= result.data.len() as u64,
        "encoded bytes counted"
    );
    let obs = v.obs();
    assert_eq!(obs.export.rows.value(), 50);
    assert_eq!(obs.export.bytes.value(), metrics.bytes_exported);
    assert!(obs.export.chunks.value() >= 1);
}

/// A fault plan that hits both the uploader and the CDW: the wire report's
/// split retry counts stay consistent with the retained total.
#[test]
fn load_report_retry_split_consistent() {
    use etlv_core::{FaultPlan, FaultSpec};
    let mut plan = FaultPlan::seeded(42);
    plan.store_put = FaultSpec::FirstN(2);
    // Op 1 is the setup CREATE below; op 4 lands inside the job's table
    // DDL, which runs under the node's retry machinery.
    plan.cdw_exec = FaultSpec::AtOps(vec![4]);
    let v = Virtualizer::new(VirtualizerConfig {
        file_size_threshold: 256,
        retry_base_delay: std::time::Duration::from_micros(50),
        retry_max_delay: std::time::Duration::from_micros(500),
        fault_plan: Some(plan),
        ..Default::default()
    });
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
        .unwrap();
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 20,
            sessions: Some(1),
            ..Default::default()
        },
    );
    let result = client
        .run_import_data(&customer_import_job(), &customer_rows(100))
        .unwrap();
    let report = &result.report;
    assert_eq!(report.rows_applied, 100, "faults absorbed by retries");
    assert!(report.upload_retries >= 1, "store_put faults retried");
    assert!(report.cdw_retries >= 1, "cdw_exec fault retried");
    assert_eq!(
        report.retries,
        report.upload_retries + report.cdw_retries,
        "total equals the split"
    );
    let node_report = v.last_job_report().unwrap();
    assert_eq!(node_report.upload_retries, report.upload_retries);
    assert_eq!(node_report.cdw_retries, report.cdw_retries);
    assert_eq!(
        v.obs().pipeline.upload_retries.value(),
        report.upload_retries
    );
    // Two store puts and one statement faulted, all inside the job: the
    // injector's counters and the job's own report agree.
    let snapshot = v.introspect(Topic::Stats, Format::Json).body;
    assert_eq!(counter(&snapshot, "fault.injected_store_put"), 2);
    assert_eq!(counter(&snapshot, "fault.injected_cdw_exec"), 1);
    assert_eq!(report.faults_injected, 3);
    assert_eq!(node_report.faults_injected, 3);
}

/// The PR 7 plan counters: an import into a unique-keyed target makes
/// the CDW planner run index seeks (uniqueness-emulation probes, staged
/// range scans) and index maintenance; the counters land in the JSON
/// snapshot and the Prometheus rendering over the wire, each under its
/// own TYPE line.
#[test]
fn plan_counters_reach_the_wire() {
    use etlv_legacy_client::Session;

    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute(
            "CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE, PRIMARY KEY (CUST_ID))",
        )
        .unwrap();
    let client = LegacyEtlClient::new(tcp_connector(&v));
    // 20 clean rows plus one duplicate key: the uniqueness emulation has
    // to probe the target's PK and bisect the staging range by __SEQ.
    let mut data = customer_rows(20);
    data.extend_from_slice(b"i001|dup|2012-01-01\n");
    let result = client
        .run_import_data(&customer_import_job(), &data)
        .unwrap();
    assert_eq!(result.report.rows_applied, 20);

    let obs = v.obs();
    assert!(
        obs.cdw.plan_index_seek.value() > 0,
        "emulation probes and range scans ran as index seeks"
    );
    assert!(
        obs.cdw.index_maintain.value() > 0,
        "staging/target index maintenance counted"
    );

    let snapshot = v.introspect(Topic::Stats, Format::Json).body;
    assert_eq!(
        counter(&snapshot, "cdw.plan.index_seek"),
        obs.cdw.plan_index_seek.value()
    );
    assert_eq!(
        counter(&snapshot, "cdw.plan.full_scan"),
        obs.cdw.plan_full_scan.value()
    );
    assert_eq!(
        counter(&snapshot, "cdw.index.maintain"),
        obs.cdw.index_maintain.value()
    );

    // And over the wire, in both renderings.
    let mut session = Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let json = session.introspect(Topic::Stats, Format::Json).unwrap();
    assert!(
        json.body.contains("\"cdw.plan.index_seek\""),
        "{}",
        json.body
    );
    let prom = session.introspect(Topic::Stats, Format::Text).unwrap();
    for metric in [
        "etlv_cdw_plan_index_seek",
        "etlv_cdw_plan_full_scan",
        "etlv_cdw_index_maintain",
    ] {
        assert!(
            prom.body.contains(&format!("# TYPE {metric} counter")),
            "{metric} TYPE line"
        );
        assert!(
            prom.body.contains(&format!("\n{metric} ")),
            "{metric} sample"
        );
    }
    session.logoff();
}

/// The PR 5 session-lifecycle surface: session open/close counters stay
/// symmetric, the active-session/job gauges return to zero, and an
/// abandoned job shows up as its tenant's `tenant.jobs_aborted` in both
/// snapshot formats — with the Prometheus rendering carrying TYPE
/// metadata for each.
#[test]
fn session_lifecycle_metrics_are_symmetric_and_rendered() {
    use etlv_legacy_client::Session;
    use etlv_protocol::message::{BeginLoad, Message};

    let v = customer_virtualizer(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE T (A VARCHAR(5), B VARCHAR(50))")
        .unwrap();
    let connector = tcp_connector(&v);

    // One clean import...
    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 25,
            sessions: Some(2),
            ..Default::default()
        },
    );
    client
        .run_import_data(&customer_import_job(), &customer_rows(100))
        .unwrap();

    // ...and one abandoned one: logon, begin a load, vanish without
    // EndLoad or Logoff. The reactor notices the dead link and aborts.
    let job = customer_import_job();
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
    assert!(matches!(reply, Message::BeginLoadOk { .. }));
    drop(control);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while v.active_jobs() > 0 || v.active_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned job not reaped"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(v.metrics().jobs_aborted, 1);

    let obs = v.obs();
    assert_eq!(
        obs.gateway.sessions_opened.value(),
        obs.gateway.sessions_closed.value(),
        "every opened session must be closed"
    );
    assert_eq!(obs.gateway.active_sessions.value(), 0);
    assert_eq!(obs.gateway.active_jobs.value(), 0);
    assert_eq!(obs.registry.tenant("u").jobs_aborted.value(), 1);
    assert!(obs.runtime.threads_started.value() >= 1, "shared pool ran");

    // JSON snapshot carries the session counters and the abort.
    let snapshot = v.introspect(Topic::Stats, Format::Json).body;
    assert!(counter(&snapshot, "gateway.sessions_opened") >= 4);
    assert_eq!(
        counter(&snapshot, "gateway.sessions_opened"),
        counter(&snapshot, "gateway.sessions_closed")
    );
    assert_eq!(counter(&snapshot, "gateway.active_sessions"), 0);
    assert_eq!(counter(&snapshot, "gateway.active_jobs"), 0);
    assert_eq!(counter(&snapshot, "tenant.jobs_aborted"), 1);

    // Prometheus: samples present, each under its own TYPE line.
    let prom = v.introspect(Topic::Stats, Format::Text).body;
    assert!(
        prom.contains("\netlv_tenant_jobs_aborted{tenant=\"u\"} 1\n"),
        "{prom}"
    );
    for metric in [
        "etlv_gateway_sessions_closed",
        "etlv_gateway_active_sessions",
        "etlv_gateway_active_jobs",
        "etlv_server_connections",
        "etlv_runtime_threads_started",
    ] {
        assert!(prom.contains(&format!("# TYPE {metric} ")), "{metric} TYPE");
        assert!(prom.contains(&format!("\n{metric} ")), "{metric} sample");
    }
}

/// The worker-pool surface after a many-rotation, two-session import:
/// every row lands, `pool.busy_workers` is back to 0 in the registry, the
/// Stats JSON and the Prometheus rendering, the series of the
/// cross-thread buffer freelist the runtime no longer has are gone, and
/// the stage clocks sampled the convert and apply stages.
#[test]
fn pool_recycling_observed_in_stats() {
    let v = customer_virtualizer(VirtualizerConfig {
        file_size_threshold: 256,
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(2),
            ..Default::default()
        },
    );
    let result = client
        .run_import_data(&customer_import_job(), &customer_rows(200))
        .unwrap();
    assert_eq!(result.report.rows_applied, 200);
    let staged = v.last_job_report().unwrap().files_staged;
    assert!(
        staged > 1,
        "the threshold forces rotation: {staged} file(s)"
    );

    assert_eq!(
        v.obs().pool.busy_workers.value(),
        0,
        "all workers idle after the job"
    );
    let snapshot = v.introspect(Topic::Stats, Format::Json).body;
    assert_eq!(counter(&snapshot, "pool.busy_workers"), 0);
    let samples = counter(&snapshot, "profile.convert.samples");
    assert!(samples >= 1, "convert stage sampled");
    assert!(
        counter(&snapshot, "profile.apply.samples") >= 1,
        "apply stage sampled"
    );
    // Single-threaded spans can't burn (much) more CPU than wall; the two
    // clocks tick independently, so allow per-sample granularity jitter
    // rather than demanding cpu <= wall exactly.
    let cpu = counter(&snapshot, "profile.convert.cpu_us");
    // The stage's wall clock is its tenants' histograms, summed.
    let wall: u64 = snapshot
        .match_indices("\"tenant.convert_us\"")
        .map(|(at, _)| counter(&snapshot[at..], "sum"))
        .sum();
    assert!(
        cpu <= wall + 200 * samples,
        "thread CPU time implausibly exceeds wall time: cpu={cpu} wall={wall} samples={samples}"
    );
    let prom = v.introspect(Topic::Stats, Format::Text).body;
    assert!(prom.contains("\netlv_pool_busy_workers 0\n"));
    // Exactly the runtime's three pool families: the freelist's recycle
    // hit/miss counters and idle-buffer gauge are gone.
    let families: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE etlv_pool_"))
        .collect();
    assert_eq!(
        families,
        [
            "busy_workers gauge",
            "idle_wakeups counter",
            "rr_skips counter"
        ]
    );
}

/// The PR 8 attribution fix: a `SERVER_BUSY` logon rejection and an
/// idle-timeout close are the *tenant's* problem, not just the node's —
/// both must land on the offending tenant's counters (and from there
/// feed its availability SLO), under the right labels on the wire.
#[test]
fn rejections_and_idle_timeouts_attributed_to_their_tenant() {
    use etlv_legacy_client::{ClientError, Session};

    let v = customer_virtualizer(VirtualizerConfig {
        max_sessions: 1,
        session_idle_timeout: std::time::Duration::from_millis(40),
        ..Default::default()
    });
    let connector = tcp_connector(&v);

    // "holder" fills the one-slot registry; "noisy" is turned away.
    let holder = Session::logon(connector.as_ref(), "holder", "pw", SessionRole::Control, 0)
        .expect("first session fits");
    let refused = Session::logon(connector.as_ref(), "noisy", "pw", SessionRole::Control, 0);
    match refused {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, etlv_protocol::errcode::ErrCode::SERVER_BUSY.0)
        }
        Err(other) => panic!("expected SERVER_BUSY, got {other:?}"),
        Ok(_) => panic!("second logon must be refused"),
    }

    // "holder" now sits idle past its idle deadline and is reaped.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while v.active_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle session not reaped"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    drop(holder);

    let registry = &v.obs().registry;
    assert_eq!(
        registry.tenant("noisy").admission_rejections.value(),
        1,
        "rejection charged to the refused tenant"
    );
    assert_eq!(registry.tenant("holder").admission_rejections.value(), 0);
    assert_eq!(
        registry.tenant("holder").idle_timeouts.value(),
        1,
        "idle close charged to the idling tenant"
    );
    assert_eq!(registry.tenant("noisy").idle_timeouts.value(), 0);
    assert_eq!(
        v.health().overload.recent_rejections,
        1,
        "node total: the sum over tenants"
    );

    let prom = v.introspect(Topic::Stats, Format::Text).body;
    assert!(
        prom.contains("etlv_tenant_admission_rejections{tenant=\"noisy\"} 1\n"),
        "{prom}"
    );
    assert!(
        prom.contains("etlv_tenant_idle_timeouts{tenant=\"holder\"} 1\n"),
        "{prom}"
    );
}

/// One ledger, checked at all four job exits: a completed load, a failed
/// one, an abandoned one and an export (one read to its end, one
/// abandoned), spread over two tenants. The `NodeMetrics` view must equal
/// the sum of the tenant-labelled series — plus `export.aborted` for the
/// aborted export, which no tenant books — and nothing may stay "held"
/// afterwards.
#[test]
fn node_totals_equal_the_sum_over_tenants() {
    use etlv_legacy_client::Session;
    use etlv_protocol::message::{BeginExport, BeginLoad, DataChunk, Message};

    let v = customer_virtualizer(VirtualizerConfig::default());
    let connector = tcp_connector(&v);
    let client = LegacyEtlClient::with_options(
        connector.clone(),
        ClientOptions {
            chunk_rows: 20,
            sessions: Some(2),
            ..Default::default()
        },
    );

    // alice: one load completes, one fails on a DML naming no table.
    let mut job = customer_import_job();
    job.logon.user = "alice".into();
    let done = client.run_import_data(&job, &customer_rows(60)).unwrap();
    assert_eq!(done.report.rows_applied, 60);
    let mut bad = job.clone();
    bad.dml = "insert into PROD.NO_SUCH_TABLE values (:CUST_ID)".into();
    assert!(client.run_import_data(&bad, &customer_rows(40)).is_err());

    // bob: one load abandoned mid-flight (socket dropped after a chunk
    // was accepted), one export read to its last chunk.
    let mut control =
        Session::logon(connector.as_ref(), "bob", "pw", SessionRole::Control, 0).unwrap();
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
        other => panic!("expected BeginLoadOk, got {:?}", other.kind()),
    };
    let mut data = Session::logon(
        connector.as_ref(),
        "bob",
        "pw",
        SessionRole::Data,
        load_token,
    )
    .unwrap();
    let reply = data
        .request(Message::DataChunk(DataChunk {
            chunk_seq: 1,
            base_seq: 1,
            record_count: 10,
            data: customer_rows(10).into(),
        }))
        .unwrap();
    assert!(matches!(reply, Message::Ack { chunk_seq: 1 }));
    drop(data);
    drop(control);
    wait_idle(&v);
    let mut export = export_job("select CUST_ID, CUST_NAME from PROD.CUSTOMER order by CUST_ID");
    export.logon.user = "bob".into();
    let exported = client.run_export(&export).unwrap();
    assert_eq!(exported.rows, 60);
    let mut control =
        Session::logon(connector.as_ref(), "bob", "pw", SessionRole::Control, 0).unwrap();
    let reply = control
        .request(Message::BeginExport(BeginExport {
            select: export.select.clone(),
            format: export.format,
            sessions: 1,
            chunk_rows: 0,
        }))
        .unwrap();
    assert!(matches!(reply, Message::BeginExportOk(_)));
    drop(control);
    wait_idle(&v);

    let (obs, metrics, snap) = (v.obs(), v.metrics(), v.obs().snapshot());
    let over_tenants = |name: &str| -> u64 {
        let values: Vec<u64> = snap
            .series
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SeriesValue::Counter(v) | SeriesValue::Gauge(v) => v,
                SeriesValue::Histogram(_) => panic!("{name} is a scalar"),
            })
            .collect();
        assert!(values.len() >= 2, "{name}: one series per tenant");
        values.iter().sum()
    };
    assert_eq!(
        over_tenants("tenant.jobs_started"),
        3,
        "exports are not load jobs"
    );
    for (what, tenants, view) in [
        ("completed", "tenant.jobs_completed", metrics.jobs_completed),
        ("failed", "tenant.jobs_failed", metrics.jobs_failed),
        ("aborted", "tenant.jobs_aborted", metrics.jobs_aborted - 1),
    ] {
        assert_eq!(over_tenants(tenants), 1, "tenant series: one load {what}");
        assert_eq!(view, 1, "NodeMetrics: one load {what}");
    }
    assert_eq!(obs.export.aborted.value(), 1, "the abandoned export");
    assert_eq!(metrics.jobs_aborted, 2, "one load and one export aborted");
    assert_eq!(obs.registry.tenant("alice").jobs_completed.value(), 1);
    assert_eq!(obs.registry.tenant("alice").jobs_failed.value(), 1);
    assert_eq!(obs.registry.tenant("bob").jobs_aborted.value(), 1);

    assert_eq!(metrics.rows_ingested, 60, "the completed job's rows only");
    assert_eq!(obs.gateway.rows_ingested.value(), 60);
    assert_eq!(over_tenants("tenant.rows_applied"), 60);
    assert_eq!(metrics.exports_started, 2);
    assert_eq!(metrics.rows_exported, 60);
    assert_eq!(metrics.rows_exported, obs.export.rows.value());
    assert_eq!(metrics.bytes_exported, obs.export.bytes.value());
    assert!(metrics.bytes_exported >= exported.data.len() as u64);

    assert_eq!(obs.gateway.active_jobs.value(), 0);
    for held in [
        "tenant.active_jobs",
        "tenant.credit_held",
        "tenant.memory_held",
    ] {
        assert_eq!(
            over_tenants(held),
            0,
            "{held} back to zero for every tenant"
        );
    }
}

/// One writer per histogram: each convert, upload and apply execution
/// lands its wall time once, in its tenant's histogram, so on a
/// two-tenant load each stage's counts over the tenants equal its
/// executions: chunks converted; frames compressed plus parts put; jobs
/// applied. The plain node rotates a part every few chunks; on the
/// compressing one each job's text stays under one frame, so it is framed
/// once, at EndLoad, and put as one part.
#[test]
fn each_stage_execution_lands_once_in_its_tenants_histogram() {
    for compress in [false, true] {
        let v = customer_virtualizer(VirtualizerConfig {
            compress_staged: compress,
            file_size_threshold: if compress { 1 << 20 } else { 256 },
            ..Default::default()
        });
        let client = LegacyEtlClient::with_options(
            tcp_connector(&v),
            ClientOptions {
                chunk_rows: 10,
                sessions: Some(2),
                ..Default::default()
            },
        );
        for user in ["alice", "bob"] {
            let mut job = customer_import_job();
            job.logon.user = user.into();
            let done = client.run_import_data(&job, &customer_rows(80)).unwrap();
            assert_eq!(done.report.rows_applied, 80);
        }
        let (obs, snap) = (v.obs(), v.obs().snapshot());
        let counts = |name: &str| -> Vec<u64> {
            snap.series
                .iter()
                .filter(|s| s.name == name)
                .map(|s| match &s.value {
                    SeriesValue::Histogram(h) => h.count,
                    _ => panic!("{name} is a histogram"),
                })
                .collect()
        };
        let jobs = 2;
        let parts = obs.pipeline.upload_parts.value();
        let frames = if compress { jobs } else { 0 };
        assert!(parts >= jobs, "compress={compress}: {parts} part(s)");
        for (name, executions) in [
            ("tenant.convert_us", obs.pipeline.convert_chunks.value()),
            ("tenant.upload_us", frames + parts),
            ("tenant.apply_us", jobs),
        ] {
            let per_tenant = counts(name);
            assert_eq!(per_tenant.len(), 2, "{name}: one series per tenant");
            assert!(per_tenant.iter().all(|&n| n > 0), "{name}: {per_tenant:?}");
            assert_eq!(
                per_tenant.iter().sum::<u64>(),
                executions,
                "compress={compress}: {name} over the tenants"
            );
        }
    }
}

/// An object store whose puts wait until the test opens the gate.
#[derive(Default)]
struct GatedStore {
    inner: etlv_cloudstore::MemStore,
    open: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
    puts_waiting: std::sync::atomic::AtomicU64,
}

impl GatedStore {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl etlv_cloudstore::ObjectStore for GatedStore {
    fn put(
        &self,
        bucket: &str,
        key: &str,
        data: Vec<u8>,
    ) -> Result<(), etlv_cloudstore::StoreError> {
        use std::sync::atomic::Ordering;
        self.puts_waiting.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.puts_waiting.fetch_sub(1, Ordering::SeqCst);
        self.inner.put(bucket, key, data)
    }

    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, etlv_cloudstore::StoreError> {
        self.inner.get(bucket, key)
    }

    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, etlv_cloudstore::StoreError> {
        self.inner.list(bucket, prefix)
    }

    fn delete(&self, bucket: &str, key: &str) -> Result<(), etlv_cloudstore::StoreError> {
        self.inner.delete(bucket, key)
    }
}

/// Figure 4's moment, seen from Stats: a chunk's credit returns just
/// before the FileWriter writes it, and its tenant's charge goes with
/// it. While a rotated part's upload is stuck, the chunk that filled the
/// part has given its credit and memory back but is not yet retired, and
/// the chunks queued behind it hold theirs: the tenant sums must still
/// equal what the node's pool and gauge hold.
#[test]
fn held_resources_reconcile_while_an_upload_is_stuck() {
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    let store = Arc::new(GatedStore::default());
    let shared: Arc<dyn etlv_cloudstore::ObjectStore> = store.clone();
    let cdw = etlv_cdw::Cdw::with_config(etlv_cdw::CdwConfig::default(), Some(shared.clone()));
    let v = Virtualizer::with_backends(
        VirtualizerConfig {
            credits: 16,
            converter_threads: 1,
            // 10-row chunks stage ~280 bytes each: the third rotates a part.
            file_size_threshold: 700,
            ..Default::default()
        },
        cdw,
        shared,
    );
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(5), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
        .unwrap();
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 10,
            sessions: Some(1),
            ..Default::default()
        },
    );
    let loader = std::thread::spawn(move || {
        client
            .run_import_data(&customer_import_job(), &customer_rows(100))
            .unwrap()
    });

    // Wait until the part's put is stuck and every chunk has been acked:
    // from then on nothing moves until the gate opens.
    let tenant = v.obs().registry.tenant("user");
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.puts_waiting.load(Ordering::SeqCst) == 0 || tenant.chunks.value() < 10 {
        assert!(Instant::now() < deadline, "the upload never blocked");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = v.introspect(Topic::Stats, Format::Json).body;
    let in_flight = counter(&stats, "credit.in_flight");
    assert!(
        (1..10).contains(&in_flight),
        "queued chunks hold credits, staged ones gave theirs back: {in_flight}"
    );
    assert_eq!(counter(&stats, "tenant.credit_held"), in_flight, "{stats}");
    assert_eq!(
        counter(&stats, "tenant.memory_held"),
        counter(&stats, "memory.in_flight"),
        "{stats}"
    );

    store.open();
    let result = loader.join().unwrap();
    assert_eq!(result.report.rows_applied, 100);
    let staged = v.last_job_report().unwrap().files_staged;
    assert!(staged >= 2, "a part rotated mid-load: {staged}");
    let stats = v.introspect(Topic::Stats, Format::Json).body;
    for held in [
        "credit.in_flight",
        "tenant.credit_held",
        "memory.in_flight",
        "tenant.memory_held",
    ] {
        assert_eq!(counter(&stats, held), 0, "{held} after the load");
    }
}

/// The keys of a JSON document's top-level object, in document order.
fn top_level_keys(json: &str) -> Vec<String> {
    let (mut depth, mut keys, mut chars) = (0, Vec::new(), json.chars());
    while let Some(c) = chars.next() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            '"' => {
                let mut text = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => text.extend(chars.next()),
                        '"' => break,
                        c => text.push(c),
                    }
                }
                let next = chars.clone().find(|c| !c.is_whitespace());
                if depth == 1 && next == Some(':') {
                    keys.push(text);
                }
            }
            _ => {}
        }
    }
    keys
}

/// Each number has one name: the Stats document is the registry's series
/// plus journal occupancy, with no second `node` copy of registry totals
/// and no ring of load reports, and the Health document is the overload
/// standing plus the tenants.
#[test]
fn introspection_documents_have_one_schema() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let stats = v.introspect(Topic::Stats, Format::Json).body;
    assert_eq!(top_level_keys(&stats), ["series", "journal"], "{stats}");
    let health = v.introspect(Topic::Health, Format::Json).body;
    assert_eq!(top_level_keys(&health), ["overload", "tenants"], "{health}");

    let text = v.introspect(Topic::Stats, Format::Text).body;
    assert!(text.contains("# TYPE etlv_"), "{text}");
    assert!(!text.contains("etlv_node_"), "{text}");
    assert!(!text.contains("etlv_lock"), "{text}");
}

/// The Stats exposition's family list, pinned: the sorted `# TYPE` lines
/// of a fresh node after one load, against `tests/golden/stats_types.txt`.
/// A change that adds, removes or retypes a family edits that file, and
/// its diff is the change's record of what moved (a retype reads as one
/// line removed and one added).
#[test]
fn stats_families_match_the_golden_list() {
    let v = customer_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let result = client
        .run_import_data(&customer_import_job(), &customer_rows(20))
        .unwrap();
    assert_eq!(result.report.rows_applied, 20);
    let text = v.introspect(Topic::Stats, Format::Text).body;
    let mut got: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    got.sort_unstable();
    let want: Vec<&str> = include_str!("golden/stats_types.txt").lines().collect();
    let added: Vec<&str> = got.iter().filter(|l| !want.contains(l)).copied().collect();
    let removed: Vec<&str> = want.iter().filter(|l| !got.contains(l)).copied().collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "the Stats families moved against tests/golden/stats_types.txt\n\
         added: {added:#?}\nremoved: {removed:#?}"
    );
    assert_eq!(got, want, "the golden list is sorted, one line per family");
}
