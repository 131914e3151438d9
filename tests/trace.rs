//! Causal tracing, end to end: wire-propagated trace context, span trees
//! assembled over the `Trace` request, critical-path attribution that
//! sums to the measured wall time, and backward compatibility with
//! trace-free legacy clients.

use etlv_core::VirtualizerConfig;
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session};
use etlv_protocol::message::{BeginLoad, DataChunk, EndLoad, Format, Message, SessionRole, Topic};
mod common;
use common::{customer_import_job, customer_rows, customer_virtualizer, tcp_connector};

/// The acceptance scenario: a seeded multi-chunk import yields a complete
/// span tree via the `Trace` wire request — chunk convert/upload/copy
/// spans parent to the job root, the client-minted trace id survives the
/// wire, and the stage attribution partitions the measured wall time.
#[test]
fn multi_chunk_import_yields_complete_span_tree() {
    let v = customer_virtualizer(VirtualizerConfig {
        file_size_threshold: 256, // several uploads
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 10, // 20 chunks
            sessions: Some(3),
            ..Default::default()
        },
    );
    let result = client
        .run_import_data(&customer_import_job(), &customer_rows(200))
        .unwrap();
    assert_eq!(result.report.rows_applied, 200);
    assert_ne!(result.trace_id, 0, "client minted a trace id");

    // Assembled server-side: a complete tree rooted at job.begin.
    let trace = v.trace(1).expect("trace for job 1");
    assert!(trace.complete(), "job.end folded into the root");
    assert_eq!(trace.job, 1);
    assert_eq!(
        trace.trace_id, result.trace_id,
        "client trace id propagated over the wire"
    );
    assert_eq!(trace.orphans, 0, "every span's parent was retained");

    // Every pipeline stage appears, and parents to the job root.
    let root_span = trace.nodes[trace.root].span;
    for kind in [
        "chunk.queue",
        "chunk.convert",
        "file.upload",
        "copy",
        "apply",
        "ack.wait",
    ] {
        let spans: Vec<_> = trace.nodes.iter().filter(|n| n.kind == kind).collect();
        assert!(!spans.is_empty(), "no {kind} spans in trace");
        for n in &spans {
            assert_eq!(n.parent, root_span, "{kind} span parents to the job root");
        }
    }
    assert_eq!(
        trace
            .nodes
            .iter()
            .filter(|n| n.kind == "chunk.convert")
            .count(),
        20,
        "one convert span per chunk"
    );

    // Attribution partitions the wall: buckets sum to wall_micros exactly
    // (well within the 5% acceptance bound), and the wall tracks the
    // node's own phase-timed report.
    assert_eq!(trace.attributed_total(), trace.wall_micros);
    let tracks_measured =
        |trace: &etlv_core::trace::JobTrace, v: &etlv_core::Virtualizer| -> bool {
            let report = v.last_job_report().unwrap();
            let measured = (report.acquisition + report.application).as_micros() as u64;
            trace.wall_micros >= measured
                && trace.wall_micros as f64 <= measured as f64 * 1.05 + 2_000.0
        };
    // The 5% bound is a property of the tracing, not of the machine, but
    // scheduler preemption on a loaded box shows up as untracked gaps
    // between spans; give the bound two fresh-import attempts before
    // declaring the attribution wrong. (The exact partition above is
    // load-independent and never retried.)
    let wall_bound = tracks_measured(&trace, &v)
        || (0..2).any(|_| {
            let v = customer_virtualizer(VirtualizerConfig {
                file_size_threshold: 256,
                ..Default::default()
            });
            let client = LegacyEtlClient::with_options(
                tcp_connector(&v),
                ClientOptions {
                    chunk_rows: 10,
                    sessions: Some(3),
                    ..Default::default()
                },
            );
            client
                .run_import_data(&customer_import_job(), &customer_rows(200))
                .unwrap();
            let retried = v.trace(1).expect("trace for job 1");
            assert_eq!(retried.attributed_total(), retried.wall_micros);
            tracks_measured(&retried, &v)
        });
    assert!(
        wall_bound,
        "trace wall {} not within 5% of the phase-timed report on three attempts",
        trace.wall_micros
    );

    // The same tree over the wire: Trace request on a control session.
    let mut session = Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let reply = session
        .introspect(Topic::Trace { job: 1 }, Format::Json)
        .unwrap();
    assert!(reply.found);
    assert_eq!(reply.topic, Topic::Trace { job: 1 });
    for needle in [
        "\"kind\": \"job.begin\"",
        "\"kind\": \"chunk.convert\"",
        "\"kind\": \"file.upload\"",
        "\"kind\": \"copy\"",
        "\"kind\": \"apply\"",
        "\"critical_stage\"",
        "\"attribution\"",
    ] {
        assert!(
            reply.body.contains(needle),
            "{needle} missing: {}",
            reply.body
        );
    }

    // Unknown jobs answer found=false rather than erroring.
    let missing = session
        .introspect(Topic::Trace { job: 999 }, Format::Json)
        .unwrap();
    assert!(!missing.found);
    assert!(missing.body.is_empty());
    session.logoff();

    // A load that fails — its DML names no table — is over too: the
    // terminal `job.fail` folds into the root exactly as `job.end` does,
    // and the stage spans stay under the root.
    let mut bad = customer_import_job();
    bad.dml = "insert into PROD.NO_SUCH_TABLE values (:CUST_ID)".into();
    assert!(client.run_import_data(&bad, &customer_rows(50)).is_err());
    let failed = v.trace(2).expect("trace for the failed job");
    assert!(failed.complete(), "a failed job is not still running");
    assert_eq!(failed.outcome, Some("fail"));
    assert_eq!(failed.orphans, 0);
    assert_eq!(failed.attributed_total(), failed.wall_micros);
    assert!(failed.nodes.iter().all(|n| n.kind != "job.fail"));
    let root_span = failed.nodes[failed.root].span;
    let converts: Vec<_> = failed
        .nodes
        .iter()
        .filter(|n| n.kind == "chunk.convert")
        .collect();
    assert_eq!(converts.len(), 5, "one convert span per chunk");
    assert!(converts.iter().all(|n| n.parent == root_span));
    assert_eq!(
        failed.nodes[failed.root].children.len(),
        failed.nodes.len() - 1
    );
}

/// Backward compatibility: an unmodified legacy client — no trace trailer
/// on Logon or BeginLoad — still loads against the instrumented gateway,
/// which mints a root trace server-side.
#[test]
fn trace_free_legacy_client_still_loads() {
    let v = customer_virtualizer(VirtualizerConfig::default());
    let client = LegacyEtlClient::new(tcp_connector(&v));
    let job = customer_import_job();

    // Hand-run the wire conversation run_import performs, with trace: None
    // everywhere (Session::logon never attaches one).
    let mut control = Session::logon(
        client.connector().as_ref(),
        "user",
        "pass",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let load_token = match control
        .request(Message::BeginLoad(BeginLoad {
            target_table: job.target.clone(),
            error_table_et: job.error_table_et.clone(),
            error_table_uv: job.error_table_uv.clone(),
            layout: job.layout.clone(),
            format: job.format,
            sessions: 1,
            error_limit: job.errlimit,
            trace: None,
        }))
        .unwrap()
    {
        Message::BeginLoadOk { load_token } => load_token,
        other => panic!("expected BeginLoadOk, got {:?}", other.kind()),
    };

    let mut data_session = Session::logon(
        client.connector().as_ref(),
        "user",
        "pass",
        SessionRole::Data,
        load_token,
    )
    .unwrap();
    let data = customer_rows(30);
    let reply = data_session
        .request(Message::DataChunk(DataChunk {
            chunk_seq: 1,
            base_seq: 1,
            record_count: 30,
            data: data.into(),
        }))
        .unwrap();
    assert!(matches!(reply, Message::Ack { chunk_seq: 1 }));
    data_session.logoff();

    let report = match control
        .request(Message::EndLoad(EndLoad {
            dml: job.dml.clone(),
        }))
        .unwrap()
    {
        Message::LoadReport(r) => r,
        other => panic!("expected LoadReport, got {:?}", other.kind()),
    };
    assert_eq!(report.rows_applied, 30, "trace-free load applied fully");

    // The gateway minted a trace of its own: the tree is still
    // complete and queryable.
    let trace = v.trace(load_token).expect("gateway-minted trace");
    assert!(trace.complete());
    assert_ne!(trace.trace_id, 0, "server minted a nonzero trace id");
    assert!(trace.nodes.iter().any(|n| n.kind == "chunk.convert"));
    control.logoff();
}
