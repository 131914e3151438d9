//! Dump the virtualizer's observability surface while a load job runs:
//! live journal events mid-flight, then the full stats snapshot (JSON),
//! its Prometheus exposition, and the same document fetched over the wire
//! with an `Introspect` request for the `Stats` topic.
//!
//! Run with `cargo run --example obs_dump`.
//!
//! With `--trace <job>` the example instead renders the finished job's
//! span tree — per-stage durations with the critical path highlighted —
//! plus the wall-clock attribution and the raw trace JSON fetched over
//! the wire with the `Trace` topic (the example's own load is job 1):
//!
//! ```text
//! cargo run --example obs_dump -- --trace 1
//! ```
//!
//! With `--tenants` the example prints the Prometheus exposition alone
//! (node-wide families plus the tenant-labeled ones); with `--slo` it
//! prints the SLO/overload health report — burn rates, active alerts, node
//! saturation — both directly and fetched over the wire with the `Health`
//! topic. The two flags compose.

use std::sync::Arc;

use etlv_core::trace::{JobTrace, Stage};
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, TcpConnector};
use etlv_protocol::message::{Format, SessionRole, Topic};
use etlv_script::{compile, parse_script, JobPlan};

const IMPORT_SCRIPT: &str = r#"
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(8);
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

fn main() {
    // `--trace <job>`: render the span tree for <job> after the load
    // instead of the stats dump.
    let args: Vec<String> = std::env::args().collect();
    let trace_job: Option<u64> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|at| args.get(at + 1))
        .map(|j| j.parse().expect("--trace takes a numeric job token"));
    let show_tenants = args.iter().any(|a| a == "--tenants");
    let show_slo = args.iter().any(|a| a == "--slo");

    let v = Virtualizer::new(VirtualizerConfig {
        file_size_threshold: 4096, // several staged files for this data size
        ..Default::default()
    });
    v.cdw()
        .execute("CREATE TABLE PROD.CUSTOMER (CUST_ID VARCHAR(8), CUST_NAME VARCHAR(50), JOIN_DATE DATE)")
        .unwrap();
    let server = v.listen_tcp("127.0.0.1:0").unwrap();
    let connector = Arc::new(TcpConnector::new(server.addr().to_string()));
    let job = match compile(&parse_script(IMPORT_SCRIPT).unwrap()).unwrap() {
        JobPlan::Import(j) => j,
        _ => unreachable!(),
    };
    let data: Vec<u8> = (0..5_000)
        .flat_map(|i| format!("c{i:06}|customer number {i}|2023-0{}-15\n", i % 9 + 1).into_bytes())
        .collect();

    // Run the load on a background thread; this thread watches the journal.
    let loader = {
        let connector = connector.clone();
        std::thread::spawn(move || {
            let client = LegacyEtlClient::with_options(
                connector,
                ClientOptions {
                    chunk_rows: 250,
                    sessions: Some(2),
                    ..Default::default()
                },
            );
            client.run_import_data(&job, &data).unwrap()
        })
    };

    println!("== live journal (sampled while the job runs) ==");
    let mut last_seq = 0u64;
    while !loader.is_finished() {
        for event in v.obs().journal.tail(64) {
            if event.seq >= last_seq {
                last_seq = event.seq + 1;
                println!("  {}", event.to_json());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let result = loader.join().unwrap();
    println!(
        "\nload finished: {} rows applied, {} retries (upload={} cdw={})",
        result.report.rows_applied,
        result.report.retries,
        result.report.upload_retries,
        result.report.cdw_retries
    );

    if let Some(job) = trace_job {
        match v.trace(job) {
            Some(trace) => {
                println!("\n== span tree for job {job} (critical path marked *) ==");
                print!("{}", render_trace_ascii(&trace));
                println!("\n== wall-clock attribution ==");
                for (stage, micros) in &trace.attribution {
                    let share = if trace.wall_micros > 0 {
                        *micros as f64 * 100.0 / trace.wall_micros as f64
                    } else {
                        0.0
                    };
                    println!("  {stage:<12} {micros:>10} us  {share:5.1}%");
                }
            }
            None => println!("\nno trace for job {job} (aged out)"),
        }
        // The same tree over the wire: a control session's Trace topic.
        let client = LegacyEtlClient::new(connector.clone());
        let mut session = etlv_legacy_client::Session::logon(
            client.connector().as_ref(),
            "admin",
            "pw",
            SessionRole::Control,
            0,
        )
        .unwrap();
        let reply = session
            .introspect(Topic::Trace { job }, Format::Json)
            .unwrap();
        println!("\n== Trace over the legacy wire protocol ==");
        println!(
            "IntrospectReply({:?}, found={}): {} bytes",
            reply.topic,
            reply.found,
            reply.body.len()
        );
        session.logoff();
        return;
    }

    if show_tenants || show_slo {
        if show_tenants {
            // The load above logged on as "user" (the script's .logon),
            // so its work shows up under that tenant label. The whole
            // exposition is printed so node-wide counters can be checked
            // against the tenant-labelled families.
            println!("\n== Stats exposition (Prometheus; etlv_tenant_* carry the tenant label) ==");
            print!("{}", v.introspect(Topic::Stats, Format::Text).body);
        }
        if show_slo {
            println!("\n== SLO / overload health report (JSON) ==");
            println!("{}", v.introspect(Topic::Health, Format::Json).body);

            // The same report over the wire: a control session's Health
            // topic, in its Prometheus rendering.
            let client = LegacyEtlClient::new(connector.clone());
            let mut session = etlv_legacy_client::Session::logon(
                client.connector().as_ref(),
                "admin",
                "pw",
                SessionRole::Control,
                0,
            )
            .unwrap();
            let reply = session.introspect(Topic::Health, Format::Text).unwrap();
            println!("== Health over the legacy wire protocol (Prometheus) ==");
            print!("{}", reply.body);
            session.logoff();
        }
        return;
    }

    println!("\n== Stats snapshot (JSON) ==");
    println!("{}", v.introspect(Topic::Stats, Format::Json).body);

    println!("== Stats exposition (Prometheus) ==");
    print!("{}", v.introspect(Topic::Stats, Format::Text).body);

    // The same surface over the wire: a control session's Stats topic.
    println!("\n== Stats over the legacy wire protocol ==");
    let client = LegacyEtlClient::new(connector.clone());
    let mut session = etlv_legacy_client::Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let reply = session.introspect(Topic::Stats, Format::Json).unwrap();
    println!(
        "IntrospectReply({:?}, {:?}): {} bytes",
        reply.topic,
        reply.format,
        reply.body.len()
    );
    session.logoff();
}

/// Render the span tree as indented ASCII, critical-path stages
/// marked with `*`.
fn render_trace_ascii(trace: &JobTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "job {} trace {:#x} wall {}us ({})\n",
        trace.job,
        trace.trace_id,
        trace.wall_micros,
        trace.outcome.unwrap_or("incomplete")
    ));
    out.push_str("attribution:\n");
    for (name, micros) in &trace.attribution {
        let pct = if trace.wall_micros > 0 {
            *micros as f64 * 100.0 / trace.wall_micros as f64
        } else {
            0.0
        };
        let mark = if *name == trace.critical_stage {
            " *"
        } else {
            ""
        };
        out.push_str(&format!("  {name:<10} {micros:>10}us {pct:5.1}%{mark}\n"));
    }
    out.push_str("spans:\n");
    render_node(trace, &mut out, trace.root, 1);
    out
}

fn render_node(trace: &JobTrace, out: &mut String, idx: usize, depth: usize) {
    let n = &trace.nodes[idx];
    let critical = Stage::classify(n.kind)
        .map(|s| s.name() == trace.critical_stage)
        .unwrap_or(false);
    out.push_str(&format!(
        "{}{} {}{} [span {}]",
        "  ".repeat(depth),
        if critical { "*" } else { "-" },
        n.kind,
        if n.chunk != 0 || n.kind.starts_with("chunk") {
            format!(" #{}", n.chunk)
        } else {
            String::new()
        },
        n.span,
    ));
    if n.dur_micros > 0 {
        out.push_str(&format!(" {}us", n.dur_micros));
    }
    if n.value > 0 {
        out.push_str(&format!(" ({})", n.value));
    }
    out.push('\n');
    // Children in journal (time) order.
    for &c in &n.children {
        render_node(trace, out, c, depth + 1);
    }
}
