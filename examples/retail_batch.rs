//! Retail batch-group orchestration — a scaled-down rendition of the
//! paper's §8 case study.
//!
//! ```sh
//! cargo run --example retail_batch
//! ```
//!
//! The customer in the paper runs 127 batch groups nightly under a strict
//! SLA (start after midnight, finish by 6 a.m.), with dependencies
//! controlling execution order. This example builds a dependency DAG of
//! batch groups — each a real legacy import job plus a post-load
//! transformation — and executes it against the virtualizer with the
//! dependency-respecting parallelism the paper describes, then prints an
//! SLA-style summary.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session, TcpConnector};
use etlv_protocol::message::SessionRole;
use etlv_script::{compile, parse_script, JobPlan};
use parking_lot::Mutex;

/// One batch group: loads a region×category slice of daily sales, then
/// runs a summarization step.
struct BatchGroup {
    name: String,
    depends_on: Vec<String>,
    table: String,
    rows: u64,
}

fn main() {
    // Scaled-down case study: 18 groups in 3 dependency tiers
    // (region loads → category rollups → the global summary).
    let regions = ["NORTH", "SOUTH", "EAST", "WEST"];
    let categories = ["FOOD", "WHOLESALE", "INSURANCE"];
    let mut groups: Vec<BatchGroup> = Vec::new();
    for region in &regions {
        for category in &categories {
            groups.push(BatchGroup {
                name: format!("load_{region}_{category}"),
                depends_on: vec![],
                table: format!("SALES.{region}_{category}"),
                rows: 400,
            });
        }
    }
    for category in &categories {
        groups.push(BatchGroup {
            name: format!("rollup_{category}"),
            depends_on: regions
                .iter()
                .map(|r| format!("load_{r}_{category}"))
                .collect(),
            table: format!("SALES.ROLLUP_{category}"),
            rows: 0,
        });
    }
    groups.push(BatchGroup {
        name: "global_summary".into(),
        depends_on: categories.iter().map(|c| format!("rollup_{c}")).collect(),
        table: "SALES.GLOBAL".into(),
        rows: 0,
    });
    for extra in ["audit_food", "audit_wholesale"] {
        groups.push(BatchGroup {
            name: extra.into(),
            depends_on: vec!["global_summary".into()],
            table: format!("SALES.{}", extra.to_uppercase()),
            rows: 0,
        });
    }

    let virtualizer = Virtualizer::new(VirtualizerConfig::default());
    let server = virtualizer.listen_tcp("127.0.0.1:0").unwrap();
    let connector: Arc<dyn etlv_legacy_client::Connect> =
        Arc::new(TcpConnector::new(server.addr().to_string()));

    // DDL for every table, through the legacy protocol.
    let mut session =
        Session::logon(connector.as_ref(), "batch", "pw", SessionRole::Control, 0).unwrap();
    for group in &groups {
        session
            .sql(&format!(
                "CREATE TABLE {} (STORE_ID VARCHAR(8), SALE_DATE DATE, AMOUNT DECIMAL(12,2))",
                group.table
            ))
            .unwrap();
    }
    session.logoff();

    // Dependency-driven execution: a group runs once all its dependencies
    // completed; independent groups run in parallel.
    let done: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
    let timings: Arc<Mutex<HashMap<String, std::time::Duration>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let sla_start = Instant::now();

    let mut remaining: Vec<&BatchGroup> = groups.iter().collect();
    while !remaining.is_empty() {
        let ready: Vec<&BatchGroup> = remaining
            .iter()
            .copied()
            .filter(|g| {
                let done = done.lock();
                g.depends_on.iter().all(|d| done.contains(d))
            })
            .collect();
        assert!(!ready.is_empty(), "dependency cycle");
        remaining.retain(|g| !ready.iter().any(|r| r.name == g.name));

        // One wave: run every ready group concurrently.
        std::thread::scope(|scope| {
            for group in &ready {
                let connector = Arc::clone(&connector);
                let done = Arc::clone(&done);
                let timings = Arc::clone(&timings);
                scope.spawn(move || {
                    let started = Instant::now();
                    if group.rows > 0 {
                        run_load_group(&connector, group);
                    } else {
                        run_transform_group(&connector, group);
                    }
                    timings.lock().insert(group.name.clone(), started.elapsed());
                    done.lock().insert(group.name.clone());
                });
            }
        });
        println!(
            "wave complete: {:?}",
            ready.iter().map(|g| g.name.as_str()).collect::<Vec<_>>()
        );
    }

    let total = sla_start.elapsed();
    println!("\n== SLA summary ==");
    println!("batch groups : {}", groups.len());
    println!("total time   : {total:?}");
    let timings = timings.lock();
    let mut slowest: Vec<(&String, &std::time::Duration)> = timings.iter().collect();
    slowest.sort_by_key(|(_, d)| std::cmp::Reverse(**d));
    for (name, d) in slowest.iter().take(3) {
        println!("slowest      : {name} ({d:?})");
    }
    let metrics = virtualizer.metrics();
    println!(
        "node metrics : {} jobs, {} rows ingested, {} credit stalls",
        metrics.jobs_completed, metrics.rows_ingested, metrics.credit_stalls
    );
    let global = virtualizer
        .cdw()
        .execute("SELECT COUNT(*) FROM SALES.GLOBAL")
        .unwrap();
    println!("global rows  : {}", global.rows[0][0]);
}

/// Tier-1 group: a real legacy import job loading generated sales rows.
fn run_load_group(connector: &Arc<dyn etlv_legacy_client::Connect>, group: &BatchGroup) {
    let script = format!(
        r#".logon edw/batch,pw;
.sessions 2;
.layout SalesLayout;
.field STORE_ID varchar(8);
.field SALE_DATE varchar(10);
.field AMOUNT varchar(14);
.begin import tables {table}
errortables {table}_ET {table}_UV;
.dml label Apply;
insert into {table} values (
    :STORE_ID, cast(:SALE_DATE as DATE format 'YYYY-MM-DD'),
    cast(:AMOUNT as DECIMAL(12,2)) );
.import infile sales.txt format vartext '|' layout SalesLayout apply Apply;
.end load
"#,
        table = group.table
    );
    let JobPlan::Import(job) = compile(&parse_script(&script).unwrap()).unwrap() else {
        unreachable!()
    };
    let mut data = Vec::new();
    for i in 0..group.rows {
        data.extend_from_slice(
            format!(
                "S{:05}|2026-07-{:02}|{}.{:02}\n",
                i % 997,
                (i % 28) + 1,
                (i * 13) % 5000,
                i % 100
            )
            .as_bytes(),
        );
    }
    let client = LegacyEtlClient::with_options(
        Arc::clone(connector),
        ClientOptions {
            chunk_rows: 100,
            sessions: None,
            ..Default::default()
        },
    );
    let result = client.run_import_data(&job, &data).unwrap();
    assert_eq!(result.report.rows_applied, group.rows);
}

/// Tier-2/3 groups: in-warehouse transformations submitted as legacy SQL.
fn run_transform_group(connector: &Arc<dyn etlv_legacy_client::Connect>, group: &BatchGroup) {
    let mut session =
        Session::logon(connector.as_ref(), "batch", "pw", SessionRole::Control, 0).unwrap();
    let sources: Vec<String> = if group.name.starts_with("rollup_") {
        let category = group.name.strip_prefix("rollup_").unwrap().to_uppercase();
        ["NORTH", "SOUTH", "EAST", "WEST"]
            .iter()
            .map(|r| format!("SALES.{r}_{category}"))
            .collect()
    } else if group.name == "global_summary" {
        ["FOOD", "WHOLESALE", "INSURANCE"]
            .iter()
            .map(|c| format!("SALES.ROLLUP_{c}"))
            .collect()
    } else {
        vec!["SALES.GLOBAL".to_string()]
    };
    for source in sources {
        session
            .sql(&format!(
                "insert into {} sel STORE_ID, SALE_DATE, AMOUNT from {source}",
                group.table
            ))
            .unwrap();
    }
    session.logoff();
}
