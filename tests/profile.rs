//! The PR 9 continuous-profiling surface, end to end: lock-contention
//! attribution on a hammered CDW table, the `Profile` wire round trip in
//! both renderings, folded-flamegraph/trace reconciliation through a real
//! load, and feature symmetry of the stub surface.

use std::sync::Arc;

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session};
use etlv_protocol::message::{Format, SessionRole, Topic};
mod common;
use common::{customer_import_job, customer_rows, customer_virtualizer, tcp_connector};

/// Two tenants hammering one CDW table from concurrent control sessions:
/// the table's lock site must rank in the profile's contended top-K. A
/// cold (single-threaded) run over the same surface must not rank any
/// CDW table site, because uncontended acquisitions are filtered out.
#[test]
fn hot_table_contention_ranks_its_lock_site() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE HOT (ID INTEGER, PAYLOAD VARCHAR(64))")
        .unwrap();
    let connector = tcp_connector(&v);

    // Hot phase: tenants "alpha" and "beta" tight-loop inserts into the
    // same table, released together by a barrier so the write-lock
    // acquisitions interleave. Scheduling can still serialize a round,
    // so hammer again (bounded) until a collision lands on
    // `cdw.table/HOT` — the registry accumulates across rounds.
    for _round in 0..5 {
        let start = Arc::new(std::sync::Barrier::new(2));
        let mut workers = Vec::new();
        for tenant in ["alpha", "beta"] {
            let connector = Arc::clone(&connector);
            let start = Arc::clone(&start);
            workers.push(std::thread::spawn(move || {
                let mut session =
                    Session::logon(connector.as_ref(), tenant, "pw", SessionRole::Control, 0)
                        .unwrap();
                start.wait();
                for i in 0..400 {
                    session
                        .sql(&format!(
                            "INSERT INTO HOT VALUES ({i}, 'row {i} from {tenant}')"
                        ))
                        .unwrap();
                }
                session.logoff();
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
        let contended = v
            .obs()
            .registry
            .lock_site_snapshots()
            .iter()
            .any(|s| s.site == "cdw.table/HOT" && s.contended > 0);
        if contended {
            break;
        }
    }

    let report = v.profile();
    assert!(
        report
            .locks
            .iter()
            .any(|l| l.site == "cdw.table/HOT" && l.contended > 0),
        "hammered table must rank in the contended top-K: {:?}",
        report
            .locks
            .iter()
            .map(|l| (&l.site, l.contended))
            .collect::<Vec<_>>()
    );

    // Cold phase: a fresh node, one session, same statements — nobody to
    // collide with, so no CDW table site may appear among the contended.
    let v = Virtualizer::new(VirtualizerConfig::default());
    v.cdw()
        .execute("CREATE TABLE HOT (ID INTEGER, PAYLOAD VARCHAR(64))")
        .unwrap();
    let connector = tcp_connector(&v);
    let mut session =
        Session::logon(connector.as_ref(), "solo", "pw", SessionRole::Control, 0).unwrap();
    for i in 0..100 {
        session
            .sql(&format!("INSERT INTO HOT VALUES ({i}, 'cold row {i}')"))
            .unwrap();
    }
    session.logoff();
    let cold = v.profile();
    assert!(
        !cold.locks.iter().any(|l| l.site.starts_with("cdw.table/")),
        "uncontended table locks must not rank: {:?}",
        cold.locks
            .iter()
            .map(|l| (&l.site, l.contended))
            .collect::<Vec<_>>()
    );
    // The acquisitions still happened — they're in the site snapshots,
    // just not in the contended ranking.
    let sites = v.obs().registry.lock_site_snapshots();
    let hot = sites.iter().find(|s| s.site == "cdw.table/HOT").unwrap();
    assert!(hot.acquires >= 100, "cold acquires still counted");
}

/// The `Profile` topic round-trips over the wire from a legacy client:
/// JSON carries the full report, `Text` carries the raw folded-stack
/// text, and after a real load the folded totals reconcile with the
/// job's trace attribution.
#[test]
fn profile_wire_round_trip_and_trace_reconciliation() {
    let v = customer_virtualizer(VirtualizerConfig {
        file_size_threshold: 512,
        ..Default::default()
    });
    let client = LegacyEtlClient::with_options(
        tcp_connector(&v),
        ClientOptions {
            chunk_rows: 25,
            sessions: Some(2),
            ..Default::default()
        },
    );
    client
        .run_import_data(&customer_import_job(), &customer_rows(100))
        .unwrap();

    let mut session = Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let json = session.introspect(Topic::Profile, Format::Json).unwrap();
    assert_eq!(json.format, Format::Json);
    assert!(json.body.contains("\"stages\""), "{}", json.body);
    assert!(json.body.contains("\"locks\""), "{}", json.body);
    assert!(json.body.contains("\"folded\""), "{}", json.body);

    let folded = session.introspect(Topic::Profile, Format::Text).unwrap();
    assert_eq!(
        (folded.topic, folded.format),
        (Topic::Profile, Format::Text)
    );
    session.logoff();
    // The text rendering is the report's folded stacks, nothing else.
    assert_eq!(folded.body, v.profile().folded);

    assert!(folded.body.contains("job;acquisition;"), "{}", folded.body);
    assert!(
        folded.body.contains("job;application;apply "),
        "{}",
        folded.body
    );
    // The folded leaves are the trace's attribution verbatim, so the
    // folded grand total equals the job's attributed wall time exactly.
    let trace = v.trace(1).expect("job 1 still in the journal");
    let folded_total: u64 = folded
        .body
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse::<u64>().unwrap())
        .sum();
    let attributed: u64 = trace.attribution.iter().map(|(_, us)| *us).sum();
    assert_eq!(
        folded_total, attributed,
        "folded stacks and trace attribution must agree"
    );
    // Stage CPU/wall accounting saw the pipeline stages.
    let report = v.profile();
    assert_eq!(report.folded_jobs, 1, "the flamegraph folds the one job");
    let convert = report.stages.iter().find(|s| s.stage == "convert").unwrap();
    assert!(convert.samples >= 1, "convert stage sampled");
    // Single-threaded spans can't burn (much) more CPU than wall; the
    // two clocks tick independently, so allow per-sample granularity
    // jitter rather than demanding cpu <= wall exactly.
    let jitter = 200 * convert.samples;
    assert!(
        convert.cpu_us <= convert.wall_us + jitter,
        "thread CPU time implausibly exceeds wall time: cpu={} wall={} samples={}",
        convert.cpu_us,
        convert.wall_us,
        convert.samples
    );
    let apply = report.stages.iter().find(|s| s.stage == "apply").unwrap();
    assert!(apply.samples >= 1, "apply stage sampled");
}

/// The profile surface on a fresh node: the JSON report has its
/// sections, and the tracked lock primitives record every acquisition
/// and hold under their site. (There is one build; the name predates
/// that.)
#[test]
fn profile_surface_is_feature_symmetric() {
    use etlv_core::obs::{TrackedCondvar, TrackedMutex};

    let v = Virtualizer::new(VirtualizerConfig::default());
    let json = v.introspect(Topic::Profile, Format::Json).body;
    assert!(json.contains("\"stages\""), "{json}");
    assert!(json.contains("\"pool\""), "{json}");

    let registry = &v.obs().registry;
    let m = TrackedMutex::new(registry.lock_site("sym.mutex"), 1u32);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 2);
    let _cv = TrackedCondvar::new(registry.lock_site("sym.condvar"));

    let sites = registry.lock_site_snapshots();
    let mutex_site = sites.iter().find(|s| s.site == "sym.mutex").unwrap();
    assert_eq!(mutex_site.acquires, 2);
    assert_eq!(mutex_site.contended, 0);
    assert_eq!(mutex_site.hold_us.count, 2, "hold time recorded per drop");
}
