//! The continuous-profiling surface, end to end: the `Profile` wire round
//! trip in both renderings, folded-flamegraph/trace reconciliation
//! through a real load, and the keys the surface's readers rely on.

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session};
use etlv_protocol::message::{Format, SessionRole, Topic};
mod common;
use common::{customer_import_job, customer_rows, customer_virtualizer, tcp_connector};

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

/// The profile surface on a fresh node carries exactly the sections its
/// readers use (`obs_dump --profile` prints each), and the Stats
/// exposition carries no lock-site family. (There is one build; the name
/// predates that.)
#[test]
fn profile_surface_is_feature_symmetric() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let json = v.introspect(Topic::Profile, Format::Json).body;
    assert_eq!(
        top_level_keys(&json),
        ["stages", "pool", "folded_jobs", "folded"],
        "{json}"
    );

    let text = v.introspect(Topic::Stats, Format::Text).body;
    assert!(text.contains("# TYPE etlv_"), "{text}");
    assert!(!text.contains("etlv_lock"), "{text}");
    let stats = v.introspect(Topic::Stats, Format::Json).body;
    assert!(!stats.contains("lock.site"), "{stats}");
}
