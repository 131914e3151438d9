//! PR 8 acceptance: per-tenant SLO observability end to end. A seeded
//! mixed-tenant workload (one error-heavy tenant, one clean) must fire
//! exactly the heavy tenant's error-rate burn alert; tenant-labeled
//! Prometheus families must survive the same conformance rules as the
//! node surface; and the `Health` wire request must round-trip from an
//! unmodified legacy-client session in both renderings.

use std::time::Duration;

use etlv_core::obs::SloPolicy;
use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{ClientOptions, LegacyEtlClient, Session};
use etlv_protocol::message::{Format, SessionRole, Topic};
use etlv_workloadgen::{tenant_user, ImportSpec};

mod common;
use common::tcp_connector;

/// Burn-rate windows small enough that a test's worth of traffic spans
/// both; the latency target is generous so only deliberate error budgets
/// are spent.
fn test_policy() -> SloPolicy {
    SloPolicy {
        latency_target: Duration::from_secs(30),
        fast_window: Duration::from_millis(400),
        slow_window: Duration::from_millis(1600),
        ..SloPolicy::default()
    }
}

/// A seeded import for `tenant`: same generator the workload replay
/// uses, so the payload (and its planned error rows) is a pure function
/// of the spec.
fn tenant_import(tenant: u16, rows: u32, date_error_ppm: u32) -> ImportSpec {
    ImportSpec {
        table: format!("WG_T{tenant:02}_TAB01"),
        user: tenant_user(tenant),
        rows,
        row_bytes: 80,
        date_error_ppm,
        dup_key_ppm: 0,
        sessions: 2,
        key_space: u32::from(tenant),
        data_seed: 0x510_0000 + u64::from(tenant),
        planned_bad_dates: 0,
        planned_dup_keys: 0,
    }
}

fn run_spec(v: &Virtualizer, spec: &ImportSpec) -> u64 {
    v.cdw().execute(&spec.target_ddl()).unwrap();
    let client = LegacyEtlClient::with_options(
        tcp_connector(v),
        ClientOptions {
            chunk_rows: 50,
            sessions: Some(2),
            ..Default::default()
        },
    );
    let result = client
        .run_import_data(&spec.job(), &spec.payload().data)
        .unwrap();
    result.report.errors_et
}

/// The headline scenario: tenant 0 spends ~15% of its rows on bad dates
/// against a 0.1% error budget (burn ≫ both thresholds); tenant 1 is
/// clean. Exactly the heavy tenant's `error_rate` objective may alert.
#[test]
fn heavy_tenant_burn_alert_fires_light_tenant_stays_green() {
    let v = Virtualizer::new(VirtualizerConfig {
        slo: test_policy(),
        ..Default::default()
    });
    let heavy = tenant_import(0, 400, 150_000);
    let light = tenant_import(1, 400, 0);
    let heavy_errors = run_spec(&v, &heavy);
    let light_errors = run_spec(&v, &light);
    assert!(heavy_errors > 0, "seeded payload must carry bad dates");
    assert_eq!(light_errors, 0, "clean payload must stay clean");

    let report = v.health();
    let tenant = |name: &str| {
        report
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("missing tenant {name} in {report:?}"))
    };
    let heavy_health = tenant(&tenant_user(0));
    assert_eq!(
        heavy_health.alerts,
        vec!["error_rate"],
        "exactly the error-rate alert: {heavy_health:?}"
    );
    let error_rate = heavy_health
        .objectives
        .iter()
        .find(|s| s.objective == "error_rate")
        .unwrap();
    assert!(error_rate.alerting);
    assert!(
        error_rate.burn_fast > 100.0,
        "~15% errors against a 0.1% budget: {error_rate:?}"
    );
    assert_eq!(error_rate.bad_fast, heavy_errors);

    let light_health = tenant(&tenant_user(1));
    assert!(
        light_health.alerts.is_empty(),
        "clean tenant must stay green: {light_health:?}"
    );
    assert!(!report.overload.overloaded, "{:?}", report.overload);
}

/// Prometheus conformance for the tenant-labeled surface: every sample
/// line must parse as `name{labels} value`, and every family — tenant
/// families included — must be announced by exactly one `# TYPE` line.
fn assert_prometheus_conforms(text: &str) {
    let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary" | "histogram"),
                "bad TYPE kind: {line}"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in {line}"));
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line}"
        );
        let family = ["_count", "_sum", "_max"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .unwrap_or(name);
        assert!(
            typed.contains(family) || typed.contains(name),
            "sample {name} missing TYPE metadata"
        );
    }
}

/// Two tenants' worth of traffic, rendered over the wire: the tenant
/// families carry both labels, conform, and agree with the JSON
/// snapshot's `tenants` section.
#[test]
fn tenant_labeled_stats_conform_over_the_wire() {
    let v = Virtualizer::new(VirtualizerConfig::default());
    run_spec(&v, &tenant_import(0, 120, 0));
    run_spec(&v, &tenant_import(1, 120, 0));

    let client = LegacyEtlClient::new(tcp_connector(&v));
    let mut session = Session::logon(
        client.connector().as_ref(),
        "admin",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();
    let prom = session.introspect(Topic::Stats, Format::Text).unwrap().body;
    assert_prometheus_conforms(&prom);
    for user in [tenant_user(0), tenant_user(1)] {
        assert!(
            prom.contains(&format!(
                "etlv_tenant_rows_applied{{tenant=\"{user}\"}} 120\n"
            )),
            "{prom}"
        );
        assert!(
            prom.contains(&format!(
                "etlv_tenant_jobs_completed{{tenant=\"{user}\"}} 1\n"
            )),
            "{prom}"
        );
    }
    assert_eq!(
        prom.matches("# TYPE etlv_tenant_rows_applied counter\n")
            .count(),
        1,
        "tenant families are metric-major: one TYPE line for both tenants"
    );

    let json = session.introspect(Topic::Stats, Format::Json).unwrap().body;
    for user in [tenant_user(0), tenant_user(1)] {
        assert!(json.contains(&format!("\"tenant\": \"{user}\"")), "{json}");
    }
    session.logoff();
}

/// The `Health` topic from an unmodified legacy-client session: JSON and
/// Prometheus bodies round-trip, each labelled as what it is, and the
/// Prometheus body conforms.
#[test]
fn health_wire_round_trip() {
    let v = Virtualizer::new(VirtualizerConfig {
        slo: test_policy(),
        ..Default::default()
    });
    run_spec(&v, &tenant_import(0, 200, 150_000));

    let client = LegacyEtlClient::new(tcp_connector(&v));
    let mut session = Session::logon(
        client.connector().as_ref(),
        "ops",
        "pw",
        SessionRole::Control,
        0,
    )
    .unwrap();

    let json = session.introspect(Topic::Health, Format::Json).unwrap();
    assert_eq!(json.format, Format::Json);
    assert!(json.body.contains("\"overload\""), "{}", json.body);
    let prom = session.introspect(Topic::Health, Format::Text).unwrap();
    assert_eq!(prom.format, Format::Text);
    assert_prometheus_conforms(&prom.body);
    assert!(prom.body.contains("etlv_node_overloaded "), "{}", prom.body);

    assert_eq!((json.topic, prom.topic), (Topic::Health, Topic::Health));

    let user = tenant_user(0);
    assert!(
        json.body.contains(&format!("\"tenant\": \"{user}\"")),
        "{}",
        json.body
    );
    assert!(
        prom.body.contains(&format!(
            "etlv_slo_alert{{tenant=\"{user}\",objective=\"error_rate\"}} 1\n"
        )),
        "{}",
        prom.body
    );
    session.logoff();
}
