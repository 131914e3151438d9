//! PR 6 acceptance: the workload synthesizer and replay harness end to
//! end. Synthesis is seed-deterministic and byte-reproducible from the
//! scenario text alone; arrivals have the shape their scenario promises;
//! and replaying a trace over real TCP against two fresh nodes yields
//! identical outcome counts with error attribution equal to the
//! generator's ground truth.

use std::sync::Arc;
use std::time::Duration;

use etlv_core::{Virtualizer, VirtualizerConfig};
use etlv_legacy_client::{Connect, TcpConnector};
use etlv_workloadgen::{replay, synthesize, JobKind, OutcomeCounts, ReplayOptions, Scenario};

mod common;

/// A scenario small enough for a test, busy enough to be interesting:
/// three tenants, mixed job kinds, both error populations non-empty.
fn small_scenario() -> Scenario {
    Scenario {
        name: "workload_acceptance".into(),
        jobs: 10,
        tenants: 3,
        horizon_ms: 200,
        rows_base: 30,
        rows_hot: 60,
        date_error_ppm: 30_000,
        dup_key_ppm: 20_000,
        ..Scenario::steady(0x00AC_CE97)
    }
}

/// The presets at smoke size: the gates below hold at any scale, so the
/// replays stay short.
fn smoke_presets(seed: u64) -> Vec<Scenario> {
    let mut presets = Scenario::presets(seed);
    for s in &mut presets {
        s.jobs = (s.jobs / 4).max(6);
        s.tenants = s.tenants.min(3);
        s.horizon_ms /= 4;
        s.rows_hot = (s.rows_hot / 4).max(s.rows_base.min(40));
        s.rows_base = s.rows_base.min(40);
    }
    presets
}

/// Replay on a fresh TCP node; returns the outcome counts and how many
/// index seeks the CDW planner recorded.
fn replay_on_fresh_tcp_node(trace: &etlv_workloadgen::WorkloadTrace) -> (OutcomeCounts, u64) {
    let v = Virtualizer::new(VirtualizerConfig::default());
    let handle = v.listen_tcp("127.0.0.1:0").expect("bind");
    let connector: Arc<dyn Connect> = Arc::new(TcpConnector::new(handle.addr().to_string()));
    let options = ReplayOptions {
        time_scale: 0.5,
        read_timeout: Some(Duration::from_secs(30)),
        ..ReplayOptions::default()
    };
    let report = replay(&connector, trace, &options).expect("replay");
    common::assert_quiescent(&v);
    handle.shutdown();
    (report.counts(), v.obs().cdw.plan_index_seek.value())
}

/// Same seed, same trace — different seed, different trace.
#[test]
fn synthesis_is_a_pure_function_of_the_scenario() {
    for scenario in Scenario::presets(42) {
        let a = synthesize(&scenario);
        let b = synthesize(&scenario);
        assert_eq!(a, b, "'{}' must synthesize identically", scenario.name);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut reseeded = scenario.clone();
        reseeded.seed = 43;
        assert_ne!(
            a.fingerprint(),
            synthesize(&reseeded).fingerprint(),
            "'{}' must depend on its seed",
            scenario.name
        );
    }
}

/// The scenario file alone reproduces the trace byte for byte: render to
/// text, parse it back, synthesize — identical fingerprint.
#[test]
fn scenario_file_reproduces_the_trace() {
    for scenario in Scenario::presets(7) {
        let parsed = Scenario::parse(&scenario.render()).expect("rendered scenario parses");
        assert_eq!(parsed, scenario);
        assert_eq!(
            synthesize(&parsed).fingerprint(),
            synthesize(&scenario).fingerprint()
        );
    }
}

/// Strictness: a scenario file either reproduces its run or is rejected.
#[test]
fn scenario_parser_rejects_malformed_files() {
    let good = Scenario::steady(1).render();
    assert!(Scenario::parse(&format!("{good}bogus_key = 1\n")).is_err());
    assert!(
        Scenario::parse(&format!("{good}jobs = 24\n")).is_err(),
        "duplicate key"
    );
    let missing = good.replace("tenants = 4\n", "");
    assert!(Scenario::parse(&missing).is_err(), "missing key");
    assert!(Scenario::parse("not a scenario").is_err());
}

/// Bursty arrivals concentrate: some burst-sized window holds far more
/// than its even share of the jobs; steady arrivals never concentrate
/// that hard.
#[test]
fn bursty_arrivals_concentrate_in_windows() {
    let bursty = Scenario::bursty_zipf(99);
    let mut steady = Scenario::steady(99);
    steady.jobs = bursty.jobs;
    steady.horizon_ms = bursty.horizon_ms;

    let peak_share = |scenario: &Scenario| -> f64 {
        let trace = synthesize(scenario);
        let horizon_us = u64::from(scenario.horizon_ms) * 1000;
        // Slide a window one-tenth of the horizon wide, take the fullest.
        let window = horizon_us / 10;
        let times: Vec<u64> = trace.events.iter().map(|e| e.at_us).collect();
        let mut best = 0usize;
        for &start in &times {
            let in_window = times
                .iter()
                .filter(|&&t| t >= start && t < start + window)
                .count();
            best = best.max(in_window);
        }
        best as f64 / times.len() as f64
    };

    let bursty_peak = peak_share(&bursty);
    let steady_peak = peak_share(&steady);
    assert!(
        bursty_peak > steady_peak,
        "bursty peak window share {bursty_peak:.2} must beat steady {steady_peak:.2}"
    );
    assert!(
        bursty_peak > 0.25,
        "a tenth of the horizon held only {bursty_peak:.2} of a bursty trace"
    );
}

/// The generator plans real work: the acceptance scenario has imports,
/// at least one non-import job, and both error populations.
#[test]
fn small_scenario_exercises_the_full_mix() {
    let trace = synthesize(&small_scenario());
    let truth = trace.ground_truth();
    assert!(truth.imports >= 3, "{} imports", truth.imports);
    assert!(
        trace
            .events
            .iter()
            .any(|e| !matches!(e.kind, JobKind::Import(_))),
        "mix must include a non-import job"
    );
    assert!(truth.bad_dates > 0, "no ET rows planned");
    assert!(truth.dup_keys > 0, "no UV rows planned");
}

/// The tentpole end to end: replay the same trace over real TCP against
/// two fresh nodes — the acceptance scenario and every preset at smoke
/// size. Every job completes, both runs produce identical outcome counts,
/// the nodes' ET/UV attribution equals the planned error mix row for row,
/// and the dirty preset's uniqueness probes and bisection run as index
/// seeks.
#[test]
fn tcp_replay_outcomes_are_deterministic() {
    for scenario in std::iter::once(small_scenario()).chain(smoke_presets(0x00E7_C006)) {
        let name = &scenario.name;
        let trace = synthesize(&scenario);
        let truth = trace.ground_truth();

        let (first, index_seeks) = replay_on_fresh_tcp_node(&trace);
        let (second, _) = replay_on_fresh_tcp_node(&trace);

        assert_eq!(first, second, "'{name}': replays of one trace must agree");
        assert_eq!(first.jobs, u64::from(scenario.jobs), "'{name}'");
        assert_eq!(
            first.completed, first.jobs,
            "'{name}': {} rejected, {} failed",
            first.rejected, first.failed
        );
        assert_eq!(first.errors_et, truth.bad_dates, "'{name}'");
        assert_eq!(first.errors_uv, truth.dup_keys, "'{name}'");
        assert_eq!(
            first.rows_applied,
            truth.rows - truth.bad_dates - truth.dup_keys,
            "'{name}'"
        );
        if name == "error_heavy" {
            assert!(index_seeks > 0, "'{name}' replay recorded no index seeks");
        }
    }
}
