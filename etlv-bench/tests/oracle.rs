//! The oracle, end to end at smoke scale: a real node over TCP, every
//! job held to the plan — and a run that must fail when the plan lies.

use std::time::Instant;

use etlv_bench::cli::{exit_code, result_line};
use etlv_bench::gen::{Job, Plan};
use etlv_bench::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use etlv_bench::repeat::metric_value;
use etlv_bench::run::{run, run_edited, Options};
use etlv_bench::workloads::{Workload, ALL, SMOKE_DIVISOR};

fn smoke(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.5,
        div: SMOKE_DIVISOR,
        setup_repeats: 1,
        traced: false,
    }
}

#[test]
fn a_second_seed_passes_the_oracle_on_every_workload() {
    for workload in ALL {
        let result = run(&smoke(workload, 2), Instant::now());
        assert!(result.correct, "{}: {:?}", workload.name(), result.problems);
        assert_eq!(result.failed, 0);
        assert!(result.attempted >= 4);
        assert_eq!(exit_code(&result), 0);
        let names: Vec<&str> = result.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for m in &result.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn a_wrong_expectation_fails_the_job_the_run_and_the_process() {
    // The plan claims one applied row more than the input holds.
    let lie = |plan: &mut Plan| {
        let Some(Job::Import(import)) = plan.cycle.first_mut() else {
            panic!("a bulk_narrow cycle starts with its import");
        };
        import.truth.applied += 1;
    };
    let result = run_edited(&smoke(Workload::BulkNarrow, 1), Instant::now(), &lie);
    assert!(
        result.failed >= 1,
        "the mismatching import counts as failed"
    );
    assert!(!result.correct);
    assert_ne!(exit_code(&result), 0);
    assert!(
        result.problems.iter().any(|p| p.contains("planned")),
        "{:?}",
        result.problems
    );
    let line = result_line(&result, &result.end_to_end);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": "));
}

#[test]
fn the_result_line_round_trips_through_the_repeat_check_parser() {
    let result = run(&smoke(Workload::DirtyFeed, 1), Instant::now());
    let line = result_line(&result, &result.end_to_end);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"));
    for m in &result.end_to_end {
        assert_eq!(metric_value(&line, m.name), Some(m.value), "{}", m.name);
    }
    assert_eq!(metric_value(&line, "no_such_metric"), None);
}

#[test]
fn a_traced_run_reports_exactly_the_per_layer_table() {
    let result = run(
        &Options {
            traced: true,
            ..smoke(Workload::TenantMix, 1)
        },
        Instant::now(),
    );
    assert!(result.correct, "{:?}", result.problems);
    let names: Vec<&str> = result.per_layer.iter().map(|m| m.name).collect();
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    for (got, want) in result.per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(got.unit, want.unit, "{}", got.name);
        assert!(got.value.is_finite(), "{} = {}", got.name, got.value);
    }
}

#[test]
fn the_committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `etlv-bench --describe > BENCHMARK.json`"
    );
    for workload in ALL {
        assert!(workload.why().len() <= 200 && !workload.why().contains('"'));
    }
}

#[test]
fn every_layer_prediction_names_a_real_metric_and_workload() {
    for layer in &PER_LAYER {
        assert_eq!(
            layer.moves.is_empty(),
            layer.on.is_empty(),
            "{}",
            layer.name
        );
        for moved in layer.moves.split(',').filter(|m| !m.is_empty()) {
            assert!(
                END_TO_END.iter().any(|m| m.name == moved),
                "{} predicts a move of `{moved}`, which is no end-to-end metric",
                layer.name
            );
        }
        for on in layer.on.split(',').filter(|w| !w.is_empty()) {
            assert!(
                Workload::from_name(on).is_some(),
                "{} predicts a move on `{on}`, which is no workload",
                layer.name
            );
        }
    }
}
