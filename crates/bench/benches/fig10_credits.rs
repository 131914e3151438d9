//! Figure 10 — Data Acquisition Scalability with Number of Credits.
//!
//! Paper: loading 100M records (~97 GB) into a 50-column table while
//! sweeping the CreditManager pool size. The rate is flat across a wide
//! range of credit counts, then per-process overhead (context switching)
//! begins to dominate at very large pools — and at one million credits
//! Hyper-Q ran out of memory and crashed.
//!
//! Here: a 50-column workload with per-chunk converter sizing (one worker
//! per in-flight chunk, the paper's process model), sweeping the pool
//! size; the final row reproduces the crash as a *deterministic,
//! reportable* out-of-memory job failure under a configured memory cap.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use etlv_bench::{connector, rate_mb_s, run_import, virtualizer_with_latency};
use etlv_core::workload::wide_workload;
use etlv_core::VirtualizerConfig;
use etlv_legacy_client::{ClientOptions, LegacyEtlClient};
use etlv_script::{compile, parse_script, JobPlan};

const CREDITS: [usize; 6] = [2, 8, 32, 128, 512, 1024];
const ROWS: u64 = 30_000;

/// The paper's process-per-chunk model: one converter per in-flight chunk,
/// i.e. per credit — capped, so a huge credit pool queues chunks on the
/// pool instead of turning into a huge OS-thread count.
fn per_chunk_converters(credits: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    credits.clamp(1, (cores * 8).clamp(16, 256))
}

fn config_for(credits: usize) -> VirtualizerConfig {
    VirtualizerConfig {
        credits,
        converter_threads: per_chunk_converters(credits),
        ..Default::default()
    }
}

fn options() -> ClientOptions {
    ClientOptions {
        chunk_rows: 50, // many small chunks: the credit pool is the governor
        sessions: Some(8),
        ..Default::default()
    }
}

fn print_figure() {
    println!("\n=== Figure 10: acquisition rate vs credit pool size (50-col table, per-chunk converters) ===");
    let workload = wide_workload(ROWS, 50, 12, 7);
    let bytes = workload.data.len() as u64;
    println!(
        "{:>9} {:>12} {:>10} {:>14}",
        "credits", "acq-time", "MB/s", "credit stalls"
    );
    for credits in CREDITS {
        let mut best = f64::INFINITY;
        let mut stalls = 0u64;
        for _ in 0..2 {
            let v = virtualizer_with_latency(config_for(credits), Duration::ZERO);
            let (_, report) = etlv_bench::run_import_on(&v, &workload, options());
            best = best.min(report.acquisition.as_secs_f64());
            stalls = v.metrics().credit_stalls;
        }
        println!(
            "{:>9} {:>12.3} {:>10.1} {:>14}",
            credits,
            best,
            rate_mb_s(bytes, Duration::from_secs_f64(best)),
            stalls,
        );
    }

    // The paper's one-million-credit run: with enough credits the node
    // admits unbounded in-flight data; under a memory cap the job fails
    // with a reportable OOM instead of crashing the process.
    let mut config = config_for(100_000);
    config.memory_cap = 64 * 1024; // in-flight cap far below the dataset
    let v = virtualizer_with_latency(config, Duration::ZERO);
    v.cdw()
        .execute(&etlv_core::xcompile::translate_sql(&workload.target_ddl).unwrap())
        .unwrap();
    let JobPlan::Import(job) = compile(&parse_script(&workload.script).unwrap()).unwrap() else {
        unreachable!()
    };
    let client = LegacyEtlClient::with_options(connector(&v), options());
    match client.run_import_data(&job, &workload.data) {
        Err(etlv_legacy_client::ClientError::Server { code, .. }) => println!(
            "{:>9} {:>12} {:>10} {:>14}   <- job failed: out of memory (code {code})",
            100_000, "-", "-", "-"
        ),
        other => println!("unexpected outcome for the OOM run: {other:?}"),
    }
    println!("(paper shape: flat rate until per-worker overhead dominates; extreme pools exhaust memory)");
}

fn bench(c: &mut Criterion) {
    let workload = wide_workload(5_000, 50, 12, 7);
    let mut group = c.benchmark_group("fig10_credits");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for credits in [8usize, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(credits),
            &credits,
            |b, &credits| {
                b.iter(|| run_import(config_for(credits), Duration::ZERO, &workload, options()))
            },
        );
    }
    group.finish();
}

fn main() {
    print_figure();
    let mut criterion = Criterion::default().configure_from_args();
    bench(&mut criterion);
    criterion.final_summary();
}
