//! Command line: one workload per invocation, the smoke pass, or the
//! repeat check.
//!
//! ```text
//! etlv-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! etlv-bench --smoke [--seed N]
//! etlv-bench --repeat-check [N] [--workload <name>] [--seconds S]
//! etlv-bench --describe        # the text of BENCHMARK.json
//! ```
//!
//! A run prints context lines, then every metric by name with its unit
//! and sample count, then — as the last line of standard output — one
//! JSON object `{correct, attempted, failed, metrics}`.

use std::os::unix::process::CommandExt;
use std::time::Instant;

use crate::host::{self, Fingerprint};
use crate::metrics::{self, Metric};
use crate::run::{self, Options, RunResult};
use crate::workloads::{Workload, ALL, DEFAULT_SECONDS, SETUP_REPEATS, SMOKE_DIVISOR};
use crate::{repeat, trace};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat_check: Option<usize>,
    describe: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat_check: None,
        describe: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(|s| s.as_str())
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}`; known: {}",
                        ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                out.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => out.smoke = true,
            "--describe" => out.describe = true,
            "--repeat-check" => {
                let n = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 5,
                };
                if n < 2 {
                    return Err("--repeat-check needs at least 2 runs per set".into());
                }
                out.repeat_check = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A metric without a finite value
/// (no sample behind it) prints as `null`; the run that produced it is
/// already marked incorrect.
pub fn result_line(result: &RunResult, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// 0 only when every job matched the generator's ground truth and the
/// node was left empty.
pub fn exit_code(result: &RunResult) -> i32 {
    if result.correct && result.failed == 0 {
        0
    } else {
        1
    }
}

fn print_run(workload: Workload, seed: u64, result: &RunResult, metrics: &[Metric]) {
    println!(
        "workload {} seed {seed}: {}",
        workload.name(),
        workload.why()
    );
    for note in &result.notes {
        println!("  {note}");
    }
    for m in metrics {
        // A layer number comes with the end-to-end metric it should move.
        let prediction = metrics::PER_LAYER
            .iter()
            .find(|l| l.name == m.name && !l.moves.is_empty())
            .map(|l| format!("  -> {} on {}", l.moves, l.on))
            .unwrap_or_default();
        println!(
            "  {:<32} {:>16.6} {:<8} (n={}){prediction}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for p in result.problems.iter().take(20) {
        println!("  ORACLE: {p}");
    }
    if result.problems.len() > 20 {
        println!("  ORACLE: ... and {} more", result.problems.len() - 20);
    }
    println!(
        "  attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
}

fn smoke(seed: u64, started: Instant) -> i32 {
    let mut code = 0;
    for (i, workload) in ALL.into_iter().enumerate() {
        let result = run::run(
            &Options {
                workload,
                seed,
                seconds: DEFAULT_SECONDS / SMOKE_DIVISOR as f64,
                div: SMOKE_DIVISOR,
                setup_repeats: 1,
                traced: false,
            },
            if i == 0 { started } else { Instant::now() },
        );
        print_run(workload, seed, &result, &result.end_to_end);
        code = code.max(exit_code(&result));
    }
    println!(
        "smoke: {} in {:.1} s",
        if code == 0 { "ok" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    code
}

/// Entry point shared by both binaries; returns the process exit code.
pub fn main(started: Instant) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("etlv-bench: {e}");
            return 2;
        }
    };
    if args.describe {
        print!("{}", metrics::benchmark_json());
        return 0;
    }
    // Asking rustc and git for the fingerprint costs tens of
    // milliseconds; a single run prints it after measuring, so the first
    // set-up is not charged for it.
    let print_host = || {
        println!(
            "etlv-bench host: {}; concurrency cap {}",
            Fingerprint::collect(),
            host::concurrency_cap()
        )
    };
    if let Some(n) = args.repeat_check {
        print_host();
        return repeat::check(n, args.workload, args.seconds, args.seed);
    }
    if args.smoke {
        print_host();
        return smoke(args.seed, started);
    }
    let Some(workload) = args.workload else {
        eprintln!("etlv-bench: --workload <name>, --smoke or --repeat-check is required");
        return 2;
    };
    if args.trace && !trace::allocator_installed() {
        // Allocation counts need the counting allocator, which only the
        // traced binary installs.
        let traced = std::env::current_exe()
            .map(|p| p.with_file_name("etlv-bench-traced"))
            .unwrap_or_default();
        let err = std::process::Command::new(&traced).args(&argv).exec();
        eprintln!("etlv-bench: cannot run {}: {err}", traced.display());
        return 2;
    }
    let result = run::run(
        &Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            div: 1,
            setup_repeats: SETUP_REPEATS,
            traced: args.trace,
        },
        started,
    );
    let metrics = if args.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    print_host();
    print_run(workload, args.seed, &result, metrics);
    println!("{}", result_line(&result, metrics));
    exit_code(&result)
}
