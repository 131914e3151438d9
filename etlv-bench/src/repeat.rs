//! `--repeat-check N`: is the benchmark steady enough to judge a change
//! with? Two back-to-back sets of N untraced runs per workload, each run
//! a fresh process on its own seed, compared the way the driver compares
//! them: per end-to-end metric, each set's median and quartiles
//! (Python's `statistics.quantiles(n=4)`), the spread between the
//! quartiles as a share of the median, and the gap between the two set
//! medians. A gap beyond the metric's bound — or, where the metric's
//! spread is gated too, a spread beyond it — fails the check. The table
//! it prints is markdown, for `REPEATABILITY.md`.

use std::process::Command;

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::{Workload, ALL};

/// Pull `"name": {"value": <number>` out of a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + "\"value\": ".len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn run_once(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success()
        || !line.contains("\"correct\": true")
        || !line.contains("\"failed\": 0,")
    {
        return Err(format!(
            "run of {} seed {seed} was not correct (exit {:?}): {line}",
            workload.name(),
            out.status.code()
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            metric_value(line, m.name).ok_or_else(|| format!("{} missing from: {line}", m.name))
        })
        .collect()
}

/// Returns the process exit code: 0 when every gap and spread is within
/// its bound.
pub fn check(n: usize, workload: Option<Workload>, seconds: f64, seed: u64) -> i32 {
    let workloads = workload.map_or(ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in workloads {
        // values[set][metric] = the set's runs.
        let mut values = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for (set, set_values) in values.iter_mut().enumerate() {
            for i in 0..n {
                match run_once(w, seed + (set * n + i) as u64, seconds) {
                    Ok(run) => {
                        for (slot, v) in set_values.iter_mut().zip(run) {
                            slot.push(v);
                        }
                    }
                    Err(e) => {
                        println!("repeat-check: {e}");
                        return 1;
                    }
                }
            }
        }
        println!(
            "\n### {}: two sets of {n} runs, {seconds} s each\n",
            w.name()
        );
        println!("| metric | median 1 | spread 1 | median 2 | spread 2 | gap | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|");
        for (i, m) in END_TO_END.iter().enumerate() {
            let [a1, a2, a3] = quartiles(&values[0][i]);
            let [b1, b2, b3] = quartiles(&values[1][i]);
            let (spread_a, spread_b) = ((a3 - a1) / a2, (b3 - b1) / b2);
            // Positive when the second set is worse than the first.
            let gap = match m.better {
                Better::Lower => (b2 - a2) / a2,
                Better::Higher => (a2 - b2) / a2,
            };
            let spread = if m.spread_gated {
                spread_a.max(spread_b)
            } else {
                0.0
            };
            let verdict = if gap.abs() > m.bound || spread > m.bound {
                ok = false;
                "FAIL"
            } else if gap.abs() > m.bound / 2.0 || spread > m.bound / 3.0 {
                "ok, but wider than hoped"
            } else {
                "ok"
            };
            println!(
                "| {} | {:.4} | {:.1}% | {:.4} | {:.1}% | {:+.1}% | {:.0}% | {verdict} |",
                m.name,
                a2,
                100.0 * spread_a,
                b2,
                100.0 * spread_b,
                100.0 * gap,
                100.0 * m.bound
            );
        }
    }
    println!("\nrepeat-check: {}", if ok { "ok" } else { "FAILED" });
    i32::from(!ok)
}
